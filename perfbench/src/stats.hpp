// Sample statistics and the Zipf sampler used by the benchmark harness.
//
// Every timing the benchmark reports is a median or a percentile of raw
// samples; these helpers pin down exactly which definition is used, so the
// self-test (tests/selftest.cpp) can check them against hand-computed
// cases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/random.hpp"

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count).
/// Requires a non-empty sample.
double median(std::vector<double> v);

/// Linear-interpolated percentile q in [0, 100] (the "linear" rule: rank
/// q/100 * (n - 1) between order statistics). Requires a non-empty sample.
double percentile(std::vector<double> v, double q);

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// The highest percentile that leaves at least kTailSamples samples beyond
/// it in a sample of `n`: 100 * (1 - kTailSamples / n), so 1000 samples
/// support p99. nullopt below 2 * kTailSamples samples, where that would
/// fall under the median.
std::optional<double> highest_supported_percentile(std::size_t n);

/// A tail latency: the percentile `want` when the sample supports it, else
/// the highest supported percentile, else (fewer than 20 samples, which
/// support no tail) the median. `used` receives the percentile reported.
double tail(const std::vector<double>& v, double want, double* used = nullptr);

/// The median over consecutive windows of `window` (in the units of `at`)
/// of each window's percentile q, for samples `v` observed at times `at`.
/// Windows with fewer than 20 samples are skipped. A burst that spoils one
/// window moves this by one rank, where it would move a whole-sample
/// percentile by the burst's full weight. Requires v.size() == at.size();
/// returns the whole-sample percentile when no window qualifies.
double windowed_percentile(const std::vector<double>& v,
                           const std::vector<double>& at, double window,
                           double q);

/// Zipf(s) sampler over ranks 1..n by rejection-inversion (Hörmann and
/// Derflinger 1996): O(1) per draw, no table, so n can be effectively
/// unbounded. Requires s > 0, s != 1 and n >= 1.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);
  std::uint64_t operator()(defender::util::Rng& rng) const;
  std::uint64_t n() const { return n_; }
  double exponent() const { return s_; }

 private:
  double h(double x) const;
  double h_inverse(double x) const;
  std::uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;
};

/// Open-loop validity: a run whose generator lag p99 exceeds `limit_ms`
/// measured the harness, not the server, and is invalid.
bool open_loop_valid(const std::vector<double>& gen_lag_ms, double limit_ms);

}  // namespace perfbench
