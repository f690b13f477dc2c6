#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(q, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  if (n < 2 * kTailSamples) return std::nullopt;
  return 100.0 * (1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n));
}

double tail(const std::vector<double>& v, double want, double* used) {
  const std::optional<double> best = highest_supported_percentile(v.size());
  const double q = best.has_value() ? std::min(want, *best) : 50.0;
  if (used != nullptr) *used = q;
  return percentile(v, q);
}

double windowed_percentile(const std::vector<double>& v,
                           const std::vector<double>& at, double window,
                           double q) {
  if (v.size() != at.size() || v.empty() || !(window > 0))
    throw std::invalid_argument("windowed_percentile needs matching samples");
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < v.size(); ++i)
    windows[static_cast<long>(std::floor(at[i] / window))].push_back(v[i]);
  std::vector<double> per_window;
  for (auto& [index, sample] : windows)
    if (sample.size() >= 2 * kTailSamples) per_window.push_back(percentile(sample, q));
  return per_window.empty() ? percentile(v, q) : median(per_window);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  if (n < 1 || !(s > 0) || s == 1.0)
    throw std::invalid_argument("ZipfSampler needs n >= 1, s > 0, s != 1");
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - h_inverse(h(2.5) - std::pow(2.0, -s));
}

// H(x) = (x^(1-s) - 1) / (1 - s), an antiderivative of the density x^-s.
double ZipfSampler::h(double x) const {
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::h_inverse(double x) const {
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::uint64_t ZipfSampler::operator()(defender::util::Rng& rng) const {
  for (;;) {
    const double u = h_n_ + rng.uniform01() * (h_x1_ - h_n_);
    const double x = h_inverse(u);
    double k = std::floor(x + 0.5);
    k = std::clamp(k, 1.0, static_cast<double>(n_));
    if (k - x <= threshold_ || u >= h(k + 0.5) - std::pow(k, -s_))
      return static_cast<std::uint64_t>(k);
  }
}

bool open_loop_valid(const std::vector<double>& gen_lag_ms, double limit_ms) {
  if (gen_lag_ms.empty()) return true;
  return tail(gen_lag_ms, 99) <= limit_ms;
}

}  // namespace perfbench
