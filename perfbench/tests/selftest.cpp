// Self-tests of the benchmark harness (run with `python3 perfbench/run.py
// --selftest`). They pin what the benchmark's numbers mean: the inputs a
// seed yields, the statistics that summarize samples, the Zipf sampler and
// the open-loop validity rule. Exit 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "boards.hpp"
#include "engine/engine.hpp"
#include "stats.hpp"
#include "supervise/wire.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b, double eps = 1e-12) { return std::fabs(a - b) <= eps; }

/// Every byte the serve workload would send in its first two phases.
std::string stream_bytes(std::uint64_t seed) {
  perfbench::RequestStream stream(seed, 1.6, std::uint64_t{1} << 40, 48);
  std::string bytes;
  for (const double rate : {200.0, 1000.0})
    for (const perfbench::TimedRequest& r : stream.phase(rate, 0.5)) {
      char due[32];
      std::snprintf(due, sizeof due, "%.17g ", r.offset_ms);
      bytes += due + r.line + '\n';
    }
  return bytes;
}

/// The job frames of the batch workload's first batch.
std::string batch_bytes(std::uint64_t seed) {
  std::string bytes;
  const std::vector<defender::engine::SolveJob> jobs = perfbench::isolated_batch(seed, 0);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    bytes += defender::supervise::to_text(
        defender::supervise::frame_from_job(jobs[i], i, defender::engine::EngineConfig{}));
  return bytes;
}

void test_determinism() {
  const std::string a = stream_bytes(7), b = stream_bytes(7), c = stream_bytes(8);
  check(!a.empty() && a == b, "same seed gives a byte-identical request stream");
  check(a != c, "another seed gives another request stream");
  const std::string ja = batch_bytes(7), jb = batch_bytes(7), jc = batch_bytes(8);
  check(!ja.empty() && ja == jb, "same seed gives a byte-identical job list");
  check(ja != jc, "another seed gives another job list");
}

void test_statistics() {
  using perfbench::highest_supported_percentile;
  check(near(perfbench::median({3, 1, 2}), 2), "median of an odd sample");
  check(near(perfbench::median({4, 1, 3, 2}), 2.5), "median of an even sample");
  check(near(perfbench::percentile({1, 2, 3, 4, 5}, 25), 2), "lower quartile of 1..5");
  check(near(perfbench::percentile({5, 4, 3, 2, 1}, 75), 4), "upper quartile of 1..5");
  check(near(perfbench::percentile({1, 2, 3, 4}, 25), 1.75), "lower quartile interpolates");
  check(near(perfbench::percentile({10, 20}, 90), 19), "p90 interpolates");
  check(!highest_supported_percentile(19).has_value(), "19 samples support no percentile");
  check(near(*highest_supported_percentile(20), 50), "20 samples support p50");
  check(near(*highest_supported_percentile(40), 75), "40 samples support p75");
  check(near(*highest_supported_percentile(999), 100.0 * (1 - 10.0 / 999)),
        "999 samples fall just short of p99");
  check(near(*highest_supported_percentile(1000), 99), "1000 samples support p99");
  check(near(*highest_supported_percentile(10000), 99.9), "10000 samples support p99.9");
  double used = 0;
  check(near(perfbench::tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99, &used), 5.5) &&
            near(used, 50),
        "a sample too small for any tail reports its median");
  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  check(near(perfbench::tail(big, 99, &used), perfbench::percentile(big, 99)) &&
            near(used, 99),
        "1000 samples report their p99");
  // Three windows of 100 samples: p90s 90.1, 190.1 and 1090.1 (one window
  // spoiled by a burst); the median window wins.
  std::vector<double> v, at;
  for (int w = 0; w < 3; ++w)
    for (int i = 1; i <= 100; ++i) {
      v.push_back(w == 2 ? 1000 + i : 100 * w + i);
      at.push_back(w + i / 1000.0);
    }
  check(near(perfbench::windowed_percentile(v, at, 1.0, 90), 190.1, 1e-9),
        "windowed p90 is the median window's p90");
  std::vector<double> forty(big.begin(), big.begin() + 40);
  check(near(perfbench::tail(forty, 99, &used), perfbench::percentile(forty, 75)) &&
            near(used, 75),
        "40 samples report their p75, the highest with ten beyond");
}

void test_zipf() {
  const double s = 1.6;
  const perfbench::ZipfSampler zipf(std::uint64_t{1} << 40, s);
  defender::util::Rng rng(99);
  const int draws = 400000;
  std::vector<double> count(9, 0);
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = zipf(rng);
    if (k <= 8) count[k] += 1;
  }
  // Normalizer: sum k^-s, with the tail past 10^6 by its integral.
  double zeta = 0;
  for (int k = 1; k <= 1000000; ++k) zeta += std::pow(k, -s);
  zeta += std::pow(1e6 + 0.5, 1 - s) / (s - 1);
  for (int k = 1; k <= 8; ++k) {
    const double p = std::pow(k, -s) / zeta;
    const double sigma = std::sqrt(p * (1 - p) / draws);
    check(std::fabs(count[k] / draws - p) < 5 * sigma,
          "Zipf frequency of rank " + std::to_string(k) + " fits its exponent");
  }
  // Least-squares slope of log frequency on log rank over ranks 1..8.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (int k = 1; k <= 8; ++k) {
    const double x = std::log(k), y = std::log(count[k] / draws);
    sx += x; sy += y; sxx += x * x; sxy += x * y;
  }
  const double slope = (8 * sxy - sx * sy) / (8 * sxx - sx * sx);
  check(std::fabs(-slope - s) < 0.05, "fitted Zipf exponent matches");
}

void test_open_loop_validity() {
  std::vector<double> lag(1000, 0.2);
  check(perfbench::open_loop_valid(lag, 20), "a punctual generator is valid");
  for (int i = 0; i < 20; ++i) lag[i] = 50;  // 2% of sends 50 ms late
  check(!perfbench::open_loop_valid(lag, 20),
        "a generator whose lag p99 exceeds the limit is invalid");
}

}  // namespace

int main() {
  test_determinism();
  test_statistics();
  test_zipf();
  test_open_loop_validity();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "selftest ok" : "selftest FAILED",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
