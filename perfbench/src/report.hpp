// Result reporting for the benchmark driver: the metric map printed as the
// final JSON line, host metadata, and the traced run's span file.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed between two steady-clock points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What one workload run measured. `attempted` and `failed` count the
/// operations the correctness gate judged; `failures` holds the first few
/// reasons for the log. Any failure makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> failures;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records one failed operation and marks the run incorrect: a wrong
  /// value, an error, a rejection where none is allowed and a quarantined
  /// job all fail the correctness gate.
  void fail(const std::string& why);
  /// 1 - failed / attempted.
  double ok_ratio() const {
    return 1.0 - static_cast<double>(failed) /
                     static_cast<double>(attempted > 0 ? attempted : 1);
  }
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string result_line(const Outcome& outcome);

/// One line of host metadata: nproc, compiler, build type, commit.
std::string host_line(const std::string& compiler,
                      const std::string& build_type,
                      const std::string& commit);

/// Peak resident set (VmHWM) of a process in MiB, read from
/// /proc/<pid>/status; 0 when unreadable. pid 0 means this process.
double peak_rss_mib(long pid = 0);

/// Harness-owned spans of the traced run, kept in memory and written out
/// once at the end as JSON lines:
///   {"id":7,"parent":3,"name":"serve.request","start_us":..,"end_us":..,
///    "attrs":{...}}
/// Times are microseconds since the log was created; parent 0 is a root.
/// Thread-safe.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  /// Reserves the id of a span recorded later, so its children can name
  /// it as their parent before it ends.
  std::uint64_t reserve() {
    const std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }
  /// Records a finished span and returns its id (`id` 0 takes a new one).
  std::uint64_t add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::string attrs_json = "{}", std::uint64_t id = 0);
  /// Writes every span; false on an I/O error.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<std::string> lines_;
};

/// Times `fn` once and returns milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

}  // namespace perfbench
