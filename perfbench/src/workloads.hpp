// The three benchmark workloads and the metric catalogue they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// The defender_serve binary (serve-zipf spawns it).
  std::string serve_bin;
  /// Directory for this run's sockets, cache stores and span file.
  std::string run_dir;
};

/// Closed loop, one caller: SolveEngine::run_serial over four ladder rungs.
Outcome run_do_ladder(const RunArgs& args);
/// Open loop with Poisson arrivals against a spawned defender_serve.
Outcome run_serve_zipf(const RunArgs& args);
/// Closed batches through a supervise::WorkerPool of worker processes.
Outcome run_batch_isolated(const RunArgs& args);

struct MetricSpec {
  std::string name;
  std::string unit;
};
/// End-to-end metrics: every workload reports each of them (--trace 0).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics: every traced run (--trace 1) reports each of them;
/// a layer the workload never calls reports 0.
const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
