// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload do-ladder|serve-zipf|batch-isolated
//                    --seed N --seconds S --trace 0|1
//                    --serve-bin PATH --run-dir DIR [--commit ID]
//
// Diagnostic lines start with '#'; the last stdout line is the result
// JSON object (report.hpp). Exits 2 on bad arguments or an unreliable
// build, 3 when a workload could not complete.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "lp/tableau.hpp"
#include "supervise/worker.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --run-dir DIR [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pool workers re-exec this binary; this call never returns in them.
  defender::supervise::worker_trampoline(argc, argv);

  perfbench::RunArgs args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--serve-bin") args.serve_bin = value;
    else if (flag == "--run-dir") args.run_dir = value;
    else if (flag == "--commit") commit = value;
    else return usage();
  }
  if (argc % 2 != 1 || args.workload.empty() || args.run_dir.empty() ||
      !(args.seconds > 0))
    return usage();

  // Numbers from a bounds-checked or sanitizer build measure the checks.
  if (defender::lp::kTableauBoundsChecked || sanitized_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a bounds-checked or "
                         "sanitizer build\n");
    return 2;
  }
  std::printf("# host %s\n",
              perfbench::host_line(PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, commit)
                  .c_str());

  perfbench::Outcome outcome;
  try {
    if (args.workload == "do-ladder") outcome = perfbench::run_do_ladder(args);
    else if (args.workload == "serve-zipf") outcome = perfbench::run_serve_zipf(args);
    else if (args.workload == "batch-isolated")
      outcome = perfbench::run_batch_isolated(args);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 3;
  }

  // Exactly the catalogue's metrics: a layer the workload never called
  // reports 0.
  const std::vector<perfbench::MetricSpec>& wanted =
      args.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  perfbench::Outcome printed = outcome;
  printed.metrics.clear();
  for (const perfbench::MetricSpec& m : wanted) {
    const auto it = outcome.metrics.find(m.name);
    printed.set(m.name, it == outcome.metrics.end() ? 0 : it->second.first, m.unit);
  }
  for (const std::string& why : outcome.failures)
    std::printf("# failure: %s\n", why.c_str());
  std::printf("%s\n", perfbench::result_line(printed).c_str());
  return 0;
}
