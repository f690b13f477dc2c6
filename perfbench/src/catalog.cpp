#include "boards.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"ok_ratio", "ratio"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> out;
    for (const Rung& rung : ladder_rungs()) {
      const std::string& r = rung.name;
      out.insert(out.end(), {{"do_ms." + r, "ms"},
                             {"core.do.iterations." + r, "count"},
                             {"core.oracle.calls." + r, "count"},
                             {"core.oracle.nodes." + r, "count"},
                             {"core.do.self_ms." + r, "ms"},
                             {"lp.solves." + r, "count"},
                             {"lp.pivots." + r, "count"},
                             {"lp.solve_ms." + r, "ms"},
                             {"lp.share." + r, "ratio"}});
    }
    out.insert(out.end(), {
        {"lp.exact_ms.p50", "ms"},
        {"serve.latency_ms.p50.low", "ms"},
        {"serve.latency_ms.p99.low", "ms"},
        {"serve.latency_ms.p50.high", "ms"},
        {"serve.latency_ms.p99.high", "ms"},
        {"serve.max_rate_at_slo_per_s", "1/s"},
        {"serve.parse_us.p50", "us"},
        {"serve.to_job_us.p50", "us"},
        {"serve.render_us.p50", "us"},
        {"serve.admit_ms.p99", "ms"},
        {"serve.queue_wait_ms.p50", "ms"},
        {"serve.queue_wait_ms.p99", "ms"},
        {"serve.rejected_ratio", "ratio"},
        {"cache.canonicalize_us.p50", "us"},
        {"cache.canonicalize_us.p99", "us"},
        {"cache.lookup_us.p50", "us"},
        {"cache.store_us.p50", "us"},
        {"cache.hit_ratio", "ratio"},
        {"io.cache_load_ms", "ms"},
        {"io.cache_save_ms", "ms"},
        {"io.cache_bytes", "bytes"},
        {"engine.run_one_ms.p50", "ms"},
        {"engine.attempts_per_job", "count"},
        {"sim.fp_ms.p50", "ms"},
        {"sim.hedge_ms.p50", "ms"},
        {"sim.fp.rounds", "count"},
        {"supervise.spawn_ms", "ms"},
        {"supervise.frame_us.p50", "us"},
        {"supervise.idle_share", "ratio"},
        {"supervise.checkpoints_streamed", "count"},
        {"supervise.worker_restarts", "count"},
        {"harness.gen_lag_ms.p99", "ms"},
        {"harness.trace_overhead_ratio", "ratio"},
    });
    return out;
  }();
  return metrics;
}

}  // namespace perfbench
