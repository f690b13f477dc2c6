// batch-isolated: closed batches of cold jobs through worker processes.
//
// Why this workload: learning dynamics (sim), IPC framing and checkpoint
// streaming do most of the work here and nowhere else, and the exact
// zero-sum LP runs as a few pivots over very wide rows, the opposite of
// do-ladder's many small re-solves, so an LP change that helps one shape
// and hurts the other shows. Jobs go through supervise::WorkerPool with
// nproc - 1 = 3 worker processes, the path `defender_cli --isolate` takes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>

#include "boards.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/wire.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using defender::engine::JobResult;
using defender::engine::JobSolver;
using defender::engine::SolveJob;
namespace supervise = defender::supervise;

constexpr std::size_t kWorkers = 3;
/// Distinct batches a run cycles through; every run() of one is cold
/// because workers keep no cache.
constexpr std::size_t kDistinctBatches = 8;
constexpr std::size_t kReplayedBatches = 1;

supervise::PoolConfig pool_config(defender::obs::MetricsRegistry* metrics) {
  supervise::PoolConfig config;
  config.workers = kWorkers;
  config.metrics = metrics;
  return config;
}

/// Spawns a pool and waits until each worker has answered one job, so the
/// time covers fork, exec and the first frame round trip.
std::unique_ptr<supervise::WorkerPool> spawn_pool(
    defender::obs::MetricsRegistry* metrics, double* spawn_ms) {
  std::vector<SolveJob> warm;
  for (std::size_t i = 0; i < kWorkers; ++i)
    warm.push_back(make_job(Board{"p4", defender::graph::path_graph(4), {}}, 1,
                            JobSolver::kDoubleOracle, 1e-9, 0));
  const Clock::time_point t0 = Clock::now();
  auto pool = std::make_unique<supervise::WorkerPool>(pool_config(metrics));
  (void)pool->run(warm);
  *spawn_ms = ms_between(t0, Clock::now());
  return pool;
}

/// The largest worker's peak resident set: the footprint of the biggest
/// job plus a worker's baseline. (A sum over workers would depend on
/// which worker the scheduler happened to hand the big jobs.)
double workers_peak_rss_mib(const supervise::WorkerPool& pool) {
  double peak = 0;
  for (const pid_t pid : pool.worker_pids()) peak = std::max(peak, peak_rss_mib(pid));
  return peak;
}

double attempt_ms(const JobResult& r) {
  double s = 0;
  for (const auto& a : r.attempts) s += a.elapsed_seconds;
  return s * 1000.0;
}

/// One job and one result frame through the wire functions and the frame
/// reader, as the supervisor and a worker exchange them.
double frame_round_trip_us(const SolveJob& job, std::size_t index,
                           const JobResult& result,
                           const defender::engine::EngineConfig& config) {
  const Clock::time_point t0 = Clock::now();
  supervise::FrameReader reader;
  supervise::FrameReader::Frame frame;
  const std::string job_text = supervise::to_text(supervise::frame_from_job(job, index, config));
  const std::string job_bytes = supervise::make_frame(supervise::kJobFormat, job_text);
  reader.feed(job_bytes.data(), job_bytes.size());
  if (reader.next(&frame, nullptr) != supervise::FrameReader::Next::kFrame) return -1;
  const auto parsed = supervise::try_parse_job_frame(frame.payload);
  std::optional<SolveJob> rebuilt;
  if (!parsed.ok() || !supervise::job_from_frame(parsed.result, &rebuilt).ok()) return -1;
  supervise::ResultFrame rf;
  rf.job_index = index;
  rf.result = result;
  const std::string result_bytes =
      supervise::make_frame(supervise::kResultFormat, supervise::to_text(rf));
  reader.feed(result_bytes.data(), result_bytes.size());
  if (reader.next(&frame, nullptr) != supervise::FrameReader::Next::kFrame) return -1;
  if (!supervise::try_parse_result_frame(frame.payload).ok()) return -1;
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

Outcome run_batch_isolated(const RunArgs& args) {
  Outcome out;
  std::vector<std::vector<SolveJob>> batches;
  std::vector<std::vector<double>> exact;
  for (std::size_t b = 0; b < kDistinctBatches; ++b) {
    batches.push_back(isolated_batch(args.seed, b));
    exact.emplace_back();
    for (const SolveJob& job : batches.back()) exact.back().push_back(exact_value(job));
  }

  // setup_s: pool spawns, one for the pool that does the run and one more
  // after each untraced batch, so the samples span the whole run; median.
  std::vector<double> spawn_ms(1);
  std::unique_ptr<supervise::WorkerPool> pool = spawn_pool(nullptr, &spawn_ms[0]);

  SpanLog spans;
  struct Ran {
    std::size_t batch = 0;
    supervise::SupervisedReport report;
  };
  std::vector<Ran> ran;
  std::vector<double> makespan_ms, gaps_ms;
  std::size_t jobs_done = 0, traced_jobs = 0;
  double busy_ms = 0, traced_busy_ms = 0;
  std::size_t cycle = 0;

  const auto run_phase = [&](supervise::WorkerPool* p, double seconds, bool traced) {
    const Clock::time_point start = Clock::now();
    Clock::time_point prev_end = start;
    std::size_t done = 0;
    while (ms_between(start, Clock::now()) < seconds * 1000.0 || done == 0) {
      const std::size_t b = cycle++ % kDistinctBatches;
      const Clock::time_point t0 = Clock::now();
      gaps_ms.push_back(ms_between(prev_end, t0));
      supervise::SupervisedReport report = p->run(batches[b]);
      const Clock::time_point t1 = Clock::now();
      prev_end = t1;
      const double ms = ms_between(t0, t1);
      ++done;
      for (std::size_t i = 0; i < report.batch.results.size(); ++i) {
        ++out.attempted;
        const JobResult& r = report.batch.results[i];
        const std::string why = gate(r, exact[b][i]);
        if (!why.empty())
          out.fail("batch " + std::to_string(b) + " job " + std::to_string(i) + " (" +
                       defender::engine::to_string(r.solver) + "): " + why);
      }
      if (args.trace) {
        defender::util::JsonWriter a;
        a.num("batch", static_cast<std::uint64_t>(b));
        a.num("jobs", static_cast<std::uint64_t>(batches[b].size()));
        a.boolean("traced", traced);
        spans.add("supervise.run", t0, t1, 0, a.object());
      }
      if (traced) {
        traced_busy_ms += ms;
        traced_jobs += batches[b].size();
      } else {
        makespan_ms.push_back(ms);
        busy_ms += ms;
        jobs_done += batches[b].size();
        ran.push_back({b, std::move(report)});
        double spawn = 0;
        (void)spawn_pool(nullptr, &spawn);  // torn down at once, untimed
        spawn_ms.push_back(spawn);
        prev_end = Clock::now();  // the harness gap excludes the spawn
      }
    }
  };

  const double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
  run_phase(pool.get(), plain_seconds, false);
  const double rss = workers_peak_rss_mib(*pool);

  if (!args.trace) {
    out.set("setup_s", median(spawn_ms) / 1000.0, "s");
    out.set("ok_ratio", out.ok_ratio(), "ratio");
    std::printf("# batches %zu: median makespan %.1f ms\n", makespan_ms.size(),
                median(makespan_ms));
    out.set("throughput_per_s", static_cast<double>(jobs_done) / (busy_ms / 1000.0),
            "1/s");
    out.set("peak_rss_mb", rss, "MiB");
    return out;
  }

  // Traced half: a pool with the supervisor's metrics attached.
  pool.reset();
  defender::obs::MetricsRegistry registry;
  double traced_spawn_ms = 0;
  pool = spawn_pool(&registry, &traced_spawn_ms);
  run_phase(pool.get(), args.seconds - plain_seconds, true);
  pool.reset();

  // Per-job numbers from the attempt records of the untraced batches.
  std::vector<double> lp_ms, fp_ms, hedge_ms, all_ms;
  double fp_rounds = 0, fp_jobs = 0, attempts = 0, in_worker_ms = 0;
  std::size_t streamed = 0, restarts = 0, results = 0;
  for (const Ran& r : ran) {
    streamed += r.report.checkpoints_streamed;
    restarts += r.report.worker_restarts;
    for (const JobResult& j : r.report.batch.results) {
      const double ms = attempt_ms(j);
      all_ms.push_back(ms);
      in_worker_ms += ms;
      attempts += static_cast<double>(j.attempts.size());
      ++results;
      switch (j.solver) {
        case JobSolver::kZeroSumLp: lp_ms.push_back(ms); break;
        case JobSolver::kFictitiousPlay:
        case JobSolver::kWeightedFictitiousPlay:
          fp_ms.push_back(ms);
          fp_rounds += static_cast<double>(j.iterations);
          ++fp_jobs;
          break;
        case JobSolver::kHedge: hedge_ms.push_back(ms); break;
        default: break;
      }
    }
  }

  // The in-process replay: worker-process results must be bit-identical
  // to run_serial on the same job. One batch keeps the single-threaded
  // replay within a few seconds.
  const defender::engine::EngineConfig engine_config = pool_config(nullptr).engine;
  const defender::engine::SolveEngine engine(engine_config);
  std::vector<double> frame_us;
  for (std::size_t b = 0; b < kReplayedBatches; ++b) {
    const auto it = std::find_if(ran.begin(), ran.end(),
                                 [&](const Ran& r) { return r.batch == b; });
    if (it == ran.end()) continue;
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const JobResult serial = engine.run_serial(batches[b][i], i);
      const Clock::time_point t1 = Clock::now();
      const JobResult& isolated = it->report.batch.results[i];
      ++out.attempted;
      if (serial.to_json() != isolated.to_json())
        out.fail("batch " + std::to_string(b) + " job " + std::to_string(i) +
                     ": worker result differs from run_serial");
      defender::util::JsonWriter a;
      a.num("batch", static_cast<std::uint64_t>(b));
      a.num("job", static_cast<std::uint64_t>(i));
      a.str("solver", defender::engine::to_string(serial.solver));
      spans.add("engine.run_serial", t0, t1, 0, a.object());
      const double us = frame_round_trip_us(batches[b][i], i, isolated, engine_config);
      if (us < 0) out.fail("wire round trip failed");
      else frame_us.push_back(us);
    }
  }

  const double makespan_total = std::accumulate(makespan_ms.begin(), makespan_ms.end(), 0.0);
  const auto p50 = [](const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); };
  out.set("lp.exact_ms.p50", p50(lp_ms), "ms");
  out.set("sim.fp_ms.p50", p50(fp_ms), "ms");
  out.set("sim.hedge_ms.p50", p50(hedge_ms), "ms");
  out.set("sim.fp.rounds", fp_jobs > 0 ? fp_rounds / fp_jobs : 0, "count");
  out.set("engine.run_one_ms.p50", p50(all_ms), "ms");
  out.set("engine.attempts_per_job",
          results > 0 ? attempts / static_cast<double>(results) : 0, "count");
  out.set("supervise.spawn_ms", median(spawn_ms), "ms");
  out.set("supervise.frame_us.p50", p50(frame_us), "us");
  out.set("supervise.idle_share",
          1.0 - in_worker_ms / (static_cast<double>(kWorkers) * makespan_total), "ratio");
  out.set("supervise.checkpoints_streamed", static_cast<double>(streamed), "count");
  out.set("supervise.worker_restarts", static_cast<double>(restarts), "count");
  out.set("harness.gen_lag_ms.p99", tail(gaps_ms, 99), "ms");
  out.set("harness.trace_overhead_ratio",
          (traced_busy_ms / static_cast<double>(std::max<std::size_t>(1, traced_jobs))) /
              (busy_ms / static_cast<double>(std::max<std::size_t>(1, jobs_done))),
          "ratio");
  if (!spans.write(args.run_dir + "/spans.jsonl"))
    out.fail("cannot write the span file");
  return out;
}

}  // namespace perfbench
