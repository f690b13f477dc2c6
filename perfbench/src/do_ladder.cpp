// do-ladder: one caller solving four double-oracle rungs back to back.
//
// Why this workload: restricted-LP re-solves take most of a double-oracle
// solve's wall time, so the warm-started restricted master and pivot work
// show here, while serve, cache and supervise do no work at all. The
// weighted rung pins the weighted loop.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "boards.hpp"
#include "engine/engine.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using defender::engine::JobSolver;
using defender::engine::SolveEngine;
using defender::engine::SolveJob;

/// One pass's inputs as a caller holds them before solving: a fresh
/// seeded relabeling of every rung in the edge-list format defender_cli
/// reads, and the weights that moved with it.
struct PassInput {
  std::vector<std::string> edge_lists;
  std::vector<std::vector<double>> weights;
};

PassInput make_input(const std::vector<Rung>& rungs, defender::util::Rng& rng) {
  PassInput input;
  for (const Rung& rung : rungs) {
    Board board = relabel(rung.board, rng);
    input.edge_lists.push_back(defender::graph::to_edge_list(board.graph));
    input.weights.push_back(std::move(board.weights));
  }
  return input;
}

/// The caller's set-up before a pass: parse every board and build its job.
std::vector<SolveJob> build_jobs(const std::vector<Rung>& rungs, const PassInput& input) {
  std::vector<SolveJob> jobs;
  jobs.reserve(rungs.size());
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const Board board{rungs[r].name, defender::graph::parse_edge_list(input.edge_lists[r]),
                      input.weights[r]};
    jobs.push_back(make_job(board, kLadderK, rungs[r].solver, kLadderTolerance, 0));
  }
  return jobs;
}

struct RungCounters {
  double solves = 0, iterations = 0, oracle_calls = 0, oracle_nodes = 0;
  double lp_solves = 0, lp_pivots = 0, lp_ms = 0, do_ms = 0;
};

/// Reads one rung's solver counters out of its registry.
RungCounters read_counters(defender::obs::MetricsRegistry& m, bool weighted) {
  const std::string p = weighted ? "do.weighted" : "do";
  RungCounters c;
  c.solves = static_cast<double>(m.counter(p + ".solves").value());
  c.iterations = static_cast<double>(m.counter(p + ".iterations").value());
  c.do_ms = m.histogram(p + ".solve_ms").sum();
  c.oracle_calls = static_cast<double>(m.counter("oracle.calls").value());
  c.oracle_nodes = static_cast<double>(m.counter("oracle.nodes").value());
  c.lp_solves = static_cast<double>(m.counter("lp.solves").value());
  c.lp_pivots = static_cast<double>(m.counter("lp.pivots").value());
  c.lp_ms = m.histogram("lp.solve_ms").sum();
  return c;
}

}  // namespace

Outcome run_do_ladder(const RunArgs& args) {
  Outcome out;
  const std::vector<Rung> rungs = ladder_rungs();
  std::vector<double> exact;
  for (const Rung& rung : rungs)
    exact.push_back(exact_value(make_job(rung.board, kLadderK, rung.solver,
                                         kLadderTolerance, 0)));

  defender::util::Rng rng(args.seed);
  // Untimed warm-up pass: first-touch allocation and page faults.
  {
    const SolveEngine engine(defender::engine::EngineConfig{});
    const std::vector<SolveJob> jobs = build_jobs(rungs, make_input(rungs, rng));
    for (std::size_t i = 0; i < jobs.size(); ++i) (void)engine.run_serial(jobs[i], i);
  }

  // The traced run spends half its time untraced (the reference for the
  // trace overhead and the per-rung times) and half with metrics attached.
  const double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<std::unique_ptr<defender::obs::MetricsRegistry>> registries;
  for (std::size_t r = 0; r < rungs.size(); ++r)
    registries.push_back(std::make_unique<defender::obs::MetricsRegistry>());

  SpanLog spans;
  std::vector<std::vector<double>> rung_ms(rungs.size());
  std::vector<double> pass_ms, traced_pass_ms, gaps_ms, setup_ms;
  double busy_ms = 0;
  std::size_t solves = 0;

  const auto run_phase = [&](double seconds, bool traced,
                             std::vector<double>* passes) {
    std::vector<std::unique_ptr<SolveEngine>> engines;
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      defender::engine::EngineConfig config;
      if (traced) config.metrics = registries[r].get();
      engines.push_back(std::make_unique<SolveEngine>(config));
    }
    const Clock::time_point start = Clock::now();
    while (ms_between(start, Clock::now()) < seconds * 1000.0 ||
           passes->empty()) {
      const PassInput input = make_input(rungs, rng);
      const Clock::time_point setup_start = Clock::now();
      const std::vector<SolveJob> jobs = build_jobs(rungs, input);
      if (!traced) setup_ms.push_back(ms_between(setup_start, Clock::now()));
      double pass = 0;
      const Clock::time_point pass_start = Clock::now();
      Clock::time_point prev_end = pass_start;
      const std::uint64_t pass_id = args.trace ? spans.reserve() : 0;
      for (std::size_t r = 0; r < rungs.size(); ++r) {
        const Clock::time_point t0 = Clock::now();
        gaps_ms.push_back(ms_between(prev_end, t0));
        const defender::engine::JobResult result =
            engines[r]->run_serial(jobs[r], r);
        const Clock::time_point t1 = Clock::now();
        prev_end = t1;
        const double ms = ms_between(t0, t1);
        pass += ms;
        ++out.attempted;
        const std::string why = gate(result, exact[r]);
        if (!why.empty()) out.fail(rungs[r].name + ": " + why);
        if (!traced) {
          rung_ms[r].push_back(ms);
          busy_ms += ms;
          ++solves;
        }
        if (args.trace) {
          defender::util::JsonWriter a;
          a.str("rung", rungs[r].name);
          a.num("iterations", static_cast<std::uint64_t>(result.iterations));
          a.boolean("traced", traced);
          spans.add("engine.run_serial", t0, t1, pass_id, a.object());
        }
      }
      passes->push_back(pass);
      if (args.trace)
        spans.add("ladder.pass", pass_start, prev_end, 0, "{}", pass_id);
    }
  };

  run_phase(plain_seconds, false, &pass_ms);
  if (args.trace) run_phase(args.seconds - plain_seconds, true, &traced_pass_ms);

  if (!args.trace) {
    // The caller's set-up per pass (parse four boards, build their jobs),
    // one sample per untraced pass, median.
    out.set("setup_s", median(setup_ms) / 1000.0, "s");
    out.set("ok_ratio", out.ok_ratio(), "ratio");
    std::printf("# passes %zu: median %.1f ms, tail %.1f ms\n", pass_ms.size(),
                median(pass_ms), tail(pass_ms, 90));
    out.set("throughput_per_s", static_cast<double>(solves) / (busy_ms / 1000.0),
            "1/s");
    out.set("peak_rss_mb", peak_rss_mib(), "MiB");
    return out;
  }

  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const std::string& n = rungs[r].name;
    const RungCounters c =
        read_counters(*registries[r], rungs[r].solver == JobSolver::kWeightedDoubleOracle);
    const double per = std::max(1.0, c.solves);
    out.set("do_ms." + n, median(rung_ms[r]), "ms");
    out.set("core.do.iterations." + n, c.iterations / per, "count");
    out.set("core.oracle.calls." + n, c.oracle_calls / per, "count");
    out.set("core.oracle.nodes." + n, c.oracle_nodes / per, "count");
    out.set("core.do.self_ms." + n, (c.do_ms - c.lp_ms) / per, "ms");
    out.set("lp.solves." + n, c.lp_solves / per, "count");
    out.set("lp.pivots." + n, c.lp_pivots / per, "count");
    out.set("lp.solve_ms." + n, c.lp_ms / per, "ms");
    out.set("lp.share." + n, c.do_ms > 0 ? c.lp_ms / c.do_ms : 0, "ratio");
  }
  out.set("harness.gen_lag_ms.p99", tail(gaps_ms, 99), "ms");
  out.set("harness.trace_overhead_ratio",
          median(traced_pass_ms) / median(pass_ms), "ratio");
  if (!spans.write(args.run_dir + "/spans.jsonl"))
    out.fail("cannot write the span file");
  return out;
}

}  // namespace perfbench
