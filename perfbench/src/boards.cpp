#include "boards.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

#include "cache/canonical.hpp"
#include "core/double_oracle.hpp"
#include "core/game.hpp"
#include "core/perfect_matching_ne.hpp"
#include "core/zero_sum.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "stats.hpp"
#include "util/json_writer.hpp"

namespace perfbench {

using defender::engine::JobSolver;
namespace graph = defender::graph;
namespace util = defender::util;

std::vector<double> default_weights(std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t v = 0; v < n; ++v)
    w[v] = 1.0 + static_cast<double>(v % 7) / 4.0;
  return w;
}

Board relabel(const Board& board, util::Rng& rng) {
  const std::size_t n = board.graph.num_vertices();
  std::vector<graph::Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), graph::Vertex{0});
  util::shuffle(perm, rng);
  Board out;
  out.name = board.name;
  out.graph = graph::permute(board.graph, perm);
  if (!board.weights.empty()) {
    out.weights.resize(n);
    for (std::size_t v = 0; v < n; ++v) out.weights[perm[v]] = board.weights[v];
  }
  return out;
}

defender::engine::SolveJob make_job(const Board& board, std::size_t k,
                                    JobSolver solver, double tolerance,
                                    std::size_t iters) {
  defender::engine::SolveJob job(defender::core::TupleGame(board.graph, k, 1));
  job.solver = solver;
  job.tolerance = tolerance;
  job.budget.max_iterations = iters;
  if (defender::engine::is_weighted(solver)) {
    job.weights = board.weights.empty()
                      ? default_weights(board.graph.num_vertices())
                      : board.weights;
  }
  return job;
}

double exact_value(const defender::engine::SolveJob& job) {
  const defender::core::TupleGame& game = job.game;
  const bool weighted = defender::engine::is_weighted(job.solver);
  const std::size_t n = game.graph().num_vertices();
  if (!weighted && 2 * game.k() <= n &&
      defender::core::has_perfect_matching(game.graph()))
    return 2.0 * static_cast<double>(game.k()) / static_cast<double>(n);

  defender::SolveBudget unlimited;
  const auto solved =
      weighted ? defender::core::solve_weighted_double_oracle_budgeted(
                     game, job.weights, 1e-10, unlimited)
               : defender::core::solve_double_oracle_budgeted(game, 1e-10,
                                                              unlimited);
  if (!solved.ok())
    throw std::runtime_error("reference double oracle did not finish ok: " +
                             solved.status.describe());
  const double value = solved.result.value;
  if (!weighted && game.num_tuples() <= kLpCrossCheckTuples) {
    const auto lp = defender::core::solve_zero_sum_budgeted(
        game, unlimited, kLpCrossCheckTuples);
    if (!lp.ok() || std::fabs(lp.result.value - value) > kValueSlack)
      throw std::runtime_error("reference double oracle and zero-sum LP "
                               "disagree");
  }
  return value;
}

std::string gate(JobSolver solver, const std::string& status, double value,
                 double lower, double upper, double exact) {
  if (status != "ok") return "status " + status;
  const bool dynamics = solver == JobSolver::kFictitiousPlay ||
                        solver == JobSolver::kWeightedFictitiousPlay ||
                        solver == JobSolver::kHedge;
  if (dynamics) {
    if (lower > exact + kValueSlack || upper < exact - kValueSlack)
      return "bracket [" + util::json_number(lower) + ", " +
             util::json_number(upper) + "] excludes exact value " +
             util::json_number(exact);
    return "";
  }
  if (std::fabs(value - exact) > kValueSlack)
    return "value " + util::json_number(value) + " misses exact value " +
           util::json_number(exact);
  return "";
}

std::string gate(const defender::engine::JobResult& result, double exact) {
  return gate(result.solver, defender::to_string(result.status.code),
              result.value, result.lower_bound, result.upper_bound, exact);
}

// ---- do-ladder ------------------------------------------------------------

std::vector<Rung> ladder_rungs() {
  util::Rng ba_rng(120);
  std::vector<Rung> rungs;
  rungs.push_back({"grid8", {"grid8", graph::grid_graph(8, 8), {}},
                   JobSolver::kDoubleOracle});
  rungs.push_back({"grid12", {"grid12", graph::grid_graph(12, 12), {}},
                   JobSolver::kDoubleOracle});
  rungs.push_back({"ba120", {"ba120", graph::barabasi_albert(120, 2, ba_rng), {}},
                   JobSolver::kDoubleOracle});
  rungs.push_back({"wgrid10",
                   {"wgrid10", graph::grid_graph(10, 10), default_weights(100)},
                   JobSolver::kWeightedDoubleOracle});
  return rungs;
}

// ---- serve-zipf -----------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t x) {
  util::SplitMix64 sm(x);
  return sm.next();
}

/// The named boards of the serve population, in a fixed order.
std::vector<Board> named_boards() {
  std::vector<Board> b;
  const auto grid = [&](std::size_t r, std::size_t c) {
    b.push_back({"grid" + std::to_string(r) + "x" + std::to_string(c),
                 graph::grid_graph(r, c), {}});
  };
  const auto ladder = [&](std::size_t rungs) {
    b.push_back({"ladder" + std::to_string(rungs), graph::ladder_graph(rungs),
                 {}});
  };
  grid(3, 4); grid(4, 4); grid(4, 5); grid(4, 6); grid(5, 6); grid(6, 6);
  grid(4, 8); grid(5, 8); grid(6, 7); grid(6, 8);
  ladder(6); ladder(9); ladder(12); ladder(16); ladder(20); ladder(24);
  b.push_back({"petersen", graph::petersen_graph(), {}});
  b.push_back({"q4", graph::hypercube_graph(4), {}});
  b.push_back({"q5", graph::hypercube_graph(5), {}});
  return b;
}

constexpr JobSolver kServeSolvers[] = {JobSolver::kDoubleOracle,
                                       JobSolver::kWeightedDoubleOracle,
                                       JobSolver::kHedge};

/// Named classes (board x k x solver), in a fixed shuffled order so the
/// most popular ranks mix families, sizes and solvers.
const std::vector<ServeClass>& named_classes() {
  static const std::vector<ServeClass> classes = [] {
    std::vector<ServeClass> out;
    for (const Board& board : named_boards())
      for (std::size_t k = 2; k <= 3; ++k)
        for (const JobSolver solver : kServeSolvers) {
          ServeClass c;
          c.board = board;
          c.k = k;
          c.solver = solver;
          if (defender::engine::is_weighted(solver))
            c.board.weights = default_weights(board.graph.num_vertices());
          out.push_back(std::move(c));
        }
    util::Rng order(0x5e12e);
    util::shuffle(out, order);
    return out;
  }();
  return classes;
}

}  // namespace

ServeClass serve_class(std::uint64_t rank) {
  const std::vector<ServeClass>& named = named_classes();
  if (rank < named.size()) {
    ServeClass c = named[rank];
    c.rank = rank;
    return c;
  }
  // Beyond the named classes: seeded random boards of 10-48 vertices.
  // Unweighted double-oracle classes stay at 10-24 vertices: on larger
  // random boards one first-sight solve runs for tens of milliseconds of
  // LP re-solves, which would make this workload's tail a lottery over
  // which rare classes a seed draws instead of a measure of the serving
  // path.
  const std::uint64_t h = mix(rank);
  util::Rng rng(h);
  ServeClass c;
  c.rank = rank;
  c.k = 2 + static_cast<std::size_t>((h >> 16) % 2);
  c.solver = kServeSolvers[(h >> 20) % 3];
  const std::size_t top = c.solver == JobSolver::kDoubleOracle ? 24 : 48;
  const std::size_t n = 10 + static_cast<std::size_t>((h >> 8) % (top - 9));
  switch ((h >> 4) % 3) {
    case 0:
      c.board = {"ba" + std::to_string(n), graph::barabasi_albert(n, 2, rng), {}};
      break;
    case 1:
      c.board = {"ws" + std::to_string(n), graph::watts_strogatz(n, 4, 0.2, rng),
                 {}};
      break;
    default:
      c.board = {"gnp" + std::to_string(n),
                 graph::gnp_graph(n, 4.0 / static_cast<double>(n), rng), {}};
      break;
  }
  if (defender::engine::is_weighted(c.solver))
    c.board.weights = default_weights(n);
  return c;
}

std::string solve_request_line(const ServeClass& cls, const Board& relabeled,
                               const std::string& id,
                               const std::string& client) {
  std::string edges = "[";
  for (const graph::Edge& e : relabeled.graph.edges()) {
    if (edges.size() > 1) edges += ',';
    edges += '[' + std::to_string(e.u) + ',' + std::to_string(e.v) + ']';
  }
  edges += ']';
  util::JsonWriter w;
  w.str("type", "solve");
  w.str("id", id);
  w.str("client", client);
  w.str("solver", defender::engine::to_string(cls.solver));
  w.num("n", static_cast<std::uint64_t>(relabeled.graph.num_vertices()));
  w.num("k", static_cast<std::uint64_t>(cls.k));
  w.num("attackers", std::uint64_t{1});
  w.raw("edges", edges);
  if (defender::engine::is_weighted(cls.solver)) {
    std::vector<std::string> ws;
    for (const double x : relabeled.weights) ws.push_back(util::json_number(x));
    w.raw("weights", util::JsonWriter::array(ws));
  }
  if (cls.solver == JobSolver::kHedge) {
    w.num("tolerance", 0.0);
    w.num("iters", static_cast<std::uint64_t>(kServeHedgeHorizon));
  } else {
    w.num("tolerance", 1e-9);
  }
  return w.object();
}

RequestStream::RequestStream(std::uint64_t seed, double exponent,
                             std::uint64_t population, std::size_t clients)
    : rng_(seed), exponent_(exponent), population_(population), clients_(clients) {}

const ServeClass& RequestStream::class_of(std::uint64_t rank) {
  auto it = classes_.find(rank);
  if (it == classes_.end()) it = classes_.emplace(rank, serve_class(rank)).first;
  return it->second;
}

std::vector<TimedRequest> RequestStream::phase(double rate, double seconds) {
  const ZipfSampler zipf(population_, exponent_);
  const std::size_t index = next_phase_++;
  std::vector<TimedRequest> out;
  double t = 0;
  for (std::size_t seq = 0;; ++seq) {
    t += -std::log(1.0 - rng_.uniform01()) / rate * 1000.0;
    if (t > seconds * 1000.0) break;
    TimedRequest r;
    r.rank = zipf(rng_) - 1;
    r.offset_ms = t;
    const ServeClass& cls = class_of(r.rank);
    r.line = solve_request_line(cls, relabel(cls.board, rng_),
                                "p" + std::to_string(index) + "." + std::to_string(seq),
                                "c" + std::to_string(seq % clients_));
    out.push_back(std::move(r));
  }
  return out;
}

// ---- batch-isolated -------------------------------------------------------

namespace {

/// A random board of `n` vertices from one of three families.
graph::Graph random_board(std::size_t n, std::size_t family, util::Rng& rng) {
  switch (family % 3) {
    case 0: return graph::barabasi_albert(n, 2, rng);
    case 1: return graph::watts_strogatz(n, 4, 0.3, rng);
    default: return graph::gnp_graph(n, 4.5 / static_cast<double>(n), rng);
  }
}

/// Draws boards of `n` vertices from `family` until one has a canonical
/// form not in `seen` (and, when asked, a perfect matching, so that the
/// job has the closed-form value 2k/n). Keeps the batch pairwise
/// non-isomorphic.
Board fresh_board(std::size_t n, std::size_t family, bool need_matching,
                  std::set<std::vector<graph::Edge>>* seen, util::Rng& rng) {
  for (;;) {
    graph::Graph g = random_board(n, family, rng);
    if (need_matching && !defender::core::has_perfect_matching(g)) continue;
    const defender::cache::CanonicalForm form =
        defender::cache::canonical_form(g);
    if (!seen->insert(form.edges).second) continue;
    return Board{"n" + std::to_string(n), std::move(g), {}};
  }
}

/// A connected board of `n` vertices and exactly `m` edges for the exact
/// LP (k = 3). One tableau size for every LP job keeps a long-lived
/// worker's peak memory from depending on the order in which differently
/// sized tableaus passed through its allocator.
Board lp_board(std::size_t n, std::size_t m,
               std::set<std::vector<graph::Edge>>* seen, util::Rng& rng) {
  for (;;) {
    graph::Graph g = graph::random_connected(n, 0.15, rng);
    if (g.num_edges() != m) continue;
    const defender::cache::CanonicalForm form =
        defender::cache::canonical_form(g);
    if (!seen->insert(form.edges).second) continue;
    return Board{"lp" + std::to_string(n), std::move(g), {}};
  }
}

}  // namespace

std::vector<defender::engine::SolveJob> isolated_batch(std::uint64_t seed,
                                                       std::size_t batch) {
  util::Rng rng(mix(seed ^ mix(0xba7c4 + batch)));
  std::set<std::vector<graph::Edge>> seen;
  // Every batch has the same size profile: slot r fixes each job's vertex
  // or edge count and generator family, and the seed picks the instances.
  // Longest jobs first (fictitious play, Hedge, the LP, then the double
  // oracle), so the pool's tail is short jobs and a batch's makespan tracks
  // its total work rather than one straggler.
  std::vector<defender::engine::SolveJob> fp, hedge, lp, dobs;
  for (std::size_t r = 0; r < kBatchRounds; ++r) {
    const std::size_t slot = r % 3;
    fp.push_back(make_job(fresh_board(20 + 8 * slot, slot + 1, true, &seen, rng), 2,
                          JobSolver::kFictitiousPlay, 0, kFpRounds));
    Board weighted = fresh_board(24 + 6 * slot, slot, false, &seen, rng);
    weighted.weights = default_weights(weighted.graph.num_vertices());
    fp.push_back(make_job(weighted, 2, JobSolver::kWeightedFictitiousPlay, 0, kFpRounds));
    hedge.push_back(make_job(fresh_board(22 + 6 * slot, slot + 2, true, &seen, rng), 2,
                             JobSolver::kHedge, 0, kBatchHedgeHorizon));
    lp.push_back(make_job(lp_board(13, 21, &seen, rng), 3, JobSolver::kZeroSumLp, 1e-9, 0));
    dobs.push_back(make_job(fresh_board(36 + 14 * slot, slot, true, &seen, rng), 3,
                            JobSolver::kDoubleOracle, 1e-9, 0));
  }
  std::vector<defender::engine::SolveJob> jobs;
  for (auto* group : {&fp, &hedge, &lp, &dobs})
    for (defender::engine::SolveJob& job : *group) jobs.push_back(std::move(job));
  return jobs;
}

}  // namespace perfbench
