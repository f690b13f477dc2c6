// Boards, relabelings, jobs and exact values for the benchmark workloads.
//
// Everything here is a pure function of its seed arguments, so one
// workload seed always yields the same boards, the same relabelings and
// the same request stream (checked by tests/selftest.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace perfbench {

/// A board plus, for the weighted solvers, one weight per vertex.
struct Board {
  std::string name;
  defender::graph::Graph graph;
  std::vector<double> weights;  // empty for unweighted solvers
};

/// The weight rule of the weighted rungs and classes: 1 + (v mod 7) / 4 on
/// the board's own labels, so a relabeling carries each weight with its
/// vertex.
std::vector<double> default_weights(std::size_t n);

/// A uniformly random relabeling of `board` (weights move with vertices).
Board relabel(const Board& board, defender::util::Rng& rng);

/// A job for `solver` on `board` with k edges per tuple and one attacker.
/// `iters` is the per-attempt iteration budget (the Hedge horizon, the FP
/// round count); 0 means unbounded.
defender::engine::SolveJob make_job(const Board& board, std::size_t k,
                                    defender::engine::JobSolver solver,
                                    double tolerance, std::size_t iters);

/// Reference value of a job's game, computed outside any timed window:
/// 2k/n when the board has a perfect matching and the solver is
/// unweighted; otherwise a double-oracle solve of the game, cross-checked
/// against the exact zero-sum LP when E^k has at most kLpCrossCheckTuples
/// tuples. Throws std::runtime_error when the two references disagree or a
/// reference solve does not finish kOk.
inline constexpr std::uint64_t kLpCrossCheckTuples = 1500;
double exact_value(const defender::engine::SolveJob& job);

/// Tolerance of the correctness gate on values and brackets.
inline constexpr double kValueSlack = 1e-6;

/// Checks one result against its exact value. Exact solvers (double
/// oracle, zero-sum LP) must hit the value; learning dynamics (FP, Hedge)
/// must return a bracket that contains it. Returns an empty string when
/// the result passes, else the reason it fails.
std::string gate(const defender::engine::JobResult& result, double exact);
std::string gate(defender::engine::JobSolver solver, const std::string& status,
                 double value, double lower, double upper, double exact);

// ---- do-ladder ------------------------------------------------------------

/// The four rungs: grid 8x8, grid 12x12, Barabasi-Albert n=120 attach 2
/// (fixed generator seed) with the double oracle, and grid 10x10 with the
/// weighted double oracle. Unrelabeled; the workload relabels per pass.
struct Rung {
  std::string name;  // "grid8", "grid12", "ba120", "wgrid10"
  Board board;
  defender::engine::JobSolver solver;
};
std::vector<Rung> ladder_rungs();
inline constexpr std::size_t kLadderK = 3;
inline constexpr double kLadderTolerance = 1e-9;

// ---- serve-zipf -----------------------------------------------------------

/// One isomorphism class of the serve workload's request population: a
/// board (on its own labels), k and solver. Class identity is a pure
/// function of its Zipf rank, independent of the workload seed; the seed
/// only picks which ranks are drawn and how each request is relabeled.
struct ServeClass {
  std::uint64_t rank = 0;
  Board board;
  std::size_t k = 2;
  defender::engine::JobSolver solver = defender::engine::JobSolver::kDoubleOracle;
};
ServeClass serve_class(std::uint64_t rank);
/// Hedge round horizon of serve requests (Hedge needs `iters`).
inline constexpr std::size_t kServeHedgeHorizon = 64;

/// One solve request line exactly as defender_serve parses it (no
/// trailing newline). Hedge requests carry `iters` and no weights.
std::string solve_request_line(const ServeClass& cls, const Board& relabeled,
                               const std::string& id,
                               const std::string& client);

/// One request of the open-loop stream: its class, due time from the
/// start of its phase, and the line to send.
struct TimedRequest {
  std::uint64_t rank = 0;
  double offset_ms = 0;
  std::string line;
};

/// The seeded request stream: Poisson arrivals, Zipf(exponent) class ranks
/// over `population` classes, and a fresh relabeling per request. Request
/// ids are "p<phase>.<seq>", unique across the run and across clients;
/// client ids cycle through `clients` names. The same seed yields the same
/// bytes for the same sequence of phase() calls.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, double exponent, std::uint64_t population,
                std::size_t clients);
  std::vector<TimedRequest> phase(double rate, double seconds);

 private:
  const ServeClass& class_of(std::uint64_t rank);

  defender::util::Rng rng_;
  std::map<std::uint64_t, ServeClass> classes_;
  double exponent_;
  std::uint64_t population_;
  std::size_t clients_;
  std::size_t next_phase_ = 0;
};

// ---- batch-isolated -------------------------------------------------------

/// One batch of pairwise non-isomorphic cold jobs: FP, weighted FP and
/// Hedge on boards of 20-36 vertices, the double oracle on boards of 36-64
/// vertices and the exact zero-sum LP on 13-vertex, 21-edge boards whose
/// E^k has 1330 tuples (k = 3; the LP's dense tableau grows with the
/// square of the tuple count, so 5k-tuple boards would cost a worker
/// hundreds of MiB). A pure function of (seed, batch). The FP round count
/// keeps those jobs above the pool's 0.25 s checkpoint-stream interval.
std::vector<defender::engine::SolveJob> isolated_batch(std::uint64_t seed,
                                                       std::size_t batch);
inline constexpr std::size_t kBatchRounds = 6;  // 5 jobs per round
inline constexpr std::size_t kFpRounds = 150000;
inline constexpr std::size_t kBatchHedgeHorizon = 40000;

}  // namespace perfbench
