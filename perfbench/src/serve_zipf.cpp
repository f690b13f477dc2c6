// serve-zipf: an open loop with Poisson arrivals against defender_serve.
//
// Why this workload: requests draw from a Zipf distribution over an
// effectively unbounded population of isomorphism classes and every
// request is a fresh relabeling, so most solves are cache hits found
// through canonicalization. Latency is set by parsing, admission and queue
// wait, canonicalization, cache lookup, first-sight misses that solve and
// store, and response rendering. LP work is small, so double-oracle
// optimisations should not move this workload.
//
// One sender (this thread) and one reader thread share one Unix-socket
// connection that carries many client ids; request ids are unique across
// clients because result lines carry only the id.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "boards.hpp"
#include "cache/cache.hpp"
#include "engine/engine.hpp"
#include "io/durable.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using defender::engine::JobSolver;
using defender::serve::JsonValue;

// ---- traffic shape --------------------------------------------------------

/// Zipf exponent over class ranks; ranks run to 2^40, effectively
/// unbounded, so first-sight misses never stop arriving.
constexpr double kZipfExponent = 1.6;
constexpr std::uint64_t kPopulation = std::uint64_t{1} << 40;
/// Classes the prepared store holds when the server starts. Ranks past
/// it carry about 1% of requests, so first-sight misses stay rare enough
/// that throughput and the p50s measure the hit path, while the per-layer
/// p99s still see them.
constexpr std::uint64_t kStoredClasses = 1000;
/// Client ids multiplexed over the one connection: 256 times the default
/// per-client cap of 8 in flight absorbs a 70 ms host stall at `high`
/// without refusals.
constexpr std::size_t kClients = 256;
/// Fixed rates (requests/s). `low` keeps the queue mostly empty. `high`
/// is about a quarter of the knee a quiet 4-vCPU host reaches (13-22k/s)
/// and half of the 6k/s seen while the host was contended; at 6000/s a
/// contended host put `high` at its knee.
constexpr double kLowRate = 300;
constexpr double kHighRate = 3000;
/// The ascending ladder: kLadderSteps rates kLadderGrowth apart from
/// kLadderStart, each held for an equal share of the ladder's time.
constexpr double kLadderStart = 2000;
constexpr double kLadderGrowth = 1.08;
constexpr std::size_t kLadderSteps = 34;
constexpr std::size_t kLadderRetries = 2;
/// The latency limit on p99, and the generator-lag limit past which an
/// open-loop phase measured the harness rather than the server.
constexpr double kSloMs = 25;
constexpr double kGenLagLimitMs = 20;
/// A missed or refused request counts as this latency.
constexpr double kMissMs = 1e9;
/// Requests of the `high` phase replayed in-process by the traced run.
constexpr std::size_t kModuleSample = 2000;
/// The end-to-end run's closed loop: requests kept in flight (more than
/// the server's two workers, so it never idles and the VM's wake-up
/// latency drops out), the pool of request lines it cycles through, and a
/// cap on its sends.
constexpr std::size_t kWindow = 32;
constexpr double kClosedPool = 8192;
constexpr std::size_t kClosedMaxSends = 600000;

// ---- the server process -------------------------------------------------

/// A spawned defender_serve, killed and reaped on destruction.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::string& socket_path,
                const std::string& store_path, const std::string& log_path) {
    // A queue deeper than the default 64 keeps a few milliseconds of VM
    // scheduling stall from turning into refusals, so the ladder's knee is
    // where the server runs out of CPU, not where the host hiccups.
    std::vector<std::string> argv_s = {bin,          "--unix",       socket_path,
                                       "--jobs",     "2",            "--cache",
                                       store_path,   "--queue-high", "4096",
                                       "--queue-low", "2048"};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      std::vector<char*> argv;
      for (std::string& a : argv_s) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~ServerProcess() { kill_and_reap(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Waits up to `seconds` for a clean exit; true when it exited 0.
  bool wait_exit(double seconds) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(static_cast<long>(seconds * 1000));
    while (pid_ > 0 && Clock::now() < deadline) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// One Unix-socket connection: whole-line writes from the sender, raw
/// reads from the reader thread (no shared buffers between the two).
class Connection {
 public:
  explicit Connection(const std::string& path, double timeout_s) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(static_cast<long>(timeout_s * 1000));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return;
      ::close(fd_);
      fd_ = -1;
      if (Clock::now() > deadline)
        throw std::runtime_error("server did not accept on " + path);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_line(const std::string& line) {
    std::string buf = line;
    buf += '\n';
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to server failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads the next line, waiting up to `timeout_ms`; nullopt on timeout,
  /// throws on disconnect. Only the reader side may call this.
  std::optional<std::string> read_line(int timeout_ms) {
    for (;;) {
      const std::size_t nl = rbuf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = rbuf_.substr(0, nl);
        rbuf_.erase(0, nl + 1);
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, timeout_ms);
      if (r == 0) return std::nullopt;
      if (r < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("poll failed");
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("server closed the connection");
      rbuf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string rbuf_;
};

// ---- requests and their records --------------------------------------------

/// Per-request timestamps, each written by exactly one thread: `due` and
/// `sent` by the sender, the rest by the reader. The phase's `sent_count`
/// (release/acquire) publishes the sender's writes to the reader, and its
/// `terminal` counter publishes the reader's writes back.
struct Record {
  Clock::time_point due, sent, ack, done;
  bool acked = false;
  bool ok = false;
  bool refused = false;  // an `overloaded` error
  std::string failure;
};

struct Phase {
  std::string name;
  std::size_t index = 0;  // the "p<index>." prefix of its request ids
  double rate = 0;
  /// When set, the reader records each request's spans as it completes.
  SpanLog* spans = nullptr;
  std::vector<TimedRequest> requests;
  std::vector<Record> records;
  std::atomic<std::size_t> sent_count{0};
  std::atomic<std::size_t> terminal{0};
  double achieved_rate = 0;
  std::vector<double> gen_lag_ms;
};

/// The non-solve responses (pong, metrics, shutdown) for the sender to
/// pick up.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> lines;
};

bool parse_id(const std::string& id, std::size_t* phase, std::size_t* seq) {
  if (id.size() < 4 || id[0] != 'p') return false;
  const std::size_t dot = id.find('.');
  if (dot == std::string::npos) return false;
  char* end = nullptr;
  *phase = std::strtoull(id.c_str() + 1, &end, 10);
  if (end != id.c_str() + dot) return false;
  *seq = std::strtoull(id.c_str() + dot + 1, &end, 10);
  return *end == '\0';
}

double number_of(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number : NAN;
}

std::string string_of(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string : "";
}

/// A request's spans: serve.request (due to result) with its children
/// serve.admit (send to ack) and serve.wait (ack to result).
void record_spans(SpanLog& spans, const std::string& id, const Record& rec) {
  const std::uint64_t root = spans.reserve();
  const std::string attrs = "{\"id\":\"" + id + "\"}";
  if (rec.acked) {
    spans.add("serve.admit", rec.sent, rec.ack, root, attrs);
    spans.add("serve.wait", rec.ack, rec.done, root, attrs);
  }
  spans.add("serve.request", rec.due, rec.done, 0, attrs, root);
}

/// The harness side of the run: request generation, exact values, the
/// prepared store and the live phases.
class ServeHarness {
 public:
  explicit ServeHarness(std::uint64_t seed)
      : stream_(seed, kZipfExponent, kPopulation, kClients) {}

  /// Generates one phase's requests at `rate` for `seconds` and makes
  /// sure every class they use has its exact value.
  std::unique_ptr<Phase> make_phase(const std::string& name, double rate,
                                    double seconds) {
    auto phase = std::make_unique<Phase>();
    phase->name = name;
    phase->index = next_phase_++;
    phase->rate = rate;
    phase->requests = stream_.phase(rate, seconds);
    for (const TimedRequest& r : phase->requests) (void)class_of(r.rank);
    phase->records.resize(phase->requests.size());
    return phase;
  }

  const ServeClass& class_of(std::uint64_t rank) {
    auto it = classes_.find(rank);
    if (it == classes_.end()) {
      ServeClass cls = serve_class(rank);
      const double exact = exact_value(make_job(cls.board, cls.k, cls.solver,
                                                request_tolerance(cls),
                                                request_iters(cls)));
      it = classes_.emplace(rank, std::make_pair(std::move(cls), exact)).first;
    }
    return it->second.first;
  }
  double exact_of(std::uint64_t rank) const { return classes_.at(rank).second; }

  static double request_tolerance(const ServeClass& c) {
    return c.solver == JobSolver::kHedge ? 0.0 : 1e-9;
  }
  static std::size_t request_iters(const ServeClass& c) {
    return c.solver == JobSolver::kHedge ? kServeHedgeHorizon : 0;
  }

  /// Solves the most popular classes in-process and persists them as the
  /// store every server spawn starts from. Untimed.
  void prepare_store(const std::string& path) {
    defender::cache::SolveCache cache;
    defender::engine::EngineConfig config;
    config.cache = &cache;
    config.workers = 2;
    defender::engine::SolveEngine engine(config);
    std::vector<defender::engine::SolveJob> jobs;
    for (std::uint64_t rank = 0; rank < kStoredClasses; ++rank) {
      const ServeClass& cls = class_of(rank);
      jobs.push_back(make_job(cls.board, cls.k, cls.solver,
                              request_tolerance(cls), request_iters(cls)));
    }
    (void)engine.run(jobs);
    const defender::Status saved = defender::cache::save_cache_file(path, cache);
    if (!saved.ok()) throw std::runtime_error("cannot save the store: " + saved.describe());
  }

  /// Reader loop: timestamps every line first, then matches it.
  void read_loop(Connection* conn, std::atomic<Phase*>* current,
                 std::atomic<bool>* stop, Mailbox* mail) {
    while (!stop->load()) {
      std::optional<std::string> line;
      try {
        line = conn->read_line(20);
      } catch (const std::exception&) {
        return;  // disconnect: the sender notices missing responses
      }
      if (!line.has_value()) continue;
      const Clock::time_point now = Clock::now();
      const defender::Solved<JsonValue> doc = defender::serve::parse_json(*line);
      const std::string type = doc.ok() ? string_of(doc.result.find("type")) : "";
      const std::string id = doc.ok() ? string_of(doc.result.find("id")) : "";
      std::size_t pi = 0, seq = 0;
      Phase* phase = current->load();
      if (type == "ack" || type == "result" || type == "error") {
        // A response that matches no request of the running phase is a
        // late one from a phase that already failed; drop it.
        if (phase == nullptr || !parse_id(id, &pi, &seq) || pi != phase->index ||
            seq >= phase->sent_count.load(std::memory_order_acquire))
          continue;
        Record& rec = phase->records[seq];
        if (type == "ack") {
          rec.ack = now;
          rec.acked = true;
          continue;
        }
        rec.done = now;
        if (type == "error") {
          const std::string status = string_of(doc.result.find("status"));
          rec.refused = status == "overloaded";
          rec.failure = "request " + id + " got error " + status + ": " +
                        string_of(doc.result.find("message"));
        } else {
          const JsonValue* r = doc.result.find("result");
          JobSolver solver = JobSolver::kDoubleOracle;
          defender::engine::try_parse_job_solver(string_of(r ? r->find("solver") : nullptr),
                                                 &solver);
          const std::string why =
              gate(solver, string_of(r ? r->find("status") : nullptr),
                   number_of(r ? r->find("value") : nullptr),
                   number_of(r ? r->find("lower") : nullptr),
                   number_of(r ? r->find("upper") : nullptr),
                   exact_of(phase->requests[seq % phase->requests.size()].rank));
          rec.ok = why.empty();
          if (!rec.ok) rec.failure = "request " + id + ": " + why;
        }
        if (phase->spans != nullptr) record_spans(*phase->spans, id, rec);
        phase->terminal.fetch_add(1, std::memory_order_release);
        phase->terminal.notify_one();
      } else {
        const std::lock_guard<std::mutex> lock(mail->mu);
        mail->lines.push_back(*line);
        mail->cv.notify_all();
      }
    }
  }

  /// Sends a phase on its schedule, then waits for every terminal response.
  /// Returns false when the responses did not all arrive in time.
  bool run_phase(Phase* phase, Connection* conn, std::atomic<Phase*>* current) {
    current->store(phase);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    Clock::time_point last_sent = start;
    for (std::size_t i = 0; i < phase->requests.size(); ++i) {
      Record& rec = phase->records[i];
      rec.due = start + std::chrono::nanoseconds(
                            static_cast<long long>(phase->requests[i].offset_ms * 1e6));
      std::this_thread::sleep_until(rec.due);
      rec.sent = Clock::now();
      phase->sent_count.store(i + 1, std::memory_order_release);
      conn->send_line(phase->requests[i].line);
      last_sent = rec.sent;
      phase->gen_lag_ms.push_back(ms_between(rec.due, rec.sent));
    }
    const double span_s = std::max(1e-3, ms_between(start, last_sent) / 1000.0);
    phase->achieved_rate = static_cast<double>(phase->requests.size()) / span_s;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (phase->terminal.load(std::memory_order_acquire) < phase->requests.size()) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  /// Closed loop: keeps `window` requests in flight for `seconds`,
  /// cycling through the phase's pre-generated requests with a fresh id per
  /// send, up to the phase's record capacity. Returns false when the last
  /// responses did not arrive in time.
  bool run_closed(Phase* phase, Connection* conn, std::atomic<Phase*>* current,
                  std::size_t window, double seconds) {
    current->store(phase);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
    std::size_t i = 0;
    for (; i < phase->records.size() && Clock::now() < end; ++i) {
      std::size_t done = phase->terminal.load(std::memory_order_acquire);
      while (i - done >= window) {
        phase->terminal.wait(done, std::memory_order_acquire);
        done = phase->terminal.load(std::memory_order_acquire);
      }
      Record& rec = phase->records[i];
      rec.due = rec.sent = Clock::now();
      phase->sent_count.store(i + 1, std::memory_order_release);
      const std::string& line = phase->requests[i % phase->requests.size()].line;
      const std::size_t a = line.find("\"id\":\"") + 6;
      conn->send_line(line.substr(0, a) + "p" + std::to_string(phase->index) + "." +
                      std::to_string(i) + line.substr(line.find('"', a)));
    }
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (phase->terminal.load(std::memory_order_acquire) < i) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    phase->achieved_rate = static_cast<double>(i) / (ms_between(start, Clock::now()) / 1000.0);
    phase->records.resize(i);
    return true;
  }

  /// Sends a control request and waits for the reply line of `type`.
  std::string control(Connection* conn, Mailbox* mail, const std::string& type,
                      double timeout_s) {
    const std::string id = "ctl" + std::to_string(next_ctl_++);
    conn->send_line("{\"type\":\"" + type + "\",\"id\":\"" + id +
                    "\",\"client\":\"bench\"}");
    std::unique_lock<std::mutex> lock(mail->mu);
    const auto until =
        Clock::now() + std::chrono::milliseconds(static_cast<long>(timeout_s * 1000));
    for (;;) {
      for (auto it = mail->lines.begin(); it != mail->lines.end(); ++it) {
        if (it->find("\"" + id + "\"") != std::string::npos) {
          std::string line = *it;
          mail->lines.erase(it);
          return line;
        }
      }
      if (mail->cv.wait_until(lock, until) == std::cv_status::timeout)
        throw std::runtime_error("no reply to " + type);
    }
  }

 private:
  RequestStream stream_;
  std::map<std::uint64_t, std::pair<ServeClass, double>> classes_;
  std::size_t next_phase_ = 0;
  std::size_t next_ctl_ = 0;
};

struct PhaseStats {
  std::vector<double> latency_ms;  // misses count as kMissMs
  std::vector<double> admit_ms;
  std::vector<double> ack_to_done_ms;
  std::size_t refused = 0;
  std::size_t failed = 0;
  std::size_t backlog_at_end = 0;
};

PhaseStats summarize(const Phase& phase) {
  PhaseStats s;
  Clock::time_point last_sent{};
  for (const Record& r : phase.records) last_sent = std::max(last_sent, r.sent);
  for (const Record& r : phase.records) {
    s.latency_ms.push_back(r.ok ? ms_between(r.due, r.done) : kMissMs);
    if (r.refused) ++s.refused;
    else if (!r.ok) ++s.failed;
    if (r.acked) {
      s.admit_ms.push_back(ms_between(r.sent, r.ack));
      if (r.ok) s.ack_to_done_ms.push_back(ms_between(r.ack, r.done));
    }
    if (r.done > last_sent) ++s.backlog_at_end;
  }
  return s;
}

/// A ladder step meets the limit when its p99 (misses included) is within
/// the SLO and the backlog left when sending stopped is no more than the
/// SLO's worth of arrivals.
bool meets_slo(const Phase& phase, const PhaseStats& s) {
  const double allowed_backlog = std::max(8.0, phase.rate * kSloMs / 1000.0);
  return percentile(s.latency_ms, 99) <= kSloMs &&
         static_cast<double>(s.backlog_at_end) <= allowed_backlog;
}

std::string fresh_copy(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(from, to, std::filesystem::copy_options::overwrite_existing);
  return to;
}

/// Reads counter `name` (or a histogram's count/sum) out of a metrics
/// response line; 0 when absent.
double metric_field(const JsonValue& metrics, const std::string& name,
                    const char* field) {
  const JsonValue* m = metrics.find(name);
  if (m == nullptr) return 0;
  if (m->kind == JsonValue::Kind::kNumber) return m->number;
  const double v = number_of(m->find(field));
  return std::isnan(v) ? 0 : v;
}

}  // namespace

Outcome run_serve_zipf(const RunArgs& args) {
  Outcome out;
  ServeHarness harness(args.seed);
  const std::string dir = args.run_dir;
  const std::string store = dir + "/store0";
  harness.prepare_store(store);
  SpanLog spans;

  // Phase plan. Both runs open with `low`. The end-to-end run then holds
  // kWindow requests in flight (`saturate`); the traced run adds a traced
  // twin of `low` (the reader records spans as responses arrive), `high`
  // and the ladder.
  const double S = args.seconds;
  const double low_s = 0.1 * S, high_s = 0.25 * S;
  const double step_s = (S - 2 * low_s - high_s) / kLadderSteps;
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(harness.make_phase("low", kLowRate, low_s));
  if (args.trace) {
    phases.push_back(harness.make_phase("low-traced", kLowRate, low_s));
    phases.back()->spans = &spans;
    phases.push_back(harness.make_phase("high", kHighRate, high_s));
  }
  std::unique_ptr<Phase> saturate;

  // setup_s: spawn, cache load and first pong, the median of nine spawns:
  // four before the run (the fourth serves it) and five after it, so the
  // samples span the run.
  std::vector<double> setup_ms;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Connection> conn;
  Mailbox mail;
  std::atomic<Phase*> current{nullptr};
  std::atomic<bool> stop{false};
  std::thread reader;
  const auto stop_reader = [&] {
    stop.store(true);
    if (reader.joinable()) reader.join();
    stop.store(false);
  };
  struct ReaderGuard {
    std::function<void()> fn;
    ~ReaderGuard() { fn(); }
  } guard{stop_reader};

  const auto spawn = [&] {
    stop_reader();
    conn.reset();
    server.reset();
    const std::string n = std::to_string(setup_ms.size());
    const std::string sock = dir + "/s" + n + ".sock";
    const std::string copy = fresh_copy(store, dir + "/store-copy" + n);
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerProcess>(args.serve_bin, sock, copy,
                                             dir + "/server" + n + ".log");
    conn = std::make_unique<Connection>(sock, 30);
    reader = std::thread([&] { harness.read_loop(conn.get(), &current, &stop, &mail); });
    (void)harness.control(conn.get(), &mail, "ping", 30);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  };
  for (int i = 0; i < 4; ++i) spawn();

  std::vector<double> gated_lag_ms;
  std::map<std::string, PhaseStats> stats;
  std::size_t sent = 0, refused = 0;
  // Runs one phase. Refusals in the gated phases (low, high) are failures;
  // on the ladder they are the overload response being measured and count
  // only as SLO misses. Wrong results and other errors fail everywhere.
  const auto run = [&](Phase* phase, bool gated) {
    if (!harness.run_phase(phase, conn.get(), &current))
      throw std::runtime_error("phase " + phase->name + " lost responses");
    if (gated) {
      // A late generator measured the harness, not the server.
      if (!open_loop_valid(phase->gen_lag_ms, kGenLagLimitMs))
        throw std::runtime_error("invalid run: generator lag p99 in phase " + phase->name +
                                 " exceeds " + std::to_string(kGenLagLimitMs) + " ms");
      gated_lag_ms.insert(gated_lag_ms.end(), phase->gen_lag_ms.begin(),
                          phase->gen_lag_ms.end());
    }
    PhaseStats s = summarize(*phase);
    for (const Record& r : phase->records) {
      if (gated || !r.refused) ++out.attempted;
      if (!r.ok && (gated || !r.refused)) out.fail(r.failure);
    }
    sent += phase->records.size();
    refused += s.refused;
    std::printf("# phase %s: rate %.1f/s sent %zu succeeded %zu refused %zu failed %zu "
                "p50 %.3f ms p99 %.3f ms\n",
                phase->name.c_str(), phase->achieved_rate, phase->records.size(),
                phase->records.size() - s.refused - s.failed, s.refused, s.failed,
                percentile(s.latency_ms, 50), percentile(s.latency_ms, 99));
    stats[phase->name] = std::move(s);
  };
  for (const auto& phase : phases) run(phase.get(), true);

  double max_rate = 0, rss = 0;
  if (!args.trace) {
    // Request lines the closed loop cycles through (fresh ids per send).
    saturate = harness.make_phase("saturate", kClosedPool, 1.0);
    saturate->records.resize(kClosedMaxSends);
    if (!harness.run_closed(saturate.get(), conn.get(), &current, kWindow, S - low_s))
      throw std::runtime_error("phase saturate lost responses");
    const PhaseStats s = summarize(*saturate);
    out.attempted += saturate->records.size();
    for (const Record& r : saturate->records)
      if (!r.ok) out.fail(r.failure);
    std::printf("# phase saturate: %zu in flight, %.1f/s sent %zu succeeded %zu failed %zu "
                "p50 %.3f ms p99 %.3f ms\n",
                kWindow, saturate->achieved_rate, saturate->records.size(),
                saturate->records.size() - s.refused - s.failed, s.refused + s.failed,
                percentile(s.latency_ms, 50), percentile(s.latency_ms, 99));
    stats["saturate"] = s;
    // The server's high-water mark after the bulk of the run's requests, so
    // memory that grows per request or per stored class shows. The closed
    // loop keeps at most kWindow responses pending, so a host stall cannot
    // pile a backlog into the server's buffers.
    rss = peak_rss_mib(server->pid());
  } else {
    // The ladder: fixed ascending rates until a step misses the limit. A
    // missed step is run up to kLadderRetries more times at the same rate
    // before the ladder ends, so a host stall cannot end it early.
    std::size_t step_misses = 0;
    for (std::size_t i = 0; i < kLadderSteps;) {
      const double rate = kLadderStart * std::pow(kLadderGrowth, static_cast<double>(i));
      std::unique_ptr<Phase> step = harness.make_phase(
          "ladder" + std::to_string(i) +
              (step_misses > 0 ? "-retry" + std::to_string(step_misses) : ""),
          rate, step_s);
      run(step.get(), false);
      // Past the knee the generator shares the starved CPU; a step it
      // could not send on time does not pass either.
      if (meets_slo(*step, stats[step->name]) &&
          open_loop_valid(step->gen_lag_ms, kGenLagLimitMs)) {
        max_rate = step->achieved_rate;
        step_misses = 0;
        ++i;
      } else if (++step_misses > kLadderRetries) {
        break;
      }
    }
    std::printf("# ladder: max rate at SLO %.1f/s\n", max_rate);
  }

  // Server-side counters, then a clean shutdown (which saves the store).
  const std::string metrics_line = harness.control(conn.get(), &mail, "metrics", 10);
  (void)harness.control(conn.get(), &mail, "shutdown", 10);
  stop_reader();
  conn.reset();
  if (!server->wait_exit(30)) out.fail("server did not shut down cleanly");
  for (int i = 0; i < 5; ++i) spawn();
  stop_reader();
  conn.reset();
  server.reset();

  // Per-second percentile, median over the seconds: one host stall spoils
  // one second, not the phase.
  const auto windowed = [&](const Phase& phase, double q) {
    std::vector<double> at_s;
    for (const Record& r : phase.records)
      at_s.push_back(std::chrono::duration<double>(r.due - phase.records.front().due).count());
    return windowed_percentile(stats[phase.name].latency_ms, at_s, 1.0, q);
  };
  // The server's cache counters: the hit ratio the Zipf exponent and the
  // prepared store give (see the README on why they were chosen).
  const defender::Solved<JsonValue> metrics_doc = defender::serve::parse_json(metrics_line);
  const JsonValue* registry = metrics_doc.ok() ? metrics_doc.result.find("metrics") : nullptr;
  const JsonValue* counters = registry ? registry->find("counters") : nullptr;
  const double hits = counters ? metric_field(*counters, "cache.hits", "") : 0;
  const double misses = counters ? metric_field(*counters, "cache.misses", "") : 0;
  const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
  std::printf("# server cache: hits %.0f misses %.0f hit ratio %.4f\n", hits, misses,
              hit_ratio);
  if (!args.trace) {
    out.set("setup_s", median(setup_ms) / 1000.0, "s");
    out.set("ok_ratio", out.ok_ratio(), "ratio");
    out.set("throughput_per_s", saturate->achieved_rate, "1/s");
    out.set("peak_rss_mb", rss, "MiB");
    return out;
  }

  // ---- traced run: per-layer numbers ----
  const PhaseStats& low = stats["low"];
  const PhaseStats& high = stats["high"];
  out.set("serve.latency_ms.p50.low", percentile(low.latency_ms, 50), "ms");
  out.set("serve.latency_ms.p99.low", tail(low.latency_ms, 99), "ms");
  out.set("serve.latency_ms.p50.high", windowed(*phases.back(), 50), "ms");
  out.set("serve.latency_ms.p99.high", tail(high.latency_ms, 99), "ms");
  out.set("serve.max_rate_at_slo_per_s", max_rate, "1/s");
  out.set("harness.trace_overhead_ratio",
          percentile(stats["low-traced"].latency_ms, 50) / percentile(low.latency_ms, 50),
          "ratio");
  out.set("harness.gen_lag_ms.p99", tail(gated_lag_ms, 99), "ms");
  out.set("serve.admit_ms.p99", tail(high.admit_ms, 99), "ms");
  out.set("serve.rejected_ratio", static_cast<double>(refused) / static_cast<double>(sent),
          "ratio");

  // The response carries no attempt time, so queue wait is ack-to-result
  // minus the server's mean job time (its serve.job_ms histogram).
  const JsonValue* histograms = registry ? registry->find("histograms") : nullptr;
  const double job_count = histograms ? metric_field(*histograms, "serve.job_ms", "count") : 0;
  const double job_sum = histograms ? metric_field(*histograms, "serve.job_ms", "sum") : 0;
  const double mean_job_ms = job_count > 0 ? job_sum / job_count : 0;
  std::vector<double> wait_ms;
  for (const double d : high.ack_to_done_ms) wait_ms.push_back(std::max(0.0, d - mean_job_ms));
  if (!wait_ms.empty()) {
    out.set("serve.queue_wait_ms.p50", percentile(wait_ms, 50), "ms");
    out.set("serve.queue_wait_ms.p99", tail(wait_ms, 99), "ms");
  }
  out.set("cache.hit_ratio", hit_ratio, "ratio");

  // Module timings from outside: harness spans around in-process calls of
  // the serving path's public functions, on the `high` phase's requests.
  defender::cache::SolveCache cache;
  defender::io::LoadReport load_report;
  const Clock::time_point l0 = Clock::now();
  const defender::Status loaded = defender::cache::load_cache_file(store, &cache, &load_report);
  const Clock::time_point l1 = Clock::now();
  if (!loaded.ok()) throw std::runtime_error("cannot load the store: " + loaded.describe());
  spans.add("io.load_cache_file", l0, l1);
  out.set("io.cache_load_ms", ms_between(l0, l1), "ms");
  out.set("io.cache_bytes", static_cast<double>(std::filesystem::file_size(store)), "bytes");
  const Clock::time_point s0 = Clock::now();
  const defender::Status saved = defender::cache::save_cache_file(dir + "/save-probe", cache);
  const Clock::time_point s1 = Clock::now();
  if (!saved.ok()) throw std::runtime_error("cannot save the store: " + saved.describe());
  spans.add("io.save_cache_file", s0, s1);
  out.set("io.cache_save_ms", ms_between(s0, s1), "ms");

  defender::engine::EngineConfig config;
  config.cache = &cache;
  const defender::engine::SolveEngine engine(config);
  defender::cache::SolveCache stored;
  std::vector<double> parse_us, to_job_us, canon_us, lookup_us, store_us, run_ms, render_us;
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  const std::vector<TimedRequest>& sample = phases.back()->requests;
  for (std::size_t i = 0; i < std::min<std::size_t>(sample.size(), kModuleSample); ++i) {
    const std::uint64_t root = spans.reserve();
    const Clock::time_point t0 = Clock::now();
    const defender::Solved<defender::serve::Request> req =
        defender::serve::try_parse_request(sample[i].line);
    const Clock::time_point t1 = Clock::now();
    std::optional<defender::engine::SolveJob> job;
    const defender::Status built = req.ok() ? defender::serve::to_job(req.result, &job)
                                            : req.status;
    const Clock::time_point t2 = Clock::now();
    if (!built.ok() || !job.has_value()) {
      out.fail("request " + std::to_string(i) + " does not parse in-process");
      continue;
    }
    const defender::engine::CanonicalJobKey key = defender::engine::canonical_key_for_job(*job);
    const Clock::time_point t3 = Clock::now();
    const std::optional<defender::cache::CachedSolve> hit = cache.lookup(key.key);
    const Clock::time_point t4 = Clock::now();
    Clock::time_point t5 = t4;
    if (hit.has_value()) {
      stored.store(key.key, *hit);
      t5 = Clock::now();
      store_us.push_back(us(t4, t5));
      spans.add("cache.store", t4, t5, root);
    }
    const Clock::time_point t6 = Clock::now();
    const defender::engine::JobResult result = engine.run_one(*job, i, {});
    const Clock::time_point t7 = Clock::now();
    const std::string line = defender::serve::result_response(req.result.id, result);
    const Clock::time_point t8 = Clock::now();
    parse_us.push_back(us(t0, t1));
    to_job_us.push_back(us(t1, t2));
    canon_us.push_back(us(t2, t3));
    lookup_us.push_back(us(t3, t4));
    run_ms.push_back(ms_between(t6, t7));
    render_us.push_back(us(t7, t8));
    spans.add("serve.try_parse_request", t0, t1, root);
    spans.add("serve.to_job", t1, t2, root);
    spans.add("engine.canonical_key_for_job", t2, t3, root);
    spans.add("cache.lookup", t3, t4, root);
    spans.add("engine.run_one", t6, t7, root);
    spans.add("serve.result_response", t7, t8, root);
    spans.add("harness.module_probe", t0, t8, 0, "{}", root);
    const std::string why = gate(result, harness.exact_of(sample[i].rank));
    ++out.attempted;
    if (!why.empty()) out.fail("in-process request " + std::to_string(i) + ": " + why);
    (void)line;
  }
  out.set("serve.parse_us.p50", percentile(parse_us, 50), "us");
  out.set("serve.to_job_us.p50", percentile(to_job_us, 50), "us");
  out.set("cache.canonicalize_us.p50", percentile(canon_us, 50), "us");
  out.set("cache.canonicalize_us.p99", tail(canon_us, 99), "us");
  out.set("cache.lookup_us.p50", percentile(lookup_us, 50), "us");
  if (!store_us.empty()) out.set("cache.store_us.p50", percentile(store_us, 50), "us");
  out.set("engine.run_one_ms.p50", percentile(run_ms, 50), "ms");
  out.set("serve.render_us.p50", percentile(render_us, 50), "us");

  if (!spans.write(dir + "/spans.jsonl")) out.fail("cannot write the span file");
  return out;
}

}  // namespace perfbench
