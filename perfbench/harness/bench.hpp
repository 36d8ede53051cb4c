// Shared types of the serve benchmark harness.
//
// The harness runs one workload against the shipped `pooled_cli serve
// --listen` binary (a child process on loopback TCP) and prints one JSON
// result line. Its pieces:
//
//   workloads.cpp  workload shapes, seeded inputs (instances, frames,
//                  truth, in-process reference supports), job schedules
//   load.cpp       the server child process and the closed-loop clients
//   ledger.cpp     the traced replay: times calls into each layer's
//                  public functions, in pipeline order
//   main.cpp       argument parsing, the untraced and traced runs, and
//                  the result line
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/serialize.hpp"

namespace pooled {
class ThreadPool;
}

namespace perfbench {

/// One traffic mix. Every field is fixed by the workload name (and the
/// smoke flag); only the inputs depend on the seed.
struct Workload {
  std::string name;
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  std::uint32_t m = 0;
  std::string decoder;
  unsigned connections = 1;
  unsigned outstanding = 1;       ///< jobs in flight per connection
  std::size_t cache = 0;          ///< server --cache capacity (0 = off)
  std::size_t distinct = 0;       ///< instances the (non-hot) jobs cycle through
  std::size_t hot = 0;            ///< hot set size; half the jobs hit it
  std::size_t warmup_per_connection = 1;
  std::size_t replay_samples = 0; ///< jobs the traced ledger replays
};

/// The named workload ("mn-paper", "small-mixed", "adaptive-rounds");
/// throws std::invalid_argument for any other name. `smoke` shrinks
/// every size so a run takes about a second.
Workload make_workload(const std::string& name, bool smoke, unsigned cores);

/// Seeded inputs, built and serialized before anything is timed.
/// Instances [0, hot) are the hot set, the rest the cycled pool.
struct Inputs {
  std::vector<pooled::InstanceSpec> specs;
  std::vector<std::vector<std::uint32_t>> truth;
  /// Support of an in-process decode of each instance (the answer check).
  std::vector<std::vector<std::uint32_t>> reference;
  std::vector<std::string> frames;  ///< one `pooled-job v2` frame each
};

Inputs make_inputs(const Workload& workload, std::uint64_t seed,
                   pooled::ThreadPool& pool);

/// Which instance the i-th job of a run sends.
class Schedule {
 public:
  Schedule(const Workload& workload, std::uint64_t seed);
  [[nodiscard]] std::size_t instance(std::uint64_t job) const;
  /// Instances the c-th connection sends during the warm-up of set-up
  /// number `round` (each set-up warms up on different instances).
  [[nodiscard]] std::vector<std::size_t> warmup(unsigned connection,
                                                unsigned round) const;

 private:
  const Workload* workload_;
  std::uint64_t seed_;
  std::vector<std::size_t> order_;  ///< seeded permutation of the pool
};

/// One answered (or failed) job as the client saw it.
struct JobRecord {
  std::size_t instance = 0;
  double rtt_seconds = 0.0;    ///< frame written -> result frame read
  double frame_seconds = 0.0;  ///< the result frame's `seconds`
  bool ok = false;             ///< status ok and support == reference
  bool exact = false;          ///< support == truth
};

/// Client-side view of one load phase.
struct LoadResult {
  std::vector<JobRecord> jobs;  ///< measured jobs, any order
  std::size_t sent = 0;         ///< measured jobs written
  double wall_seconds = 0.0;    ///< first write -> last answer
  double cpu_seconds = 0.0;     ///< server utime+stime over the phase
  double rss_peak_mb = 0.0;     ///< server VmHWM after the phase
  double warmup_frame_seconds = 0.0;  ///< sum of warm-up frames' `seconds`
  double warmup_end = 0.0;  ///< now_seconds() once every warm-up answer is in
};

/// The server child process: `pooled_cli serve --listen 127.0.0.1:0`.
class Server {
 public:
  /// Spawns the server and waits for its readiness line. `trace_path`
  /// non-empty adds `--trace <path>`.
  Server(const std::string& cli, const Workload& workload,
         const std::string& trace_path);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  Server(Server&&) = delete;
  Server& operator=(Server&&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Server utime+stime so far, seconds.
  [[nodiscard]] double cpu_seconds() const;
  /// Server VmHWM, MiB.
  [[nodiscard]] double rss_peak_mb() const;
  /// SIGTERM (graceful drain) and wait; SIGKILL if it lingers.
  /// Idempotent.
  void stop();

 private:
  int pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string log_;
};

/// Opens the workload's connections and runs the warm-up jobs of set-up
/// `round` on them; returns when every warm-up answer is in. Then runs closed-loop load
/// for `seconds` on the same connections, half-closes them, and waits
/// for every answer.
LoadResult run_load(Server& server, const Workload& workload,
                    const Inputs& inputs, const Schedule& schedule,
                    unsigned round, double seconds);

/// Opens the connections and runs only the warm-up (set-up timing).
void run_warmup(Server& server, const Workload& workload, const Inputs& inputs,
                const Schedule& schedule, unsigned round);

/// Asks the server for a `pooled-stats` snapshot on a fresh connection
/// and returns the raw frame text.
std::string fetch_stats_frame(const Server& server);

/// Named metrics in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Per-layer numbers from the traced run (ledger.cpp). `correct` turns
/// false when the ledger fails its reconciliation check or the replayed
/// decode disagrees with the reference. Writes the replayed spans to
/// `run.ledger_path`.
struct LedgerResult {
  Metrics metrics;
  bool correct = true;
  std::string failure;
};

struct TracedRun {
  LoadResult plain;    ///< untraced phase
  LoadResult traced;   ///< traced phase (server --trace)
  std::string trace_path;   ///< the server's JSONL spans
  std::string ledger_path;  ///< where the replayed spans are written
  std::string stats_frame;
};

LedgerResult build_ledger(const Workload& workload, const Inputs& inputs,
                          const TracedRun& run,
                          pooled::ThreadPool& pool);

/// Linear-interpolation quantile (q in [0, 1]) of unsorted values; 0 for
/// an empty sample.
double quantile(std::vector<double> values, double q);

/// Seconds on the steady clock since an arbitrary epoch.
double now_seconds();

}  // namespace perfbench
