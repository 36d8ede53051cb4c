// Shard router: one client-side front end over N socket backends.
//
// `pooled_cli route --shard <addr> [--shard <addr> ...]` runs one of
// these: a thin client that fans v2 request frames out over N
// `SocketStream`s (one per `pooled_cli serve --listen` backend), tags
// every job with its stream-global index, and merges the result frames
// back in submission order -- the same per-connection index rebase the
// socket server does, mirrored to the client side.
//
// Routing: spec-backed jobs are routed by instance digest (rendezvous
// hashing over the currently-alive shards), so repeated decodes of one
// instance keep landing on one backend and that backend's result cache
// specializes. With affinity off (or no digest) jobs round-robin.
//
// Failure model (the self-stabilization contract): the router converges
// back to full capacity from any shard-failure state without operator
// action.
//   - A dead shard is detected two ways: its reader thread sees the
//     transport end (EOF/error -- distinguished from a `status error`
//     result frame, which is a *decode* failure and is delivered, not
//     retried), or the prober's blank-line liveness probe fails.
//   - The dead shard's in-flight jobs -- sent, not yet answered -- are
//     requeued and retried on surviving shards. Delivery is
//     exactly-once per submitted job: a job whose first result was
//     already merged is never re-emitted (late duplicates are dropped).
//   - The prober keeps re-dialing dead shards (Socket::try_dial, so a
//     blackholed shard costs a bounded wait, never a hang) and readmits
//     a shard on reconnect; traffic resumes to it immediately.
//   - While *no* shard is alive, jobs park; after
//     `all_dead_fail_seconds` of continuous full outage they fail with
//     `status error` so a caller is never wedged forever.
//   - drain_shard(i) takes a shard down *gracefully*: the shard is
//     parked (no new jobs route to it, but it is not "dead" -- its
//     in-flight jobs finish and merge normally, nothing is requeued,
//     and its planned exit is not counted as a loss), a `pooled-drain`
//     frame asks the backend to snapshot its cache and exit, and the
//     summary frame is returned. The readmission prober then re-dials
//     the parked address on its normal cadence, so a restarted shard
//     rejoins warm without operator action -- the rolling-restart
//     primitive.
//
// Observability: the route.* counters and the submit-to-merge latency
// histogram live in the router's own MetricsRegistry; a
// `pooled-stats` frame on the routed stream is answered with a fleet
// snapshot -- the router's own route.* metrics plus every live shard's
// snapshot, name-prefixed `shard<i>.`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/protocol.hpp"
#include "engine/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "support/thread_annotations.hpp"
#include "support/timer.hpp"

namespace pooled {

struct ShardRouterOptions {
  /// Prober cadence: liveness probes to alive shards, reconnect attempts
  /// to dead ones, and the parked-job drain all run on this period.
  double probe_seconds = 0.05;
  /// Per-attempt cap on (re)connects (Socket::try_dial); a blackholed
  /// shard costs at most this per probe tick.
  double dial_timeout_seconds = 1.0;
  /// Pending jobs fail with `status error` once the whole fleet has been
  /// dead for this long continuously (0 = park forever).
  double all_dead_fail_seconds = 30.0;
  /// How long a fleet-stats probe waits for each shard's answer before
  /// snapshotting without it.
  double stats_timeout_seconds = 2.0;
  /// Digest-affinity routing (see file comment); false = round-robin.
  bool affinity = true;
};

/// Point-in-time view of one shard (see ShardRouter::shard_statuses).
struct ShardStatus {
  SocketAddress address;
  bool alive = false;
  bool draining = false;  ///< parked by drain_shard; awaiting restart
  std::uint64_t jobs_sent = 0;         ///< frames written, all connections
  std::uint64_t results_received = 0;  ///< result frames merged back
  std::uint64_t in_flight = 0;         ///< sent, not yet answered
  std::uint64_t times_lost = 0;        ///< transport deaths detected
  std::uint64_t times_admitted = 0;    ///< successful connects (incl. first)
};

class ShardRouter {
 public:
  /// The shard list is fixed at construction; liveness is not -- shards
  /// may be down at start() and join the fleet when they come up.
  explicit ShardRouter(std::vector<SocketAddress> shards,
                       ShardRouterOptions options = {});
  ~ShardRouter();  ///< stop() if still running

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Dials every shard (bounded, non-throwing) and spawns the prober.
  void start();

  /// Fails all pending jobs, tears down every connection, joins every
  /// thread. Idempotent.
  void stop();

  /// Submits one spec-backed job; returns its stream-global index (the
  /// `index` its merged report will carry). Throws ContractError for
  /// jobs with no textual form (prebuilt/lazy instances). Thread-safe.
  std::uint64_t submit(const DecodeJob& job);

  /// Blocks until `index`'s result frame has been merged (or the job
  /// failed terminally) and returns it; each index is claimable once.
  DecodeReport wait(std::uint64_t index);

  /// Convenience: submit all, wait all; reports in submission order.
  std::vector<DecodeReport> route(const std::vector<DecodeJob>& jobs);

  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] std::vector<ShardStatus> shard_statuses() const;

  /// Which currently-alive shard a digest routes to (the deterministic
  /// rendezvous pick). Throws ContractError when no shard is alive.
  [[nodiscard]] std::size_t shard_for_digest(const std::string& digest) const;

  /// Gracefully drains shard `index` (see the file comment): parks it,
  /// sends `pooled-drain`, and waits up to `timeout_seconds` for the
  /// backend's summary frame. Returns the summary, or nullopt when the
  /// shard was not alive, died before answering, or timed out -- the
  /// shard is parked either way, and the prober readmits it when its
  /// address accepts connections again. Thread-safe.
  std::optional<DrainSummary> drain_shard(std::size_t index,
                                          double timeout_seconds = 30.0);

  /// Fleet snapshot: the router's registry (route.* metrics), per-shard
  /// route.shard<i>.* counters, and every live shard's own snapshot
  /// (fetched over the wire via a `pooled-stats` frame) with names
  /// prefixed `shard<i>.`.
  [[nodiscard]] MetricsSnapshot build_snapshot();

 private:
  struct Shard;

  /// Mutable per-shard bookkeeping, indexed by shard index. Kept on the
  /// router rather than on Shard so every field is annotated against the
  /// one capability that guards it, this->mutex_ (an annotation on a
  /// Shard member would have to name the owning router's mutex, which
  /// the analysis cannot alias with `this` at use sites).
  struct ShardState {
    bool alive = false;
    /// Administratively drained: routing skips it, but its in-flight
    /// jobs still merge and its expected death is not a "loss". Cleared
    /// when the prober readmits the restarted backend.
    bool parked = false;
    bool drain_pending = false;  ///< drain frame sent, summary not yet in
    std::optional<DrainSummary> drain_result;
    /// This connection's send order: local result index -> global index
    /// (the mirror of ServeServer's per-connection rebase). Cleared on
    /// reconnect, because the shard numbers each connection from zero.
    std::vector<std::uint64_t> sent;
    std::uint64_t jobs_sent_total = 0;
    std::uint64_t results_total = 0;
    std::uint64_t times_lost = 0;
    std::uint64_t times_admitted = 0;
    bool stats_pending = false;
    std::optional<MetricsSnapshot> stats_result;
  };

  /// One submitted job, keyed by stream-global index, alive from
  /// submit() until its wait() claims the report.
  struct Pending {
    std::string frame;             ///< serialized v2 frame (retries resend it)
    std::uint64_t digest_hash = 0; ///< affinity key (FNV of instance digest)
    bool has_digest = false;
    int shard = -1;                ///< in flight where (-1 = parked/unsent)
    bool done = false;
    DecodeReport report;
    Timer since;                   ///< submit-to-merge latency
  };

  void prober_loop();
  void reader_loop(Shard& shard);
  bool try_admit(Shard& shard);
  void on_shard_down(Shard& shard);
  void dispatch(std::uint64_t index);
  void drain_parked();
  void deliver(std::uint64_t index, DecodeReport report);
  void check_all_dead();
  void fail_pending_locked(const std::string& reason) POOLED_REQUIRES(mutex_);
  Shard* pick_shard_locked(std::uint64_t digest_hash, bool has_digest)
      POOLED_REQUIRES(mutex_);
  void wake_prober();

  ShardRouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> stop_{false};
  std::thread prober_;
  AnnotatedMutex prober_mutex_;
  std::condition_variable_any prober_cv_;
  /// Drain/readmit now, instead of waiting out the probe period.
  bool prober_work_ POOLED_GUARDED_BY(prober_mutex_) = false;

  // Guards all routing state: pending_, parked_, per-shard bookkeeping.
  mutable AnnotatedMutex mutex_;
  std::condition_variable_any results_cv_;  ///< result merged / stats arrived
  std::uint64_t next_index_ POOLED_GUARDED_BY(mutex_) = 0;
  /// Submitted, no shard to send to.
  std::deque<std::uint64_t> parked_ POOLED_GUARDED_BY(mutex_);
  std::map<std::uint64_t, Pending> pending_ POOLED_GUARDED_BY(mutex_);
  std::optional<Timer> all_dead_since_ POOLED_GUARDED_BY(mutex_);
  std::uint64_t round_robin_ POOLED_GUARDED_BY(mutex_) = 0;
  std::vector<ShardState> states_ POOLED_GUARDED_BY(mutex_);

  MetricsRegistry registry_;
  // Handles into registry_, resolved once at construction.
  Counter* jobs_submitted_ = nullptr;
  Counter* jobs_retried_ = nullptr;
  Counter* jobs_failed_ = nullptr;
  Counter* results_merged_ = nullptr;
  Counter* duplicates_dropped_ = nullptr;
  Counter* shards_lost_ = nullptr;
  Counter* shards_readmitted_ = nullptr;
  Counter* shards_drained_ = nullptr;
  Gauge* shards_alive_ = nullptr;
  Gauge* shards_parked_ = nullptr;
  Gauge* jobs_inflight_ = nullptr;
  LatencyHistogram* job_seconds_ = nullptr;
};

/// The routed serve loop (`pooled_cli route`): reads requests from `is`,
/// fans jobs out through `router`, and writes the merged result frames
/// to `os` in submission order, keeping at most `window` jobs in flight
/// (0 = 4x the shard count). `pooled-stats` requests are answered inline
/// with a fleet snapshot, consuming no job index. A `pooled-drain`
/// request flushes every in-flight job, drains the whole fleet shard by
/// shard, answers with one merged summary frame, and stops serving.
/// Returns the number of jobs served.
std::size_t route_requests(std::istream& is, std::ostream& os,
                           ShardRouter& router, std::size_t window = 0);

}  // namespace pooled
