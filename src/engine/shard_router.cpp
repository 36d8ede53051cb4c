#include "engine/shard_router.hpp"

#include <chrono>
#include <exception>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <variant>

#include "core/serialize.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

/// FNV-1a 64 over the digest string (the digest is already uniform; this
/// just folds it to the 64 bits rendezvous hashing mixes).
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// splitmix64 finalizer: decorrelates the per-(digest, shard) scores so
/// the rendezvous argmax spreads digests evenly.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

/// Per-shard connection handles. Socket writes (and stream replacement)
/// serialize on write_mutex; the mutable bookkeeping lives in the
/// router's states_[index], under the router's mutex_. The stream
/// pointer is deliberately unannotated: it is replaced only under
/// write_mutex *and* with the shard's reader joined, so the reader's
/// lock-free reads of a stable pointer are safe.
/// Lock order: write_mutex before mutex_, never the reverse.
struct ShardRouter::Shard {
  Shard(SocketAddress address_, std::size_t index_)
      : address(std::move(address_)), index(index_) {}

  const SocketAddress address;
  const std::size_t index;

  AnnotatedMutex write_mutex;
  std::unique_ptr<SocketStream> stream;  ///< null until first admit
  std::thread reader;
};

ShardRouter::ShardRouter(std::vector<SocketAddress> shards,
                         ShardRouterOptions options)
    : options_(options) {
  POOLED_REQUIRE(!shards.empty(), "shard router needs at least one shard");
  POOLED_REQUIRE(options_.probe_seconds > 0.0,
                 "prober period must be positive");
  shards_.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards_.push_back(std::make_unique<Shard>(std::move(shards[i]), i));
  }
  states_.resize(shards_.size());
  // Registration order is the order a fleet snapshot lists them in.
  jobs_submitted_ = &registry_.counter("route.jobs_submitted");
  results_merged_ = &registry_.counter("route.results_merged");
  jobs_retried_ = &registry_.counter("route.jobs_retried");
  jobs_failed_ = &registry_.counter("route.jobs_failed");
  duplicates_dropped_ = &registry_.counter("route.duplicates_dropped");
  shards_lost_ = &registry_.counter("route.shards_lost");
  shards_readmitted_ = &registry_.counter("route.shards_readmitted");
  shards_drained_ = &registry_.counter("route.shards_drained");
  shards_alive_ = &registry_.gauge("route.shards_alive");
  shards_parked_ = &registry_.gauge("route.shards_parked");
  jobs_inflight_ = &registry_.gauge("route.jobs_inflight");
  job_seconds_ = &registry_.histogram("route.job_seconds");
}

ShardRouter::~ShardRouter() { stop(); }

void ShardRouter::start() {
  POOLED_REQUIRE(!prober_.joinable(), "shard router already started");
  stop_.store(false);
  // Shards down right now are not an error: the prober keeps dialing
  // and admits them whenever they come up (self-stabilization).
  for (const auto& shard : shards_) (void)try_admit(*shard);
  prober_ = std::thread([this] { prober_loop(); });
}

void ShardRouter::stop() {
  stop_.store(true);
  wake_prober();
  if (prober_.joinable()) prober_.join();
  for (const auto& shard : shards_) {
    const LockGuard write_lock(shard->write_mutex);
    if (shard->stream) shard->stream->socket().shutdown_both();
  }
  for (const auto& shard : shards_) {
    if (shard->reader.joinable()) shard->reader.join();
  }
  {
    const LockGuard lock(mutex_);
    for (ShardState& state : states_) {
      if (state.alive) {
        state.alive = false;
        shards_alive_->add(-1);
      }
      state.sent.clear();
      state.stats_pending = false;
    }
    fail_pending_locked("shard router stopped");
  }
  results_cv_.notify_all();
  for (const auto& shard : shards_) {
    const LockGuard write_lock(shard->write_mutex);
    shard->stream.reset();
  }
}

std::uint64_t ShardRouter::submit(const DecodeJob& job) {
  Pending pending;
  {
    std::ostringstream frame;
    save_job(frame, job);  // throws for jobs with no textual form
    pending.frame = frame.str();
  }
  if (options_.affinity && job.spec.has_value()) {
    pending.digest_hash = fnv1a(instance_digest(*job.spec));
    pending.has_digest = true;
  }
  std::uint64_t index = 0;
  {
    const LockGuard lock(mutex_);
    index = next_index_++;
    pending_.emplace(index, std::move(pending));
  }
  jobs_submitted_->add(1);
  jobs_inflight_->add(1);
  dispatch(index);
  return index;
}

DecodeReport ShardRouter::wait(std::uint64_t index) {
  LockGuard lock(mutex_);
  auto it = pending_.find(index);
  POOLED_REQUIRE(it != pending_.end(),
                 "job #" + std::to_string(index) +
                     " was never submitted (or already waited for)");
  while (!it->second.done) results_cv_.wait(lock);
  DecodeReport report = std::move(it->second.report);
  pending_.erase(it);
  return report;
}

std::vector<DecodeReport> ShardRouter::route(
    const std::vector<DecodeJob>& jobs) {
  std::vector<std::uint64_t> indices;
  indices.reserve(jobs.size());
  for (const DecodeJob& job : jobs) indices.push_back(submit(job));
  std::vector<DecodeReport> reports;
  reports.reserve(jobs.size());
  for (const std::uint64_t index : indices) reports.push_back(wait(index));
  return reports;
}

std::size_t ShardRouter::shard_count() const { return shards_.size(); }

std::size_t ShardRouter::alive_count() const {
  const LockGuard lock(mutex_);
  std::size_t alive = 0;
  for (const ShardState& state : states_) {
    if (state.alive) ++alive;
  }
  return alive;
}

std::vector<ShardStatus> ShardRouter::shard_statuses() const {
  const LockGuard lock(mutex_);
  std::vector<ShardStatus> statuses;
  statuses.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ShardState& state = states_[shard->index];
    ShardStatus status;
    status.address = shard->address;
    status.alive = state.alive;
    status.draining = state.parked;
    status.jobs_sent = state.jobs_sent_total;
    status.results_received = state.results_total;
    status.times_lost = state.times_lost;
    status.times_admitted = state.times_admitted;
    statuses.push_back(std::move(status));
  }
  for (const auto& [index, pending] : pending_) {
    if (!pending.done && pending.shard >= 0) {
      ++statuses[static_cast<std::size_t>(pending.shard)].in_flight;
    }
  }
  return statuses;
}

std::size_t ShardRouter::shard_for_digest(const std::string& digest) const {
  const std::uint64_t hash = fnv1a(digest);
  const LockGuard lock(mutex_);
  const Shard* best = nullptr;
  std::uint64_t best_score = 0;
  for (const auto& shard : shards_) {
    if (!states_[shard->index].alive || states_[shard->index].parked) continue;
    const std::uint64_t score = mix(hash ^ mix(shard->index + 1));
    if (best == nullptr || score > best_score) {
      best = shard.get();
      best_score = score;
    }
  }
  POOLED_REQUIRE(best != nullptr, "no shard is alive to route digest to");
  return best->index;
}

std::optional<DrainSummary> ShardRouter::drain_shard(std::size_t index,
                                                     double timeout_seconds) {
  POOLED_REQUIRE(index < shards_.size(),
                 "drain-shard index " + std::to_string(index) +
                     " out of range (fleet has " +
                     std::to_string(shards_.size()) + " shards)");
  Shard& shard = *shards_[index];
  {
    // Park *before* the drain frame goes out: once the backend has read
    // it, it stops reading, so any job dispatched after it would just
    // sit unread until the connection dies and it is requeued. Parking
    // first means in-flight jobs finish and nothing new races the frame.
    const LockGuard lock(mutex_);
    ShardState& state = states_[index];
    if (!state.alive) return std::nullopt;  // nothing to drain
    if (!state.parked) {
      state.parked = true;
      shards_parked_->add(1);
    }
    state.drain_pending = true;
    state.drain_result.reset();
  }
  bool sent = false;
  {
    const LockGuard write_lock(shard.write_mutex);
    if (shard.stream) {
      save_drain_request(shard.stream->out());
      shard.stream->out().flush();
      sent = static_cast<bool>(shard.stream->out());
      if (!sent) shard.stream->out().clear();
    }
  }
  if (!sent) {
    on_shard_down(shard);
    return std::nullopt;
  }
  shards_drained_->add(1);
  // The reader fulfills drain_result once the backend's in-flight
  // windows have flushed; bounded so a wedged backend cannot hang the
  // drain (it is then simply torn down like any dead shard).
  LockGuard lock(mutex_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (states_[index].drain_pending && !stop_.load()) {
    if (results_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  states_[index].drain_pending = false;
  std::optional<DrainSummary> result = std::move(states_[index].drain_result);
  states_[index].drain_result.reset();
  return result;
}

/// The rendezvous pick over alive shards (digest affinity), or the
/// round-robin successor. Returns nullptr when no shard is alive.
ShardRouter::Shard* ShardRouter::pick_shard_locked(std::uint64_t digest_hash,
                                                   bool has_digest) {
  Shard* best = nullptr;
  std::uint64_t best_score = 0;
  std::size_t alive = 0;
  for (const auto& shard : shards_) {
    // A parked (draining) shard is alive but closed to new work.
    if (!states_[shard->index].alive || states_[shard->index].parked) continue;
    ++alive;
    const std::uint64_t score =
        has_digest ? mix(digest_hash ^ mix(shard->index + 1)) : 0;
    if (best == nullptr || score > best_score) {
      best = shard.get();
      best_score = score;
    }
  }
  if (best == nullptr || has_digest || alive == 1) return best;
  // Round-robin: the n-th affinity-free job takes the n-th alive shard.
  const std::uint64_t turn = round_robin_++ % alive;
  std::uint64_t seen = 0;
  for (const auto& shard : shards_) {
    if (!states_[shard->index].alive || states_[shard->index].parked) continue;
    if (seen++ == turn) return shard.get();
  }
  return best;
}

void ShardRouter::dispatch(std::uint64_t index) {
  for (;;) {
    Shard* shard = nullptr;
    {
      const LockGuard lock(mutex_);
      auto it = pending_.find(index);
      if (it == pending_.end() || it->second.done) return;  // raced a failure
      shard = pick_shard_locked(it->second.digest_hash, it->second.has_digest);
      if (shard == nullptr) {
        // Nobody to send to: park until the prober readmits a shard (or
        // the all-dead timeout fails the job).
        it->second.shard = -1;
        parked_.push_back(index);
        POOLED_DCHECK(parked_.size() <= pending_.size(),
                      "every parked index must still be pending");
        if (!all_dead_since_) all_dead_since_.emplace();
        return;
      }
    }
    const LockGuard write_lock(shard->write_mutex);
    const char* frame_data = nullptr;
    std::size_t frame_size = 0;
    {
      const LockGuard lock(mutex_);
      ShardState& state = states_[shard->index];
      // Died -- or was parked by a drain -- between pick and lock: repick.
      if (!state.alive || state.parked) continue;
      auto it = pending_.find(index);
      if (it == pending_.end() || it->second.done) return;
      it->second.shard = static_cast<int>(shard->index);
      state.sent.push_back(index);
      ++state.jobs_sent_total;
      // The frame bytes are write-once at submit(); reading them outside
      // mutex_ during the send below is safe.
      frame_data = it->second.frame.data();
      frame_size = it->second.frame.size();
    }
    std::ostream& out = shard->stream->out();
    out.write(frame_data, static_cast<std::streamsize>(frame_size));
    out.flush();
    if (out) return;  // sent; the shard's reader owns it from here
    out.clear();      // badbit is sticky; the stream is being torn down
    on_shard_down(*shard);  // requeues `index` (and any siblings)
    return;  // `index` is parked now; the prober re-dispatches it
  }
}

void ShardRouter::drain_parked() {
  for (;;) {
    std::uint64_t index = 0;
    {
      const LockGuard lock(mutex_);
      if (parked_.empty()) return;
      bool any_alive = false;
      for (const ShardState& state : states_) {
        any_alive = any_alive || state.alive;
      }
      if (!any_alive) return;
      index = parked_.front();
      parked_.pop_front();
    }
    jobs_retried_->add(1);
    dispatch(index);
  }
}

void ShardRouter::on_shard_down(Shard& shard) {
  std::size_t orphans = 0;
  bool planned = false;
  {
    const LockGuard lock(mutex_);
    ShardState& state = states_[shard.index];
    if (!state.alive) return;  // another thread already handled it
    state.alive = false;
    // A parked shard's death is the *planned* outcome of its drain, not
    // a loss: the shard stays parked (the prober re-dials it), and no
    // loss counters fire -- that is what keeps a rolling restart from
    // reading like an outage. Any jobs it did not answer still requeue
    // below, so even a botched drain loses nothing.
    planned = state.parked;
    if (!planned) ++state.times_lost;
    if (state.drain_pending) {
      state.drain_pending = false;  // its summary is never coming
    }
    shards_alive_->add(-1);
    // Requeue the connection's unanswered jobs: they retry on survivors.
    for (const std::uint64_t index : state.sent) {
      auto it = pending_.find(index);
      if (it != pending_.end() && !it->second.done &&
          it->second.shard == static_cast<int>(shard.index)) {
        it->second.shard = -1;
        parked_.push_back(index);
        ++orphans;
      }
    }
    state.sent.clear();
    state.stats_pending = false;  // its answer is never coming
    bool any_alive = false;
    for (const ShardState& other : states_) any_alive = any_alive || other.alive;
    if (!any_alive && !all_dead_since_) all_dead_since_.emplace();
  }
  if (!planned) shards_lost_->add(1);
  // Unblock the shard's reader (when this is not it) so the prober can
  // join it and re-dial.
  shard.stream->socket().shutdown_both();
  results_cv_.notify_all();  // a fleet-stats waiter may be blocked on it
  (void)orphans;
  wake_prober();  // drain the requeued jobs now, not a probe period later
}

bool ShardRouter::try_admit(Shard& shard) {
  std::optional<Socket> socket =
      Socket::try_dial(shard.address, options_.dial_timeout_seconds);
  if (!socket) return false;
  socket->set_send_timeout(kSendTimeoutSeconds);
  {
    const LockGuard write_lock(shard.write_mutex);
    shard.stream = std::make_unique<SocketStream>(std::move(*socket));
  }
  bool readmission = false;
  {
    const LockGuard lock(mutex_);
    ShardState& state = states_[shard.index];
    // Read under the same lock that increments it (the prober and
    // start() never admit one shard concurrently, but stop() resets
    // state under mutex_).
    readmission = state.times_admitted > 0;
    state.alive = true;
    if (state.parked) {
      // The drained backend restarted and answered the dial: un-park it
      // and let traffic resume -- the rolling restart is complete.
      state.parked = false;
      shards_parked_->add(-1);
    }
    // drain_result is NOT cleared here: it is drain_shard's rendezvous
    // slot, armed and consumed there. A drained backend's summary lands
    // moments before its EOF, and the EOF wakes this prober -- which can
    // win the race to mutex_ (the dial even "succeeds" against a
    // draining backend: the kernel completes the handshake before the
    // accept loop refuses it) and must not destroy the summary before
    // the drain_shard waiter collects it. A stale leftover (waiter timed
    // out) is cleared by the next drain_shard call at entry.
    state.drain_pending = false;
    state.sent.clear();  // the new connection numbers from zero
    ++state.times_admitted;
    shards_alive_->add(1);
    all_dead_since_.reset();
  }
  if (readmission) shards_readmitted_->add(1);
  shard.reader = std::thread([this, &shard] { reader_loop(shard); });
  return true;
}

void ShardRouter::reader_loop(Shard& shard) {
  // The stream pointer is stable for this connection: the prober only
  // replaces it after joining this thread.
  std::istream& in = shard.stream->in();
  for (;;) {
    std::optional<ServeResponse> response;
    try {
      response = load_response(in);
    } catch (const std::exception&) {
      // A garbled frame loses framing for good -- same as a dead shard.
      response.reset();
    }
    if (!response) break;
    if (auto* report = std::get_if<DecodeReport>(&(*response))) {
      std::uint64_t global = 0;
      bool mapped = false;
      {
        const LockGuard lock(mutex_);
        ShardState& state = states_[shard.index];
        // The shard numbers this connection's results 0,1,2...; `sent`
        // maps them back to stream-global indices.
        const std::size_t local = report->index;
        if (local < state.sent.size()) {
          global = state.sent[local];
          ++state.results_total;
          mapped = true;
        }
      }
      if (!mapped) break;  // index confusion: drop the connection
      deliver(global, std::move(*report));
    } else if (auto* snapshot = std::get_if<MetricsSnapshot>(&(*response))) {
      const LockGuard lock(mutex_);
      ShardState& state = states_[shard.index];
      state.stats_result = std::move(*snapshot);
      state.stats_pending = false;
      results_cv_.notify_all();
    } else {
      // The backend's drain summary: the last frame it will ever send
      // on this connection (EOF follows when it exits).
      const LockGuard lock(mutex_);
      ShardState& state = states_[shard.index];
      state.drain_result = std::get<DrainSummary>(std::move(*response));
      state.drain_pending = false;
      results_cv_.notify_all();
    }
  }
  // Transport ended. A `status error` frame would have been delivered
  // above (decode failure, not death); reaching here means the shard
  // itself is gone -- clean EOF and reset alike (read_errno tells a log
  // line apart, but both kill the connection).
  if (!stop_.load()) on_shard_down(shard);
}

void ShardRouter::deliver(std::uint64_t index, DecodeReport report) {
  {
    const LockGuard lock(mutex_);
    auto it = pending_.find(index);
    if (it == pending_.end() || it->second.done) {
      // A lost shard's answer arrived after the job was already retried
      // and merged elsewhere: exactly-once delivery drops the copy.
      duplicates_dropped_->add(1);
      return;
    }
    report.index = index;  // shard-local -> stream-global rebase
    it->second.report = std::move(report);
    it->second.done = true;
    job_seconds_->record(it->second.since.seconds());
  }
  results_merged_->add(1);
  jobs_inflight_->add(-1);
  results_cv_.notify_all();
}

void ShardRouter::check_all_dead() {
  if (options_.all_dead_fail_seconds <= 0.0) return;
  const LockGuard lock(mutex_);
  if (!all_dead_since_ ||
      all_dead_since_->seconds() < options_.all_dead_fail_seconds) {
    return;
  }
  fail_pending_locked("no shard available for " +
                      std::to_string(options_.all_dead_fail_seconds) +
                      " seconds");
  results_cv_.notify_all();
}

/// Fails every unfinished job with `status error <reason>`. Caller holds
/// mutex_ and notifies results_cv_.
void ShardRouter::fail_pending_locked(const std::string& reason) {
  std::size_t failed = 0;
  for (auto& [index, pending] : pending_) {
    if (pending.done) continue;
    pending.report = DecodeReport{};
    pending.report.index = index;
    pending.report.error = reason;
    pending.done = true;
    ++failed;
  }
  parked_.clear();
  if (failed > 0) {
    jobs_failed_->add(failed);
    jobs_inflight_->add(-static_cast<std::int64_t>(failed));
  }
}

void ShardRouter::wake_prober() {
  {
    const LockGuard lock(prober_mutex_);
    prober_work_ = true;
  }
  prober_cv_.notify_all();
}

void ShardRouter::prober_loop() {
  while (!stop_.load()) {
    {
      LockGuard lock(prober_mutex_);
      // Explicit deadline loop, not the predicate wait_for overload: the
      // condition reads prober_work_, which the analysis can only check
      // when the read is visibly under the lock, not inside a lambda.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options_.probe_seconds));
      while (!stop_.load() && !prober_work_) {
        if (prober_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      prober_work_ = false;
    }
    if (stop_.load()) break;
    // 1. Liveness: one out-of-band blank line per alive shard. try_lock
    // like the serve reaper -- a dispatch mid-write must not wedge the
    // prober. Parked shards are never probed: a draining backend has
    // stopped reading by design (the drain frame is the last thing it
    // parses), so a probe would sit unread in its receive queue and turn
    // its clean close into an RST (Linux aborts-on-data after shutdown)
    // that can destroy the in-flight drain summary. Its planned death is
    // detected by the reader's EOF instead.
    for (const auto& shard : shards_) {
      {
        const LockGuard lock(mutex_);
        if (!states_[shard->index].alive || states_[shard->index].parked) {
          continue;
        }
      }
      bool alive = true;
      {
        if (!shard->write_mutex.try_lock()) continue;  // next period
        const LockGuard write_lock(shard->write_mutex, std::adopt_lock);
        {
          // Re-check under the write lock: drain_shard may have parked
          // the shard (and sent its drain frame) since the check above,
          // and no probe may follow that frame.
          const LockGuard lock(mutex_);
          if (states_[shard->index].parked) continue;
        }
        if (shard->stream) {
          alive = send_liveness_probe(shard->stream->socket());
        }
      }
      if (!alive) on_shard_down(*shard);
    }
    // 2. Readmission: re-dial dead shards (bounded by try_dial). The old
    // reader has exited (its stream was shut down on death); join it
    // before replacing the stream it still references.
    for (const auto& shard : shards_) {
      {
        const LockGuard lock(mutex_);
        if (states_[shard->index].alive) continue;
      }
      if (shard->reader.joinable()) shard->reader.join();
      (void)try_admit(*shard);
    }
    // 3. Retry: requeued jobs of lost shards go to survivors.
    drain_parked();
    // 4. Give up only on sustained full outage.
    check_all_dead();
  }
}

MetricsSnapshot ShardRouter::build_snapshot() {
  // Fire one stats frame per alive shard...
  for (const auto& shard : shards_) {
    {
      const LockGuard lock(mutex_);
      ShardState& state = states_[shard->index];
      // A parked shard has stopped reading requests (its drain frame was
      // the last thing it parsed), so a stats probe would only time out.
      if (!state.alive || state.parked) continue;
      state.stats_pending = true;
      state.stats_result.reset();
    }
    bool sent = false;
    {
      const LockGuard write_lock(shard->write_mutex);
      if (shard->stream) {
        save_stats_request(shard->stream->out());
        shard->stream->out().flush();
        sent = static_cast<bool>(shard->stream->out());
        if (!sent) shard->stream->out().clear();
      }
    }
    if (!sent) on_shard_down(*shard);
  }
  // ...and collect the answers (readers fulfill stats_result), bounded
  // by stats_timeout_seconds so a dying shard cannot wedge the probe.
  {
    LockGuard lock(mutex_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.stats_timeout_seconds));
    for (;;) {
      bool waiting = false;
      for (const ShardState& state : states_) {
        waiting = waiting || state.stats_pending;
      }
      if (!waiting) break;
      if (results_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
  }

  MetricsSnapshot snapshot = registry_.snapshot();
  auto& values = snapshot.values;

  const LockGuard lock(mutex_);
  for (const auto& shard : shards_) {
    const ShardState& state = states_[shard->index];
    const std::string prefix =
        "route.shard" + std::to_string(shard->index) + ".";
    values.push_back(
        MetricValue::of_label(prefix + "address", shard->address.to_string()));
    values.push_back(MetricValue::of_gauge(prefix + "alive",
                                           state.alive ? 1 : 0, 1));
    values.push_back(MetricValue::of_gauge(prefix + "draining",
                                           state.parked ? 1 : 0,
                                           state.parked ? 1 : 0));
    values.push_back(
        MetricValue::of_counter(prefix + "jobs_sent", state.jobs_sent_total));
    values.push_back(
        MetricValue::of_counter(prefix + "results", state.results_total));
    values.push_back(
        MetricValue::of_counter(prefix + "lost", state.times_lost));
    values.push_back(
        MetricValue::of_counter(prefix + "admitted", state.times_admitted));
  }
  // Each live shard's own snapshot rides along, name-prefixed, so one
  // fleet probe sees every backend's cache/engine/serve counters.
  for (const auto& shard : shards_) {
    const ShardState& state = states_[shard->index];
    if (!state.stats_result) continue;
    const std::string prefix = "shard" + std::to_string(shard->index) + ".";
    for (MetricValue value : state.stats_result->values) {
      value.name = prefix + value.name;
      values.push_back(std::move(value));
    }
  }
  return snapshot;
}

std::size_t route_requests(std::istream& is, std::ostream& os,
                           ShardRouter& router, std::size_t window) {
  if (window == 0) window = 4 * router.shard_count();
  std::deque<std::uint64_t> in_flight;
  std::size_t served = 0;
  const auto emit_front = [&] {
    const DecodeReport report = router.wait(in_flight.front());
    in_flight.pop_front();
    save_report(os, report);
    os.flush();
    POOLED_REQUIRE(static_cast<bool>(os), "result stream write failed");
    ++served;
  };
  while (std::optional<ServeRequest> request = load_request(is)) {
    if (std::holds_alternative<StatsRequest>(*request)) {
      // Answered inline with the fleet snapshot; no job index consumed.
      save_stats_snapshot(os, router.build_snapshot());
      os.flush();
      POOLED_REQUIRE(static_cast<bool>(os), "stats frame write failed");
      continue;
    }
    if (std::holds_alternative<DrainRequest>(*request)) {
      // Fleet-wide drain: every in-flight job merges and emits first
      // (the summary promises nothing was dropped), then each shard
      // drains in turn and the summaries fold into one. Serving stops
      // -- the whole fleet is going down for its rolling restart.
      while (!in_flight.empty()) emit_front();
      DrainSummary fleet;
      fleet.snapshot_written = true;
      bool any_drained = false;
      for (std::size_t i = 0; i < router.shard_count(); ++i) {
        const std::optional<DrainSummary> summary = router.drain_shard(i);
        if (!summary) continue;
        any_drained = true;
        fleet.jobs_served += summary->jobs_served;
        fleet.cache_entries += summary->cache_entries;
        fleet.write_failures += summary->write_failures;
        fleet.snapshot_written =
            fleet.snapshot_written && summary->snapshot_written;
      }
      if (!any_drained) fleet.snapshot_written = false;
      save_drain_summary(os, fleet);
      os.flush();
      POOLED_REQUIRE(static_cast<bool>(os), "drain summary write failed");
      break;
    }
    in_flight.push_back(
        router.submit(std::get<DecodeJob>(std::move(*request))));
    // The merge stays in submission order: the head job's report is
    // always the next frame out, and the bounded window caps how much
    // completed-but-unemitted work can buffer behind a slow head.
    while (in_flight.size() >= window) emit_front();
  }
  while (!in_flight.empty()) emit_front();
  return served;
}

}  // namespace pooled
