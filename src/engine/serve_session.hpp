// One request stream served through a BatchEngine.
//
// `pooled_cli serve` runs one ServeSession over its --in/--out streams;
// `serve --listen` (engine/serve_server.hpp) runs one per accepted
// connection. Either way the stream gets the same request pipeline:
//
//   reader thread --- load_request() ---> bounded job queue
//   run()         <-- pops windows -- engine.run() --> result frames
//
// so frame parsing overlaps with decoding: while one window decodes on
// the shared ThreadPool, the reader is already parsing the next requests
// (up to two windows of min(engine.window(), limits::kMaxJobsPerWindow)
// jobs). Result frames carry the stream-global job index, and v1/v2
// frames mix freely because version negotiation is per frame.
//
// Stream lifecycle:
//   - End of input at a frame boundary means "no more requests": queued
//     jobs finish, their results flush, and run() returns.
//   - A `pooled-stats` frame is answered at once on the reader thread,
//     out of band of the job pipeline: it never waits behind a window of
//     decodes and never consumes a job index.
//   - A malformed frame loses framing for good, so the reader stops,
//     queued jobs drain, and the stream ends with a final `status error
//     protocol error: ...` frame.
//   - A `pooled-drain` frame stops the reader; queued jobs drain, the
//     host's drain barrier is awaited, and the stream ends with one
//     `pooled-drain-result` summary.
//   - cancel() (a dropped peer, the server stopping) or a failed write
//     stops the pipeline: in-flight decodes see the cancel token at
//     their next round boundary and queued jobs never decode.
//
// Every counter the session moves is a handle in engine.metrics(), so a
// stats frame, the `--metrics` endpoint, and the CLI's exit lines all
// read one registry (see serve_snapshot).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "engine/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/thread_annotations.hpp"

namespace pooled {

/// Per-stream wiring every session of one serve shares. All pointers may
/// be null; everything must outlive the sessions.
struct ServeSessionOptions {
  /// Per-round progress lines tagged with stream-global job indices
  /// (`serve --progress`).
  ProgressStream* progress = nullptr;
  /// Per-job trace recorder (`serve --trace`); one JSONL span per job,
  /// tagged with the session's serial.
  TraceRecorder* trace = nullptr;
  /// Invoked once per answered drain frame, after the drain barrier and
  /// before the summary is written: fills the cache_entries /
  /// snapshot_written fields (jobs_served and write_failures come from
  /// the registry). Must not throw.
  std::function<void(DrainSummary&)> on_drain;
};

/// The serve.* and drain.* handles in an engine's registry, resolved in
/// the order a fresh stats frame lists them.
struct ServeMetrics {
  explicit ServeMetrics(MetricsRegistry& registry);

  Counter& connections_accepted;
  Gauge& connections_active;
  Counter& connections_reaped;   ///< dropped by the liveness probe
  Counter& connections_errored;  ///< lost to a transport error
  Counter& jobs_served;          ///< result frames delivered to the peer
  Counter& jobs_cancelled;       ///< served jobs that stopped on cancel
  Counter& jobs_failed;          ///< `status error` frames, parse errors too
  Counter& write_failures;       ///< frames lost to a dead/stalled peer
  Gauge& queue_depth;            ///< parsed jobs waiting for a window
  LatencyHistogram& job_seconds;
  Counter& drain_requests;
  Gauge& draining;
};

/// What a session needs from the transport it runs over. A session with
/// no host serves a plain stream pair (stdin serve): nothing else to
/// drain, no barrier to wait for, nothing to shut down, reads never fail.
class SessionHost {
 public:
  virtual ~SessionHost() = default;

  /// A `pooled-drain` frame arrived (called on the reader thread).
  virtual void begin_drain() = 0;
  /// The drain barrier: returns once the summary may promise that every
  /// in-flight job everywhere was answered (or the wait is moot).
  virtual void wait_for_quiesce() = 0;
  /// The session wrote its last frame. Must unblock a reader still
  /// waiting for input; `linger` means a drain summary just went out and
  /// must not be destroyed by a reset.
  virtual void shutdown(bool linger) = 0;
  /// errno of the transport's failed read (0 = clean end of input).
  [[nodiscard]] virtual int read_errno() const = 0;
};

class ServeSession {
 public:
  /// `host` null = a plain stream pair; `serial` tags progress lines and
  /// trace spans (0 = untagged, the stdin serve). The streams, engine,
  /// and host must outlive the session.
  ServeSession(std::istream& in, std::ostream& out, const BatchEngine& engine,
               ServeSessionOptions options = {}, SessionHost* host = nullptr,
               std::uint64_t serial = 0);

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Serves the stream to its end on the calling thread (the reader runs
  /// beside it and is joined before returning). False when the stream
  /// ended on a malformed request.
  bool run();

  /// Stops the pipeline and cancels every in-flight decode. Any thread.
  void cancel();
  [[nodiscard]] bool cancelled() const { return cancel_.load(); }

  /// True once the reader stopped reading (end of input, drain frame,
  /// parse error, or cancel).
  [[nodiscard]] bool reader_finished();

  /// Serializes whole frames on the output stream: result frames, stats
  /// answers, and a host's out-of-band writes (liveness probes).
  AnnotatedMutex& write_mutex() POOLED_RETURN_CAPABILITY(write_mutex_) {
    return write_mutex_;
  }

 private:
  void read_requests();
  /// Writes `frames` frames (via `body`) under write_mutex_ and flushes
  /// them. False when the peer stopped reading: the frames count as write
  /// failures and the session is cancelled, since the frame boundary on
  /// the stream is lost.
  bool write(std::size_t frames,
             const std::function<void(std::ostream&)>& body);

  std::istream& in_;
  std::ostream& out_;
  const BatchEngine& engine_;
  const ServeSessionOptions options_;
  SessionHost* const host_;  ///< null = a plain stream pair
  const std::uint64_t serial_;
  const std::size_t window_;
  ServeMetrics metrics_;

  /// The stream's cancel token; every in-flight DecodeContext points here.
  std::atomic<bool> cancel_{false};
  /// The output stream itself is deliberately unannotated: only the
  /// run() thread and the reader's stats answers write it, both under
  /// this mutex.
  AnnotatedMutex write_mutex_;

  // Reader -> run() pipeline, bounded at two windows so a fast client
  // cannot buffer an unbounded backlog. `spans_` stays parallel to
  // `queue_` (null entries when tracing is off).
  AnnotatedMutex queue_mutex_;
  std::condition_variable_any queue_cv_;
  std::deque<DecodeJob> queue_ POOLED_GUARDED_BY(queue_mutex_);
  std::deque<std::unique_ptr<TraceSpan>> spans_ POOLED_GUARDED_BY(queue_mutex_);
  bool reader_done_ POOLED_GUARDED_BY(queue_mutex_) = false;
  /// A drain frame arrived; the summary is owed once the queue drains.
  bool drain_owed_ POOLED_GUARDED_BY(queue_mutex_) = false;
  std::string parse_error_ POOLED_GUARDED_BY(queue_mutex_);
  std::uint64_t jobs_parsed_ = 0;  ///< reader-only span index
};

/// The machine-readable snapshot behind the stats frame, the `--metrics`
/// endpoint, and the CLI's exit lines: every metric in engine.metrics()
/// followed by the cache counters (when a cache is wired), the arena
/// high-water marks, and the active kernel tier.
[[nodiscard]] MetricsSnapshot serve_snapshot(const BatchEngine& engine);

}  // namespace pooled
