// Concurrent socket serving of the decode protocol.
//
// `pooled_cli serve --listen <addr>` runs one of these around the engine
// the stdin serve uses. Each accepted connection runs one ServeSession
// (engine/serve_session.hpp: pipeline, windows, stats answers, spans,
// drain summary); the server keeps what a fleet of connections needs:
//   - Accept, joining finished sessions on every accept wakeup.
//   - Liveness: every probe period the reaper sends each live connection
//     an out-of-band blank line (frame readers skip blank lines). A dead
//     peer cancels its session, so the workers stop decoding for a ghost.
//   - Drain: a `pooled-drain` frame or begin_drain() (the SIGTERM path)
//     refuses new connections and shuts the read side of live ones, so
//     their queues finish and flush. The draining session writes its
//     summary once every live session is a drain owner (the barrier),
//     then closes lingering. Nothing in flight is cancelled; pooled_cli
//     watches draining() and serve.connections_active, then stops.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <thread>

#include "engine/serve_session.hpp"
#include "engine/socket_transport.hpp"
#include "support/thread_annotations.hpp"

namespace pooled {

/// Session wiring (progress, trace, on_drain) shared by every
/// connection, plus the reaper's cadence.
struct ServeServerOptions : ServeSessionOptions {
  /// Reaper probe period. A dropped connection is detected within about
  /// two periods (the first probe after the drop may still buffer).
  double probe_seconds = 0.05;
};

class ServeServer {
 public:
  /// Takes ownership of a bound listener. The engine (and its pool,
  /// cache, and the options' progress stream) must outlive the server.
  ServeServer(ListenSocket listener, const BatchEngine& engine,
              ServeServerOptions options = {});
  ~ServeServer();  ///< stop() if still running

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Spawns the accept loop and the reaper; returns immediately.
  void start();

  /// Stops accepting, cancels every in-flight decode, unblocks and joins
  /// every connection thread. Idempotent.
  void stop();

  /// Starts a graceful drain: new connections are refused, live
  /// connections get their read side shut down (queued jobs still finish
  /// and flush), nothing in-flight is cancelled. The `pooled-drain`
  /// frame takes this path too. Idempotent; callable from any thread.
  /// Callers watch draining() + serve.connections_active reaching 0,
  /// then call stop().
  void begin_drain();

  /// True once a drain has started (frame or begin_drain()).
  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// The resolved listen address (real port when bound with port 0).
  [[nodiscard]] const SocketAddress& address() const {
    return listener_.local_address();
  }

  /// The snapshot behind the `stats` protocol frame and the `--metrics`
  /// endpoint (serve_snapshot of the engine). Callable from any thread.
  [[nodiscard]] MetricsSnapshot build_snapshot() const {
    return serve_snapshot(engine_);
  }

 private:
  struct Connection;

  void accept_loop();
  void reaper_loop();

  ListenSocket listener_;
  const BatchEngine& engine_;
  ServeServerOptions options_;
  ServeMetrics metrics_;

  std::atomic<bool> stop_{false};
  /// While set, the accept loop refuses connections and shuts down the
  /// read side of every live one (readers must never touch
  /// connections_mutex_, so the sweep cannot run on the reader thread
  /// that parsed the drain frame).
  std::atomic<bool> draining_{false};
  /// Admission-ordered handler census for the drain barrier: bumped by
  /// the accept loop when a connection is admitted, dropped when its
  /// session finishes. A drain-owning session waits until every live
  /// session is a drain owner before writing its summary -- via these
  /// two atomics only, because stop() joins sessions while holding
  /// connections_mutex_ (a session touching that mutex would deadlock).
  std::atomic<std::uint64_t> handlers_active_{0};
  std::atomic<std::uint64_t> drain_owners_active_{0};
  std::thread accept_thread_;
  std::thread reaper_thread_;
  // Wakes the reaper out of its inter-probe wait so stop() is prompt
  // even when probe_seconds is long.
  AnnotatedMutex reaper_mutex_;
  std::condition_variable_any reaper_cv_;

  AnnotatedMutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_
      POOLED_GUARDED_BY(connections_mutex_);
};

}  // namespace pooled
