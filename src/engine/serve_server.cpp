#include "engine/serve_server.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "support/assert.hpp"

namespace pooled {

/// One accepted connection: its socket, the session serving it, and the
/// session's window onto the server (drain, barrier, socket shutdown).
/// The reaper and stop() reach the session through cancel() and
/// write_mutex() only.
struct ServeServer::Connection final : SessionHost {
  Connection(ServeServer& owner, Socket socket, std::uint64_t serial)
      : server(owner),
        stream(std::move(socket)),
        session(stream.in(), stream.out(), owner.engine_, owner.options_, this,
                serial) {}

  void begin_drain() override { server.begin_drain(); }

  void wait_for_quiesce() override {
    // Every live session must itself be a drain owner (its queue is
    // flushed by then). Atomics only: taking connections_mutex_ here
    // would deadlock against stop(), which joins sessions while holding
    // it.
    server.drain_owners_active_.fetch_add(1);
    while (server.handlers_active_.load() > server.drain_owners_active_.load() &&
           !server.stop_.load() && !session.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    server.drain_owners_active_.fetch_sub(1);
  }

  void shutdown(bool linger) override {
    if (!linger) {
      stream.socket().shutdown_both();  // unblocks a waiting reader
      return;
    }
    // Lingering close: a router liveness probe racing the drain frame
    // can land after the session's reader stopped (at that frame), and
    // close() with those bytes unread makes the kernel RST the
    // connection -- destroying the summary just written. Send our FIN,
    // then discard late bytes until the peer reads the summary and
    // closes (bounded wait).
    stream.socket().shutdown_write();
    stream.socket().discard_until_eof(5.0);
  }

  [[nodiscard]] int read_errno() const override { return stream.read_errno(); }

  ServeServer& server;
  SocketStream stream;
  ServeSession session;
  std::atomic<bool> done{false};
  std::thread thread;
};

ServeServer::ServeServer(ListenSocket listener, const BatchEngine& engine,
                         ServeServerOptions options)
    : listener_(std::move(listener)),
      engine_(engine),
      options_(std::move(options)),
      metrics_(engine.metrics()) {
  POOLED_REQUIRE(listener_.valid(), "serve server needs a bound listener");
  POOLED_REQUIRE(options_.probe_seconds > 0.0,
                 "reaper probe period must be positive");
}

ServeServer::~ServeServer() { stop(); }

void ServeServer::start() {
  POOLED_REQUIRE(!accept_thread_.joinable(), "serve server already started");
  accept_thread_ = std::thread([this] { accept_loop(); });
  reaper_thread_ = std::thread([this] { reaper_loop(); });
}

void ServeServer::stop() {
  stop_.store(true);
  reaper_cv_.notify_all();
  // Join the accept loop *before* closing the listener: accept() polls
  // with a 100ms timeout and rechecks stop_, so the join is prompt, and
  // closing an fd another thread is still polling is a data race (worse,
  // the kernel can reuse the fd number mid-poll). TSan caught the old
  // close-then-join order.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  // Sessions never take connections_mutex_, so joining under it is
  // deadlock-free.
  const LockGuard lock(connections_mutex_);
  for (const auto& connection : connections_) {
    connection->session.cancel();
    connection->stream.socket().shutdown_both();  // unblocks the reader
  }
  for (const auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  connections_.clear();
}

void ServeServer::begin_drain() {
  // Atomic stores only: this is called from reader threads (on a drain
  // frame) and from signal-handling CLI loops, neither of which may
  // touch connections_mutex_ (stop() joins sessions while holding it).
  // The accept loop performs the actual read-shutdown sweep.
  metrics_.draining.set(1);
  draining_.store(true);
}

void ServeServer::accept_loop() {
  std::uint64_t serial = 0;  // 1-based admission order; tags progress lines
  while (!stop_.load()) {
    std::optional<Socket> socket = listener_.accept(/*timeout_ms=*/100);
    // Reap finished connections on every wakeup so a long-lived server
    // does not accumulate one thread + fd per past client.
    {
      const LockGuard lock(connections_mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      if (draining_.load()) {
        // Drain: half-close the read side of every live connection so
        // blocked readers see a clean EOF, queued jobs finish, and the
        // results still flush out the intact write side. The sweep
        // repeats on every wakeup while draining, so a connection
        // admitted just before the flag flipped (the accept below runs
        // outside this lock) is caught too. A connection whose reader
        // already finished (the drain owner's, typically) is skipped:
        // there is no blocked reader to unblock, and flagging its
        // receive side shut would make the kernel answer any
        // late-arriving peer bytes (liveness probes) after our FIN with
        // an RST that can destroy the drain summary in flight.
        for (const auto& connection : connections_) {
          if (connection->done.load()) continue;
          if (!connection->session.reader_finished()) {
            connection->stream.socket().shutdown_read();
          }
        }
      }
    }
    if (!socket) continue;
    if (draining_.load()) continue;  // refused: the fleet is going down
    socket->set_send_timeout(kSendTimeoutSeconds);
    metrics_.connections_accepted.add();
    auto connection =
        std::make_unique<Connection>(*this, std::move(*socket), ++serial);
    Connection& ref = *connection;
    {
      const LockGuard lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    metrics_.connections_active.add(1);
    // Counted at admission (not inside the session) so the drain barrier
    // can never observe a connection whose session has not started yet.
    handlers_active_.fetch_add(1);
    ref.thread = std::thread([this, &ref] {
      (void)ref.session.run();
      metrics_.connections_active.add(-1);
      handlers_active_.fetch_sub(1);
      ref.done.store(true);
    });
  }
}

void ServeServer::reaper_loop() {
  while (!stop_.load()) {
    {
      // Interruptible inter-probe wait: stop() must not block for up to
      // a full probe period behind a plain sleep.
      LockGuard lock(reaper_mutex_);
      reaper_cv_.wait_for(lock,
                          std::chrono::duration<double>(options_.probe_seconds),
                          [this] { return stop_.load(); });
    }
    if (stop_.load()) break;
    const LockGuard lock(connections_mutex_);
    for (const auto& connection : connections_) {
      if (connection->done.load() || connection->session.cancelled()) continue;
      bool alive;
      {
        // try_lock, not lock: a session mid-write (possibly blocked in
        // send against a stalled reader) must not wedge the reaper --
        // and with it connections_mutex_, accepts, and stop().
        if (!connection->session.write_mutex().try_lock()) continue;
        const LockGuard write_lock(connection->session.write_mutex(),
                                   std::adopt_lock);
        alive = send_liveness_probe(connection->stream.socket());
      }
      if (alive) continue;
      // Peer is gone: reclaim the workers. The cancel token stops every
      // in-flight round-based decode at its next round boundary, and the
      // shutdown unblocks a reader waiting in recv. The reap counter is
      // bumped *before* the token: every observable effect of this
      // cancellation (a Cancelled report, jobs_cancelled) then implies
      // the reap is already counted, so a stats reader can reconcile
      // jobs_cancelled against connections_reaped at any instant.
      metrics_.connections_reaped.add();
      connection->session.cancel();
      connection->stream.socket().shutdown_both();
    }
  }
}

}  // namespace pooled
