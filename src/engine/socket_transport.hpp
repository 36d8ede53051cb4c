// Socket transport for the end-framed decode protocol.
//
// The protocol (engine/protocol.hpp) is newline-delimited and
// self-delimiting per frame, so it runs over any byte stream; this layer
// supplies the byte streams: TCP ("host:port", numeric IPv4 or
// "localhost") and unix-domain ("unix:/path") sockets, wrapped behind
// std::iostream so load_job/save_report work on a connection exactly as
// they do on a file. Writes use MSG_NOSIGNAL throughout, so a peer that
// vanished surfaces as a stream error (badbit) rather than SIGPIPE.
//
// The pieces:
//   SocketAddress   -- parsed listen/dial address, both families
//   Socket          -- RAII fd; Socket::dial() is the client side
//   SocketStream    -- Socket + streambuf + iostream in one bundle
//   ListenSocket    -- bound+listening fd with poll-based accept, so an
//                      accept loop can re-check its stop flag instead of
//                      blocking forever
#pragma once

#include <cstdint>
#include <iostream>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

namespace pooled {

/// A listen/dial address: "host:port" (TCP) or "unix:/path".
struct SocketAddress {
  enum class Family { Tcp, Unix };

  Family family = Family::Tcp;
  std::string host = "127.0.0.1";  ///< TCP: numeric IPv4 or "localhost"
  std::uint16_t port = 0;          ///< TCP: 0 = kernel picks (see ListenSocket)
  std::string path;                ///< unix-domain socket path

  /// Parses "host:port" / ":port" (loopback) / "unix:/path"; throws
  /// ContractError naming the offending text otherwise.
  static SocketAddress parse(const std::string& text);

  /// The parseable form ("127.0.0.1:7733", "unix:/tmp/pooled.sock").
  [[nodiscard]] std::string to_string() const;
};

/// Per-send cap (Socket::set_send_timeout) on every serve result write
/// and routed request write: a connected peer that stops reading stalls
/// its writer at most this long before the connection errors out.
inline constexpr double kSendTimeoutSeconds = 30.0;

/// RAII wrapper of a connected (or accepted) socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Half-closes the write side: the peer's reads see EOF while its
  /// results still flow back -- the client's "no more requests" signal.
  void shutdown_write();

  /// Half-closes the read side: a blocked reader on this socket sees
  /// EOF (as if the peer hung up) while responses already queued still
  /// flow out -- the drain path's "no new requests" lever.
  void shutdown_read();

  /// Shuts down both directions, waking any thread blocked in a read on
  /// this socket (the server's connection-teardown lever).
  void shutdown_both();

  /// Bounds how long a blocking send may wait for buffer space
  /// (SO_SNDTIMEO). A timed-out send surfaces as a write error, so a
  /// connected-but-stalled reader cannot pin a writer thread forever.
  void set_send_timeout(double seconds);

  void close();

  /// Lingering close, step one: reads and discards inbound bytes until
  /// the peer closes (EOF), an error lands, or `timeout_seconds` pass.
  /// Closing a socket with unread data in its receive queue makes the
  /// kernel answer with an RST that also destroys anything still queued
  /// on the send side -- fatal for a frame the peer must not lose (the
  /// drain summary). Call after shutdown_write(), then close().
  void discard_until_eof(double timeout_seconds);

  /// Client side: connects to a serve server. Throws ContractError when
  /// nothing listens there (a bounded wait -- see try_dial; a blackholed
  /// address can no longer pin the caller in connect() forever).
  static Socket dial(const SocketAddress& address);

  /// Non-throwing, bounded dial: non-blocking connect + poll + SO_ERROR.
  /// nullopt when the peer refuses, the address is unreachable, or
  /// nothing answered within `timeout_seconds` -- the router's probe and
  /// reconnect primitive, safe to call against dead or blackholed
  /// shards. The returned socket is back in blocking mode.
  static std::optional<Socket> try_dial(const SocketAddress& address,
                                        double timeout_seconds);

 private:
  int fd_ = -1;
};

/// std::streambuf over a connected socket (buffered both ways).
///
/// The input path records *why* it ended: a clean peer EOF (recv
/// returned 0 -- the peer half-closed) sets saw_eof(), a failing recv
/// records its errno in read_errno(). Both surface as eof() to the
/// iostream layer, so callers that care -- the shard router deciding
/// "shard died" vs "shard drained", the serve server's reaped-connection
/// accounting -- must ask the streambuf, not the stream state.
class SocketStreambuf final : public std::streambuf {
 public:
  explicit SocketStreambuf(int fd);

  /// True once the peer closed its write side cleanly (recv returned 0).
  [[nodiscard]] bool saw_eof() const { return saw_eof_; }

  /// 0 after clean EOF (or while reads still flow); the errno of the
  /// failing recv otherwise (ECONNRESET and friends).
  [[nodiscard]] int read_errno() const { return read_errno_; }

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool flush_buffer();

  int fd_;
  std::vector<char> in_buffer_;
  std::vector<char> out_buffer_;
  bool saw_eof_ = false;
  int read_errno_ = 0;
};

/// A connection: the owning Socket plus the streams speaking through it.
/// in() and out() are distinct stream objects over one streambuf (their
/// get/put areas are independent), so a reader thread hitting EOF flips
/// in()'s failbit without corrupting out()'s state -- one may be read
/// and the other written concurrently from two threads.
class SocketStream {
 public:
  explicit SocketStream(Socket socket);

  [[nodiscard]] std::istream& in() { return in_; }
  [[nodiscard]] std::ostream& out() { return out_; }
  [[nodiscard]] Socket& socket() { return socket_; }

  /// Why in() ended (see SocketStreambuf): clean peer half-close...
  [[nodiscard]] bool saw_eof() const { return buffer_.saw_eof(); }
  /// ...or a transport error, whose errno this reports (0 = none).
  [[nodiscard]] int read_errno() const { return buffer_.read_errno(); }

 private:
  Socket socket_;
  SocketStreambuf buffer_;
  std::istream in_;
  std::ostream out_;
};

/// A bound, listening socket. TCP port 0 binds an ephemeral port; the
/// resolved address (for clients and log lines) is local_address(). A
/// pre-existing unix socket path is dialed first: only a *stale* one
/// (nothing answers the connect) is unlinked and rebound -- binding over
/// a live server throws instead of silently orphaning it. Paths are
/// unlinked on close.
class ListenSocket {
 public:
  static ListenSocket bind_and_listen(const SocketAddress& address,
                                      int backlog = 64);
  ~ListenSocket();

  ListenSocket(ListenSocket&&) noexcept = default;
  ListenSocket& operator=(ListenSocket&&) noexcept = default;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Waits up to timeout_ms for a connection; nullopt on timeout (the
  /// caller re-checks its stop flag) or after close().
  std::optional<Socket> accept(int timeout_ms);

  [[nodiscard]] const SocketAddress& local_address() const { return address_; }
  [[nodiscard]] bool valid() const { return socket_.valid(); }
  void close();

 private:
  ListenSocket(Socket socket, SocketAddress address);

  Socket socket_;
  SocketAddress address_;
};

/// Sends one out-of-band liveness probe (a blank line, which frame
/// readers skip) without blocking. Returns false when the peer is gone
/// (EPIPE/ECONNRESET) -- the reaper's drop detector. A full send buffer
/// is not "gone": the probe is simply skipped.
bool send_liveness_probe(const Socket& socket);

}  // namespace pooled
