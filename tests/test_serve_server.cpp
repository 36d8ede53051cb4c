// Socket serve server: concurrent connections, overlapping parse/decode,
// connection reaper, and the v2 seed field end to end.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/serialize.hpp"
#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/result_cache.hpp"
#include "engine/serve_server.hpp"
#include "engine/serve_session.hpp"
#include "engine/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace pooled {
namespace {

using std::chrono::steady_clock;

/// Spec-backed job over a fresh teacher instance; truth returned via out.
DecodeJob sample_job(std::uint64_t seed, std::vector<std::uint32_t>* truth_out,
                     const std::string& decoder = "mn", std::uint32_t n = 300,
                     std::uint32_t k = 5, std::uint32_t m = 220) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = n;
  params.seed = seed;
  const Signal truth = Signal::random(n, k, seed ^ 0x51D);
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, m, truth, pool);
  job.decoder = decoder;
  job.k = k;
  if (truth_out) truth_out->assign(truth.support().begin(), truth.support().end());
  return job;
}

/// A noisy round-by-round job that can never converge (the estimate
/// cannot explain perturbed observations), so it grinds through rounds
/// until exhausted/cancelled/deadline -- the cancellation test fixture.
/// OMP re-decodes the whole prefix every round (seconds in all), where
/// an MN inner folds only each round's new query and finishes in
/// milliseconds.
DecodeJob long_running_job(std::uint64_t seed) {
  DecodeJob job = sample_job(seed, nullptr, "adaptive:omp:L=1", /*n=*/600,
                             /*k=*/6, /*m=*/600);
  job.noise = NoiseModel::symmetric(0.3, 11);
  return job;
}

ListenSocket loopback_listener() {
  return ListenSocket::bind_and_listen(SocketAddress::parse("127.0.0.1:0"));
}

std::vector<DecodeReport> drain_reports(std::istream& is) {
  std::vector<DecodeReport> reports;
  while (auto report = load_report(is)) reports.push_back(std::move(*report));
  return reports;
}

/// One counter of the server's stats snapshot.
std::uint64_t counter(const ServeServer& server, const char* name) {
  return server.build_snapshot().counter_value(name);
}

std::int64_t active_connections(const ServeServer& server) {
  return server.build_snapshot().gauge_value("serve.connections_active");
}

/// Polls until `predicate` holds; fails the test on timeout.
template <typename Predicate>
void wait_until(Predicate predicate, const char* what,
                double timeout_seconds = 30.0) {
  const auto deadline = steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (!predicate()) {
    ASSERT_LT(steady_clock::now(), deadline) << "timed out waiting for " << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(SocketTransport, ParsesAndFormatsAddresses) {
  const SocketAddress tcp = SocketAddress::parse("10.1.2.3:7733");
  EXPECT_EQ(tcp.family, SocketAddress::Family::Tcp);
  EXPECT_EQ(tcp.host, "10.1.2.3");
  EXPECT_EQ(tcp.port, 7733);
  EXPECT_EQ(tcp.to_string(), "10.1.2.3:7733");

  const SocketAddress bare_port = SocketAddress::parse(":8080");
  EXPECT_EQ(bare_port.host, "127.0.0.1");  // loopback default
  EXPECT_EQ(bare_port.port, 8080);

  const SocketAddress unix_addr = SocketAddress::parse("unix:/tmp/pooled.sock");
  EXPECT_EQ(unix_addr.family, SocketAddress::Family::Unix);
  EXPECT_EQ(unix_addr.path, "/tmp/pooled.sock");
  EXPECT_EQ(unix_addr.to_string(), "unix:/tmp/pooled.sock");

  EXPECT_THROW((void)SocketAddress::parse(""), ContractError);
  EXPECT_THROW((void)SocketAddress::parse("no-port"), ContractError);
  EXPECT_THROW((void)SocketAddress::parse("host:99999"), ContractError);
  EXPECT_THROW((void)SocketAddress::parse("host:abc"), ContractError);
  EXPECT_THROW((void)SocketAddress::parse("unix:"), ContractError);
}

TEST(SocketTransport, DialFailsWhenNothingListens) {
  // Bind-then-close guarantees the port is allocated but dead.
  SocketAddress address;
  {
    ListenSocket listener = loopback_listener();
    address = listener.local_address();
  }
  EXPECT_THROW((void)Socket::dial(address), ContractError);
}

TEST(SocketTransport, TryDialTimesOutInsteadOfHanging) {
  // A zero-backlog listener that never accepts: once its queue fills,
  // the kernel drops further SYNs and a blocking connect would sit in
  // retransmission for minutes -- the exact hang try_dial exists to
  // bound. (A blackhole IP would be flakier: some sandboxes answer it.)
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in sin = {};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const struct sockaddr*>(&sin),
                   sizeof(sin)),
            0);
  ASSERT_EQ(::listen(fd, 0), 0);
  socklen_t len = sizeof(sin);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&sin), &len),
            0);
  const SocketAddress address = SocketAddress::parse(
      "127.0.0.1:" + std::to_string(ntohs(sin.sin_port)));

  std::vector<Socket> queue_fill;  // completed connects stay open
  bool timed_out = false;
  const Timer timer;
  for (int attempt = 0; attempt < 16 && !timed_out; ++attempt) {
    std::optional<Socket> socket = Socket::try_dial(address, 0.3);
    if (socket.has_value()) {
      queue_fill.push_back(std::move(*socket));
    } else {
      timed_out = true;
    }
  }
  EXPECT_TRUE(timed_out) << "the accept queue never filled";
  EXPECT_LT(timer.seconds(), 30.0);  // bounded, unlike a blocking connect
  ::close(fd);
}

TEST(SocketTransport, TryDialReachesALiveListener) {
  ListenSocket listener = loopback_listener();
  std::optional<Socket> client =
      Socket::try_dial(listener.local_address(), 5.0);
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> served = listener.accept(/*timeout_ms=*/5000);
  ASSERT_TRUE(served.has_value());
  // The returned socket must be back in blocking mode: a blocking read
  // on the server side sees the client's bytes, no EAGAIN surprises.
  SocketStream client_stream(std::move(*client));
  SocketStream server_stream(std::move(*served));
  client_stream.out() << "ping\n" << std::flush;
  std::string line;
  std::getline(server_stream.in(), line);
  EXPECT_EQ(line, "ping");
}

TEST(SocketTransport, CleanEofIsNotATransportError) {
  ListenSocket listener = loopback_listener();
  std::optional<Socket> client =
      Socket::try_dial(listener.local_address(), 5.0);
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> served = listener.accept(/*timeout_ms=*/5000);
  ASSERT_TRUE(served.has_value());
  SocketStream server_stream(std::move(*served));
  client.reset();  // orderly close: FIN, not RST
  std::string line;
  EXPECT_FALSE(std::getline(server_stream.in(), line));
  EXPECT_TRUE(server_stream.saw_eof());
  EXPECT_EQ(server_stream.read_errno(), 0);
}

TEST(SocketTransport, ResetConnectionReportsReadErrno) {
  ListenSocket listener = loopback_listener();
  std::optional<Socket> client =
      Socket::try_dial(listener.local_address(), 5.0);
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> served = listener.accept(/*timeout_ms=*/5000);
  ASSERT_TRUE(served.has_value());
  SocketStream server_stream(std::move(*served));
  // SO_LINGER{on, 0} turns close() into an abortive RST -- the shape of
  // a crashed peer, as opposed to the clean FIN above.
  const struct linger abort_on_close = {1, 0};
  ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                         sizeof(abort_on_close)),
            0);
  client.reset();
  std::string line;
  EXPECT_FALSE(std::getline(server_stream.in(), line));
  EXPECT_NE(server_stream.read_errno(), 0);  // ECONNRESET on Linux
  EXPECT_FALSE(server_stream.saw_eof());
}

TEST(SocketTransport, BindRefusesToClobberLiveUnixSocket) {
  const std::string path =
      "/tmp/pooled_bind_guard_" + std::to_string(::getpid()) + ".sock";
  const SocketAddress address = SocketAddress::parse("unix:" + path);
  ListenSocket first = ListenSocket::bind_and_listen(address);
  try {
    ListenSocket second = ListenSocket::bind_and_listen(address);
    FAIL() << "binding over a live unix socket must throw, not clobber it";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error should name the contested address: " << e.what();
  }
  // The loser must not have unlinked the winner's socket out from under
  // it: the path still answers.
  EXPECT_TRUE(Socket::try_dial(address, 5.0).has_value());
}

TEST(SocketTransport, StaleUnixSocketFileIsReclaimed) {
  const std::string path =
      "/tmp/pooled_stale_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  // A crashed server's leftovers: a bound socket file nobody listens on.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_un sun = {};
  sun.sun_family = AF_UNIX;
  std::strncpy(sun.sun_path, path.c_str(), sizeof(sun.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const struct sockaddr*>(&sun),
                   sizeof(sun)),
            0);
  ::close(fd);  // the file stays behind
  ListenSocket listener =
      ListenSocket::bind_and_listen(SocketAddress::parse("unix:" + path));
  EXPECT_TRUE(listener.valid());
}

TEST(ServeServer, StartsOnEphemeralPortAndStopsCleanly) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  EXPECT_NE(server.address().port, 0);  // the kernel's pick was resolved
  server.start();
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(counter(server, "serve.connections_accepted"), 0u);
}

TEST(ServeServer, ServesOneConnectionEndToEnd) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  SocketStream client(Socket::dial(server.address()));
  std::vector<std::uint32_t> truth;
  DecodeJob scored = sample_job(21, &truth);
  scored.truth_support = truth;
  save_job(client.out(), scored);
  DecodeJob seeded = sample_job(21, nullptr, "random");
  seeded.rng_seed = 7;
  save_job(client.out(), seeded);
  client.out().flush();
  client.socket().shutdown_write();  // no more requests

  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(reports[0].index, 0u);
  EXPECT_TRUE(reports[0].exact);
  EXPECT_TRUE(reports[1].ok()) << reports[1].error;
  EXPECT_EQ(reports[1].index, 1u);
  EXPECT_EQ(reports[1].decoder_name, "random-guess");

  // The seed must round-trip through the wire: the same seeded job via
  // the local engine reproduces the socket-served support.
  const DecodeReport local = engine.run_one(seeded);
  EXPECT_EQ(reports[1].support, local.support);

  server.stop();
  const MetricsSnapshot stats = server.build_snapshot();
  EXPECT_EQ(stats.counter_value("serve.connections_accepted"), 1u);
  EXPECT_EQ(stats.counter_value("serve.jobs_served"), 2u);
  EXPECT_EQ(stats.counter_value("serve.jobs_failed"), 0u);
  EXPECT_EQ(stats.counter_value("serve.connections_reaped"), 0u);
}

TEST(ServeServer, ServesConcurrentClientsWithIndependentIndices) {
  ThreadPool pool(2);
  EngineOptions engine_options;
  engine_options.max_in_flight = 2;  // force multiple windows per connection
  const BatchEngine engine(pool, engine_options);
  ServeServer server(loopback_listener(), engine);
  server.start();

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 3;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        SocketStream client(Socket::dial(server.address()));
        std::vector<std::uint32_t> truth;
        for (int j = 0; j < kJobsPerClient; ++j) {
          DecodeJob job = sample_job(1000 + 10 * c + j, &truth);
          job.truth_support = truth;
          save_job(client.out(), job);
        }
        client.out().flush();
        client.socket().shutdown_write();
        const auto reports = drain_reports(client.in());
        if (reports.size() != kJobsPerClient) {
          failures[c] = "expected " + std::to_string(kJobsPerClient) +
                        " reports, got " + std::to_string(reports.size());
          return;
        }
        for (int j = 0; j < kJobsPerClient; ++j) {
          // Indices are connection-global, independent of other clients.
          if (reports[j].index != static_cast<std::size_t>(j)) {
            failures[c] = "bad index " + std::to_string(reports[j].index);
            return;
          }
          if (!reports[j].ok()) {
            failures[c] = reports[j].error;
            return;
          }
          if (!reports[j].exact) {
            failures[c] = "job " + std::to_string(j) + " not exact";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& thread : clients) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  server.stop();
  const MetricsSnapshot stats = server.build_snapshot();
  EXPECT_EQ(stats.counter_value("serve.connections_accepted"), kClients);
  EXPECT_EQ(stats.counter_value("serve.jobs_served"),
            kClients * kJobsPerClient);
  EXPECT_EQ(stats.counter_value("serve.jobs_failed"), 0u);
}

TEST(ServeServer, MixedV1AndV2FramesShareOneConnection) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  std::vector<std::uint32_t> truth;
  const DecodeJob job = sample_job(31, &truth);
  // Hand-written v1 frame (the PR-2 format) followed by a v2 frame with
  // v2-only options: version negotiation is per frame.
  std::ostringstream v1_frame;
  v1_frame << "pooled-job v1\ndecoder mn\nk " << job.k << "\ninstance\n";
  save_instance(v1_frame, *job.spec);
  v1_frame << "end\n";

  SocketStream client(Socket::dial(server.address()));
  client.out() << v1_frame.str();
  DecodeJob v2_job = job;
  v2_job.decoder = "adaptive:mn:L=16";
  v2_job.rounds = 12;
  save_job(client.out(), v2_job);
  client.out().flush();
  client.socket().shutdown_write();

  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(reports[0].decoder_name, "mn");
  EXPECT_TRUE(reports[1].ok()) << reports[1].error;
  EXPECT_EQ(reports[1].decoder_name, "adaptive-mn-L16");
  EXPECT_GE(reports[1].rounds, 1u);
  // Same instance, same estimate, either protocol version.
  EXPECT_EQ(reports[0].support, reports[1].support);
  server.stop();
}

TEST(ServeServer, RejectsV2FieldsInsideV1FramesWithAnErrorFrame) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  {
    SocketStream client(Socket::dial(server.address()));
    // `seed` is v2-only: inside a v1 frame the parse must fail loudly
    // and come back as the connection's final error frame.
    client.out() << "pooled-job v1\ndecoder random\nk 4\nseed 7\n";
    client.out().flush();
    client.socket().shutdown_write();
    const auto reports = drain_reports(client.in());
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_FALSE(reports[0].ok());
    EXPECT_NE(reports[0].error.find("protocol error"), std::string::npos)
        << reports[0].error;
    EXPECT_NE(reports[0].error.find("v2"), std::string::npos)
        << reports[0].error;
  }

  // The parse error poisoned one connection, not the server.
  SocketStream next(Socket::dial(server.address()));
  save_job(next.out(), sample_job(32, nullptr));
  next.out().flush();
  next.socket().shutdown_write();
  const auto reports = drain_reports(next.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;

  server.stop();
  EXPECT_GE(counter(server, "serve.jobs_failed"), 1u);
}

TEST(ServeServer, ClientDisconnectMidDecodeCancelsInFlightJobs) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServerOptions options;
  options.probe_seconds = 0.02;  // detect the drop fast
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  {
    // Send a long noisy round-by-round decode, then vanish without
    // reading anything -- the abandoned-client scenario.
    SocketStream client(Socket::dial(server.address()));
    save_job(client.out(), long_running_job(41));
    client.out().flush();
    // Vanish only once the job left the queue for its window: a cancel
    // that beats the pop drops the job unscheduled (nothing to count),
    // which a loaded machine otherwise hits now and then.
    wait_until(
        [&] {
          const MetricsSnapshot snapshot = server.build_snapshot();
          const MetricValue* depth = snapshot.find("serve.queue_depth");
          return depth != nullptr && depth->peak >= 1 && depth->value == 0;
        },
        "the decode to start");
  }  // full close, no shutdown_write handshake

  // The dead peer must be noticed and the connection's cancel token
  // flipped; the in-flight adaptive decode then stops at its next round
  // boundary instead of grinding through 600 rounds. Two detection
  // paths race, both valid: the reaper's probe write fails (reaped), or
  // that same probe provokes an RST that fails the reader's recv first
  // (errored). Which one wins is pure scheduling -- under TSan the
  // reader regularly loses its clean EOF to the probe's RST.
  wait_until([&] { return counter(server, "serve.jobs_cancelled") >= 1; },
             "the in-flight decode to be cancelled");

  // The workers are back: a live client is served promptly.
  SocketStream next(Socket::dial(server.address()));
  save_job(next.out(), sample_job(42, nullptr));
  next.out().flush();
  next.socket().shutdown_write();
  const auto reports = drain_reports(next.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;

  // The reaped connection and the cancelled (still-delivered-or-dropped)
  // job are visible to a stats consumer, and nothing counted as a clean
  // failure.
  const MetricsSnapshot snapshot = server.build_snapshot();
  EXPECT_GE(snapshot.counter_value("serve.connections_reaped") +
                snapshot.counter_value("serve.connections_errored"),
            1u);
  EXPECT_GE(snapshot.counter_value("serve.jobs_cancelled"), 1u);
  EXPECT_EQ(snapshot.counter_value("serve.jobs_failed"), 0u);
  // `next` may or may not have finished winding down by now, so only the
  // gauge's bounds are deterministic, not its instantaneous value.
  const MetricValue* active = snapshot.find("serve.connections_active");
  ASSERT_NE(active, nullptr);
  EXPECT_GE(active->value, 0);
  EXPECT_LE(active->value, 1);
  EXPECT_GE(active->peak, 1);

  server.stop();  // must not hang on the torn-down connection
}

TEST(ServeServer, ResetPeerCountsAsErroredNotCleanHalfClose) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  {
    // Send a long decode, then RST (a crashed client, not an orderly
    // half-close). The reader must see the transport error, cancel the
    // connection's queued work, and count it as errored.
    SocketStream client(Socket::dial(server.address()));
    save_job(client.out(), long_running_job(43));
    client.out().flush();
    const struct linger abort_on_close = {1, 0};
    ::setsockopt(client.socket().fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                 sizeof(abort_on_close));
  }  // close -> RST

  wait_until([&] { return counter(server, "serve.connections_errored") >= 1; },
             "errored-connection accounting");

  // A clean half-close stays a clean half-close: served, not errored.
  SocketStream next(Socket::dial(server.address()));
  save_job(next.out(), sample_job(44, nullptr));
  next.out().flush();
  next.socket().shutdown_write();
  const auto reports = drain_reports(next.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(counter(server, "serve.connections_errored"), 1u);
  server.stop();
}

TEST(ServeServer, StatsFrameAnswersUnderConcurrentLoad) {
  ThreadPool pool(4);
  ResultCache cache(64);
  EngineOptions engine_options;
  engine_options.cache = &cache;
  const BatchEngine engine(pool, engine_options);
  ServeServer server(loopback_listener(), engine);
  server.start();
  // The connection gauge has one source, so no snapshot -- however it
  // races admissions and teardowns -- reads a level above its peak.
  const auto expect_sane_gauges = [](const MetricsSnapshot& snapshot) {
    for (const char* name : {"serve.connections_active", "serve.queue_depth"}) {
      const MetricValue* gauge = snapshot.find(name);
      ASSERT_NE(gauge, nullptr) << name;
      EXPECT_LE(gauge->value, gauge->peak) << name;
      EXPECT_GE(gauge->value, 0) << name;
    }
  };

  // Three closed-loop clients, each sending the same spec repeatedly
  // (so the cache engages) while the main thread fires stats frames.
  constexpr int kClients = 3;
  constexpr int kJobsPerClient = 8;
  std::atomic<int> jobs_done{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SocketStream stream(Socket::dial(server.address()));
      for (int j = 0; j < kJobsPerClient; ++j) {
        save_job(stream.out(), sample_job(70 + c % 2, nullptr));
        stream.out().flush();
        const auto report = load_report(stream.in());
        ASSERT_TRUE(report.has_value());
        EXPECT_TRUE(report->ok()) << report->error;
        jobs_done.fetch_add(1);
      }
      stream.socket().shutdown_write();
      (void)drain_reports(stream.in());
    });
  }

  // A separate connection interrogates the server mid-load. The answer
  // must parse, reconcile with completed work (monotonic counters can
  // only trail jobs_done, never exceed what clients observed + inflight)
  // and never consume a job index on the probing connection.
  wait_until(
      [&] {
        expect_sane_gauges(server.build_snapshot());
        return jobs_done.load() >= kClients;
      },
      "the first window of jobs");
  SocketStream probe(Socket::dial(server.address()));
  save_stats_request(probe.out());
  probe.out().flush();
  const auto midload = load_stats_snapshot(probe.in());
  ASSERT_TRUE(midload.has_value());
  expect_sane_gauges(*midload);
  EXPECT_GE(midload->counter_value("serve.jobs_served"), 1u);
  EXPECT_GE(midload->gauge_value("serve.connections_active"), 1);
  EXPECT_NE(midload->find("serve.job_seconds"), nullptr);
  EXPECT_NE(midload->find("build.kernels"), nullptr);

  wait_until(
      [&] {
        expect_sane_gauges(server.build_snapshot());
        return jobs_done.load() >= kClients * kJobsPerClient;
      },
      "every job");
  for (std::thread& client : clients) client.join();

  // A second frame on the same probing connection: the final snapshot
  // reconciles exactly with the work the clients drove.
  save_stats_request(probe.out());
  probe.out().flush();
  const auto final_snapshot = load_stats_snapshot(probe.in());
  ASSERT_TRUE(final_snapshot.has_value());
  expect_sane_gauges(*final_snapshot);
  EXPECT_EQ(final_snapshot->counter_value("serve.jobs_served"),
            static_cast<std::uint64_t>(kClients) * kJobsPerClient);
  EXPECT_EQ(final_snapshot->counter_value("serve.jobs_failed"), 0u);
  EXPECT_EQ(final_snapshot->counter_value("serve.write_failures"), 0u);
  const CacheStats cache_stats = cache.stats();
  EXPECT_EQ(final_snapshot->counter_value("cache.hits"), cache_stats.hits);
  EXPECT_GE(cache_stats.hits, 1u);  // repeated specs really did hit
  EXPECT_EQ(final_snapshot->counter_value("engine.jobs_completed"),
            static_cast<std::uint64_t>(kClients) * kJobsPerClient);
  probe.socket().shutdown_write();
  server.stop();
  expect_sane_gauges(server.build_snapshot());
  EXPECT_EQ(counter(server, "serve.jobs_served"),
            static_cast<std::uint64_t>(kClients) * kJobsPerClient);
}

TEST(ServeServer, LostPeerCountsWriteFailuresNotServedJobs) {
  const std::string path =
      "/tmp/pooled_serve_wf_" + std::to_string(::getpid()) + ".sock";
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServerOptions options;
  // Keep the reaper out of the race: the peer vanishes *after* sending a
  // complete job, and we want the result write (not a probe) to trip on
  // the dead socket so the write_failures path is what gets exercised.
  options.probe_seconds = 10.0;
  ServeServer server(
      ListenSocket::bind_and_listen(SocketAddress::parse("unix:" + path)),
      engine, options);
  server.start();

  {
    SocketStream client(Socket::dial(SocketAddress::parse("unix:" + path)));
    save_job(client.out(), sample_job(81, nullptr));
    client.out().flush();
  }  // full close: the result frame has nowhere to go

  wait_until([&] { return counter(server, "serve.write_failures") >= 1; },
             "the result write to fail");
  EXPECT_EQ(counter(server, "serve.jobs_served"), 0u);  // dropped, not served
  server.stop();
}

TEST(ServeServer, DeadlineExpiredJobReportsStopDeadline) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  SocketStream client(Socket::dial(server.address()));
  DecodeJob job = long_running_job(43);
  job.deadline_seconds = 0.1;  // far below the full decode's wall time
  save_job(client.out(), job);
  client.out().flush();
  client.socket().shutdown_write();

  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(reports[0].stop, StopReason::Deadline);
  EXPECT_LT(reports[0].rounds, 600u);  // it really stopped early
  server.stop();
}

TEST(ServeServer, ServesOverUnixDomainSockets) {
  const std::string path =
      "/tmp/pooled_serve_test_" + std::to_string(::getpid()) + ".sock";
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(
      ListenSocket::bind_and_listen(SocketAddress::parse("unix:" + path)),
      engine);
  server.start();

  SocketStream client(Socket::dial(SocketAddress::parse("unix:" + path)));
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(51, &truth);
  job.truth_support = truth;
  save_job(client.out(), job);
  client.out().flush();
  client.socket().shutdown_write();
  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_TRUE(reports[0].exact);
  server.stop();
}

TEST(ServeServer, ProgressSinkEmitsUnderTheSocketServer) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  std::ostringstream progress_lines;
  ProgressStream progress(progress_lines);
  ServeServerOptions options;
  options.progress = &progress;
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  SocketStream client(Socket::dial(server.address()));
  DecodeJob job = sample_job(61, nullptr, "adaptive:mn:L=16");
  save_job(client.out(), job);
  client.out().flush();
  client.socket().shutdown_write();
  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  server.stop();

  // One line per round, tagged with the connection serial and the
  // connection-global job index (bare job indices would collide across
  // concurrent clients, which all number from zero).
  const std::string text = progress_lines.str();
  EXPECT_NE(text.find("progress conn=1 job=0 round=1 queries=16"),
            std::string::npos)
      << text;
}

TEST(ServeServer, DrainAnswersInFlightJobsThenSendsTheSummary) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServerOptions options;
  std::atomic<int> snapshots{0};
  options.on_drain = [&](DrainSummary& summary) {
    summary.cache_entries = 17;
    summary.snapshot_written = true;
    snapshots.fetch_add(1);
  };
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  // Jobs first, the drain frame after: both must be answered, results
  // before the summary.
  SocketStream client(Socket::dial(server.address()));
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(77, &truth);
  job.truth_support = truth;
  save_job(client.out(), job);
  save_job(client.out(), sample_job(78, nullptr, "random"));
  save_drain_request(client.out());
  client.out().flush();

  std::optional<DecodeReport> first = load_report(client.in());
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok()) << first->error;
  EXPECT_EQ(first->index, 0u);
  std::optional<DecodeReport> second = load_report(client.in());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->index, 1u);

  const std::optional<DrainSummary> summary =
      load_drain_summary(client.in());
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->jobs_served, 2u);
  EXPECT_EQ(summary->cache_entries, 17u);  // on_drain's edit round-trips
  EXPECT_TRUE(summary->snapshot_written);
  EXPECT_EQ(summary->write_failures, 0u);
  EXPECT_EQ(snapshots.load(), 1);
  EXPECT_TRUE(server.draining());

  // The summary is the connection's last frame.
  EXPECT_FALSE(load_report(client.in()).has_value());

  // A draining server refuses new connections: the handshake may still
  // complete (the kernel accepts before the server refuses), but the
  // connection closes without ever serving a job.
  wait_until([&] { return active_connections(server) == 0; },
             "drain to quiesce");
  SocketStream late(Socket::dial(server.address()));
  save_job(late.out(), sample_job(79, nullptr, "random"));
  late.out().flush();
  late.socket().shutdown_write();
  EXPECT_TRUE(drain_reports(late.in()).empty());

  server.stop();
  EXPECT_EQ(counter(server, "serve.jobs_served"), 2u);
}

std::string read_fixture(const std::string& name) {
  std::ifstream is(std::string(POOLED_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(static_cast<bool>(is)) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// What one request stream got back: result frames (wall time zeroed,
/// so they compare across runs), stats answers, and the drain summary.
struct Transcript {
  std::vector<std::string> results;
  std::size_t stats_frames = 0;
  std::optional<DrainSummary> drain;
};

Transcript transcribe(std::istream& responses) {
  Transcript transcript;
  while (std::optional<ServeResponse> response = load_response(responses)) {
    if (auto* report = std::get_if<DecodeReport>(&*response)) {
      report->seconds = 0.0;
      std::ostringstream frame;
      save_report(frame, *report);
      transcript.results.push_back(frame.str());
    } else if (std::holds_alternative<MetricsSnapshot>(*response)) {
      ++transcript.stats_frames;
    } else {
      transcript.drain = std::get<DrainSummary>(*response);
    }
  }
  return transcript;
}

Transcript serve_over_streams(const std::string& requests) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  std::istringstream in(requests);
  std::stringstream out;
  (void)ServeSession(in, out, engine).run();
  return transcribe(out);
}

Transcript serve_over_socket(const std::string& requests) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();
  Transcript transcript;
  {
    SocketStream client(Socket::dial(server.address()));
    client.out() << requests;
    client.out().flush();
    client.socket().shutdown_write();
    transcript = transcribe(client.in());
  }
  server.stop();
  return transcript;
}

TEST(ServeSession, OneStreamAnswersAlikeOverBothTransports) {
  // The golden v2 jobs with a stats probe between them, ending once in a
  // malformed frame and once in a drain: the stdin session and a socket
  // connection run the same session, so they must answer alike.
  const std::string golden = read_fixture("golden_v2_requests.txt");
  const std::size_t second_job = golden.find("pooled-job", 1);
  ASSERT_NE(second_job, std::string::npos);
  const std::string stream = golden.substr(0, second_job) +
                             "pooled-stats v2\nend\n" +
                             golden.substr(second_job);

  const std::string malformed = stream + "pooled-job v2\nbogus-field 1\n";
  const Transcript local_error = serve_over_streams(malformed);
  const Transcript socket_error = serve_over_socket(malformed);
  ASSERT_EQ(local_error.results.size(), 3u);  // two jobs, then the error
  EXPECT_EQ(socket_error.results, local_error.results);
  EXPECT_NE(local_error.results.back().find("status error protocol error: "),
            std::string::npos)
      << local_error.results.back();
  EXPECT_NE(local_error.results.back().find("unknown job field 'bogus-field'"),
            std::string::npos)
      << local_error.results.back();
  EXPECT_EQ(local_error.stats_frames, 1u);
  EXPECT_EQ(socket_error.stats_frames, 1u);

  const std::string drained = stream + "pooled-drain v2\nend\n";
  const Transcript local_drain = serve_over_streams(drained);
  const Transcript socket_drain = serve_over_socket(drained);
  ASSERT_EQ(local_drain.results.size(), 2u);
  EXPECT_EQ(socket_drain.results, local_drain.results);
  EXPECT_EQ(std::vector<std::string>(local_error.results.begin(),
                                     local_error.results.end() - 1),
            local_drain.results);
  EXPECT_EQ(local_drain.stats_frames, 1u);
  EXPECT_EQ(socket_drain.stats_frames, 1u);
  ASSERT_TRUE(local_drain.drain.has_value());
  ASSERT_TRUE(socket_drain.drain.has_value());
  EXPECT_EQ(local_drain.drain->jobs_served, 2u);
  EXPECT_EQ(socket_drain.drain->jobs_served, local_drain.drain->jobs_served);
}

TEST(ServeServer, BeginDrainWithoutAConnectionQuiescesTheServer) {
  // The SIGTERM path: no drain frame, no summary owed -- the flag flips
  // and live connections (none here) are swept.
  ThreadPool pool(1);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();
  EXPECT_FALSE(server.draining());
  server.begin_drain();
  EXPECT_TRUE(server.draining());
  wait_until([&] { return active_connections(server) == 0; },
             "idle server to quiesce");
  server.stop();
}

}  // namespace
}  // namespace pooled
