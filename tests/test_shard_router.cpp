// Shard router: digest-affinity routing, submission-order merge, real
// SIGKILL failover onto survivors, and readmission after restart.
//
// The failover tests need shards that die like crashed processes (RST /
// vanished fd, not an orderly shutdown), so they fork()+exec() real
// children running a ServeServer and SIGKILL them mid-batch. The exec
// (of this same binary, in --shard-child mode; see main) matters: a
// bare fork from a threaded parent inherits locks held by non-forked
// threads, and ThreadSanitizer refuses to start threads in such a child
// outright. Each child reports its bound port over a pipe.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.hpp"
#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/serve_server.hpp"
#include "engine/shard_router.hpp"
#include "engine/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

using std::chrono::steady_clock;

/// Spec-backed job over a fresh teacher instance.
DecodeJob sample_job(std::uint64_t seed, std::uint32_t n = 300,
                     std::uint32_t k = 5, std::uint32_t m = 220) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = n;
  params.seed = seed;
  const Signal truth = Signal::random(n, k, seed ^ 0x51D);
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, m, truth, pool);
  job.decoder = "mn";
  job.k = k;
  return job;
}

/// A job that runs for ~deadline_ms wall-clock: noisy enough that the
/// adaptive decoder never converges, so the deadline is what stops it
/// (status stays ok). Slow on purpose -- a SIGKILL mid-batch must land
/// while jobs are genuinely in flight. OMP re-decodes the whole prefix
/// every round, seconds in all; an MN inner would finish in milliseconds.
DecodeJob slow_job(std::uint64_t seed, double deadline_ms) {
  DecodeJob job = sample_job(seed, /*n=*/600, /*k=*/6, /*m=*/600);
  job.decoder = "adaptive:omp:L=1";
  job.noise = NoiseModel::symmetric(0.3, 11);
  job.deadline_seconds = deadline_ms / 1000.0;
  return job;
}

/// Polls until `predicate` holds; fails the test on timeout.
template <typename Predicate>
void wait_until(Predicate predicate, const char* what,
                double timeout_seconds = 30.0) {
  const auto deadline =
      steady_clock::now() + std::chrono::duration<double>(timeout_seconds);
  while (!predicate()) {
    ASSERT_LT(steady_clock::now(), deadline) << "timed out waiting for " << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ---------------------------------------------------------------------
// In-process shard fleet (for tests that never kill a shard).

struct LocalFleet {
  explicit LocalFleet(std::size_t count) : pool(2), engine(pool) {
    for (std::size_t i = 0; i < count; ++i) {
      servers.push_back(std::make_unique<ServeServer>(
          ListenSocket::bind_and_listen(SocketAddress::parse("127.0.0.1:0")),
          engine));
      servers.back()->start();
      addresses.push_back(servers.back()->address());
    }
  }
  ~LocalFleet() {
    for (const auto& server : servers) server->stop();
  }

  ThreadPool pool;
  BatchEngine engine;
  std::vector<std::unique_ptr<ServeServer>> servers;
  std::vector<SocketAddress> addresses;
};

// ---------------------------------------------------------------------
// Exec'd shard children (for tests that SIGKILL or restart a shard).

/// The child side of spawn_shard: serves decode requests on
/// 127.0.0.1:`port` (0 = kernel's pick) until SIGKILLed, reporting the
/// bound port over `ready_fd`. Runs in a freshly exec'd copy of this
/// binary (dispatched from main), so it is single-threaded at birth no
/// matter how many threads the test already has.
int run_shard_child(std::uint16_t port, int ready_fd) {
  try {
    const SocketAddress address =
        SocketAddress::parse("127.0.0.1:" + std::to_string(port));
    std::optional<ListenSocket> listener;
    // A restarted shard rebinds its predecessor's port; give the
    // kernel a moment to release it.
    for (int attempt = 0; attempt < 100 && !listener; ++attempt) {
      try {
        listener.emplace(ListenSocket::bind_and_listen(address));
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    if (!listener) return 3;
    ThreadPool pool(2);
    const BatchEngine engine(pool);
    ServeServer server(std::move(*listener), engine);
    server.start();
    const std::uint16_t bound = server.address().port;
    if (::write(ready_fd, &bound, sizeof(bound)) != sizeof(bound)) return 4;
    ::close(ready_fd);
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  } catch (...) {
    return 2;
  }
}

struct ShardProcess {
  ShardProcess() = default;
  ShardProcess(ShardProcess&& other) noexcept
      : pid(other.pid), port(other.port) {
    other.pid = -1;
  }
  ShardProcess& operator=(ShardProcess&& other) noexcept {
    if (this != &other) {
      reap();
      pid = other.pid;
      port = other.port;
      other.pid = -1;
    }
    return *this;
  }
  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;
  // SIGKILL on destruction: a test that fails mid-body must not leak a
  // child, because the child inherits the test's stdout pipe and ctest
  // would wait on its EOF forever.
  ~ShardProcess() { reap(); }

  void reap() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }

  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Spawns a shard-server child via fork+exec of this binary (see
/// run_shard_child) and waits for its bound port. Safe to call from a
/// test that already has threads running.
ShardProcess spawn_shard(std::uint16_t port) {
  int ready_pipe[2];
  POOLED_REQUIRE(::pipe(ready_pipe) == 0, "pipe failed");
  // Argument strings are built *before* fork: between fork and exec in
  // a threaded parent only async-signal-safe calls are allowed (another
  // thread may have held the allocator lock at fork time).
  const std::string port_arg = std::to_string(port);
  const std::string fd_arg = std::to_string(ready_pipe[1]);
  char* const child_argv[] = {
      const_cast<char*>("test_shard_router"),
      const_cast<char*>("--shard-child"),
      const_cast<char*>(port_arg.c_str()),
      const_cast<char*>(fd_arg.c_str()),
      nullptr,
  };
  const pid_t pid = ::fork();
  POOLED_REQUIRE(pid >= 0, "fork failed");
  if (pid == 0) {
    // Child: close the read end and become a fresh shard server. The
    // write end rides through exec (pipe() sets no O_CLOEXEC).
    ::close(ready_pipe[0]);
    ::execv("/proc/self/exe", child_argv);
    ::_exit(127);  // exec failed
  }
  ::close(ready_pipe[1]);
  ShardProcess shard;
  shard.pid = pid;
  const ssize_t got = ::read(ready_pipe[0], &shard.port, sizeof(shard.port));
  ::close(ready_pipe[0]);
  POOLED_REQUIRE(got == static_cast<ssize_t>(sizeof(shard.port)),
                 "shard child died before reporting a port");
  return shard;
}

void kill_shard(ShardProcess& shard) { shard.reap(); }

// ---------------------------------------------------------------------

TEST(ShardRouter, AffinityRoutesADigestToOneShardDeterministically) {
  LocalFleet fleet(3);
  ShardRouterOptions options;
  ShardRouter router(fleet.addresses, options);
  router.start();
  wait_until([&] { return router.alive_count() == 3; }, "fleet up");

  // Three distinct instances, four decodes each, interleaved. Affinity
  // must pin each instance to exactly one shard (that shard's result
  // cache is the one that can serve the repeats).
  std::vector<DecodeJob> jobs;
  std::vector<std::size_t> expected_shard;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (std::uint64_t which = 0; which < 3; ++which) {
      jobs.push_back(sample_job(100 + which));
      expected_shard.push_back(
          router.shard_for_digest(instance_digest(*jobs.back().spec)));
    }
  }
  const std::vector<DecodeReport> reports = router.route(jobs);
  ASSERT_EQ(reports.size(), jobs.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i].ok()) << reports[i].error;
    EXPECT_EQ(reports[i].index, i);  // merged in submission order
  }
  // shard_for_digest is a pure function of (digest, alive set): repeats
  // of one instance agree on their shard.
  for (std::size_t i = 3; i < expected_shard.size(); ++i) {
    EXPECT_EQ(expected_shard[i], expected_shard[i % 3]);
  }
  // ...and the per-shard counters agree with the prediction.
  std::map<std::size_t, std::uint64_t> predicted;
  for (const std::size_t shard : expected_shard) ++predicted[shard];
  const std::vector<ShardStatus> statuses = router.shard_statuses();
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_EQ(statuses[i].jobs_sent, predicted[i])
        << "shard " << i << " traffic does not match the rendezvous pick";
  }
  router.stop();
}

TEST(ShardRouter, RoundRobinSpreadsWithoutAffinity) {
  LocalFleet fleet(3);
  ShardRouterOptions options;
  options.affinity = false;
  ShardRouter router(fleet.addresses, options);
  router.start();
  wait_until([&] { return router.alive_count() == 3; }, "fleet up");

  std::vector<DecodeJob> jobs;
  for (std::uint64_t seed = 0; seed < 9; ++seed) {
    jobs.push_back(sample_job(200 + seed));
  }
  const std::vector<DecodeReport> reports = router.route(jobs);
  ASSERT_EQ(reports.size(), 9u);
  for (const ShardStatus& status : router.shard_statuses()) {
    EXPECT_EQ(status.jobs_sent, 3u);
    EXPECT_EQ(status.results_received, 3u);
  }
  router.stop();
}

TEST(ShardRouter, FleetStatsMergeEveryShardSnapshot) {
  LocalFleet fleet(2);
  ShardRouter router(fleet.addresses);
  router.start();
  wait_until([&] { return router.alive_count() == 2; }, "fleet up");
  (void)router.route({sample_job(300), sample_job(301)});

  const MetricsSnapshot snapshot = router.build_snapshot();
  std::set<std::string> names;
  for (const MetricValue& value : snapshot.values) names.insert(value.name);
  EXPECT_TRUE(names.count("route.jobs_submitted"));
  EXPECT_TRUE(names.count("route.shards_alive"));
  EXPECT_TRUE(names.count("route.job_seconds"));
  EXPECT_TRUE(names.count("route.shard0.address"));
  EXPECT_TRUE(names.count("route.shard1.address"));
  // Each live backend's own snapshot rides along, name-prefixed.
  EXPECT_TRUE(names.count("shard0.serve.jobs_served"));
  EXPECT_TRUE(names.count("shard1.serve.jobs_served"));
  router.stop();
}

// ---------------------------------------------------------------------
// Misbehaving stats backends: a raw socket server that admits the
// router's dial but answers the fleet-stats probe wrong. build_snapshot
// must never wedge or crash on these -- a garbled or truncated snapshot
// is a dead shard, a silent one is bounded by stats_timeout_seconds, and
// a well-formed empty one is simply a shard with nothing to report.

class FakeShard {
 public:
  enum class Behavior {
    kGarbageStats,    ///< answers the probe with an unparseable frame
    kTruncatedStats,  ///< valid prefix, no `end`, then drops the socket
    kSilent,          ///< accepts the probe and never answers
    kEmptySnapshot,   ///< well-formed `status ok` frame with zero metrics
  };

  explicit FakeShard(Behavior behavior)
      : behavior_(behavior),
        listener_(ListenSocket::bind_and_listen(
            SocketAddress::parse("127.0.0.1:0"))),
        thread_([this] { serve(); }) {}

  ~FakeShard() {
    // Join before closing: accept() polls the listener and rechecks
    // stop_, and closing an fd another thread still polls is a race.
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    listener_.close();
  }

  [[nodiscard]] const SocketAddress& address() const {
    return listener_.local_address();
  }

 private:
  void serve() {
    while (!stop_.load()) {
      std::optional<Socket> accepted = listener_.accept(/*timeout_ms=*/50);
      if (!accepted) continue;
      SocketStream stream(std::move(*accepted));
      std::string line;
      bool drop_connection = false;
      // Each `end` line closes one request frame (the probe sends
      // `pooled-stats v2\nend\n`); answer it per the behavior.
      while (!drop_connection && std::getline(stream.in(), line)) {
        if (line != "end") continue;
        switch (behavior_) {
          case Behavior::kGarbageStats:
            stream.out() << "pooled-stats-result v2\nstatus ok\n"
                            "blob serve.x 12\nend\n";
            break;
          case Behavior::kTruncatedStats:
            stream.out() << "pooled-stats-result v2\nstatus ok\n"
                            "counter serve.jobs_served 1\n";
            drop_connection = true;
            break;
          case Behavior::kSilent:
            break;
          case Behavior::kEmptySnapshot:
            stream.out() << "pooled-stats-result v2\nstatus ok\nend\n";
            break;
        }
        stream.out().flush();
      }
    }
  }

  Behavior behavior_;
  std::atomic<bool> stop_{false};
  ListenSocket listener_;
  std::thread thread_;
};

std::set<std::string> snapshot_names(const MetricsSnapshot& snapshot) {
  std::set<std::string> names;
  for (const MetricValue& value : snapshot.values) names.insert(value.name);
  return names;
}

bool any_with_prefix(const std::set<std::string>& names,
                     const std::string& prefix) {
  const auto it = names.lower_bound(prefix);
  return it != names.end() && it->compare(0, prefix.size(), prefix) == 0;
}

TEST(ShardRouter, GarbledStatsFrameKillsTheShardNotTheSnapshot) {
  LocalFleet fleet(1);
  FakeShard fake(FakeShard::Behavior::kGarbageStats);
  ShardRouterOptions options;
  options.stats_timeout_seconds = 5.0;
  ShardRouter router({fleet.addresses[0], fake.address()}, options);
  router.start();
  wait_until([&] { return router.alive_count() == 2; }, "fleet up");

  const std::set<std::string> names = snapshot_names(router.build_snapshot());
  // The healthy shard's snapshot rides along; the garbled one's cannot,
  // and the reader treats its lost framing as shard death.
  EXPECT_TRUE(names.count("route.shards_alive"));
  EXPECT_TRUE(names.count("shard0.serve.jobs_served"));
  EXPECT_FALSE(any_with_prefix(names, "shard1."));
  // `alive` may flap (the prober happily re-dials the fake), so wait on
  // the monotonic loss counter instead.
  wait_until([&] { return router.shard_statuses()[1].times_lost >= 1; },
             "garbled shard declared dead");
  router.stop();
}

TEST(ShardRouter, TruncatedStatsFrameIsAShardDeathNotAHang) {
  LocalFleet fleet(1);
  FakeShard fake(FakeShard::Behavior::kTruncatedStats);
  ShardRouterOptions options;
  options.stats_timeout_seconds = 5.0;
  ShardRouter router({fleet.addresses[0], fake.address()}, options);
  router.start();
  wait_until([&] { return router.alive_count() == 2; }, "fleet up");

  const auto started = steady_clock::now();
  const std::set<std::string> names = snapshot_names(router.build_snapshot());
  // The mid-frame EOF unblocks the probe well before the stats timeout:
  // on_shard_down clears the pending flag instead of letting it expire.
  EXPECT_LT(std::chrono::duration<double>(steady_clock::now() - started)
                .count(),
            options.stats_timeout_seconds);
  EXPECT_TRUE(names.count("shard0.serve.jobs_served"));
  EXPECT_FALSE(any_with_prefix(names, "shard1."));
  router.stop();
}

TEST(ShardRouter, SilentStatsBackendIsBoundedByTheProbeTimeout) {
  LocalFleet fleet(1);
  FakeShard fake(FakeShard::Behavior::kSilent);
  ShardRouterOptions options;
  options.stats_timeout_seconds = 0.4;
  ShardRouter router({fleet.addresses[0], fake.address()}, options);
  router.start();
  wait_until([&] { return router.alive_count() == 2; }, "fleet up");

  const auto started = steady_clock::now();
  const std::set<std::string> names = snapshot_names(router.build_snapshot());
  const double elapsed =
      std::chrono::duration<double>(steady_clock::now() - started).count();
  EXPECT_GE(elapsed, options.stats_timeout_seconds * 0.5);
  EXPECT_LT(elapsed, 5.0) << "silent backend wedged the stats probe";
  // Never answering is not a protocol violation: the shard stays alive
  // and merely contributes nothing to this snapshot.
  EXPECT_TRUE(names.count("shard0.serve.jobs_served"));
  EXPECT_FALSE(any_with_prefix(names, "shard1."));
  EXPECT_TRUE(router.shard_statuses()[1].alive);
  router.stop();
}

TEST(ShardRouter, WellFormedEmptySnapshotIsNotADeath) {
  FakeShard fake(FakeShard::Behavior::kEmptySnapshot);
  ShardRouterOptions options;
  options.stats_timeout_seconds = 5.0;
  ShardRouter router({fake.address()}, options);
  router.start();
  wait_until([&] { return router.alive_count() == 1; }, "shard up");

  const std::set<std::string> names = snapshot_names(router.build_snapshot());
  EXPECT_TRUE(names.count("route.shards_alive"));
  EXPECT_TRUE(names.count("route.shard0.address"));
  EXPECT_FALSE(any_with_prefix(names, "shard0.serve."));
  EXPECT_TRUE(router.shard_statuses()[0].alive)
      << "an empty-but-valid snapshot must not count as shard death";
  router.stop();
}

TEST(ShardRouter, RoutedStreamAnswersStatsInline) {
  LocalFleet fleet(2);
  ShardRouter router(fleet.addresses);
  router.start();
  wait_until([&] { return router.alive_count() == 2; }, "fleet up");

  std::ostringstream requests;
  save_job(requests, sample_job(400));
  save_stats_request(requests);
  save_job(requests, sample_job(401));
  std::istringstream in(requests.str());
  std::ostringstream out;
  EXPECT_EQ(route_requests(in, out, router), 2u);
  router.stop();

  // The stats frame answers in place; result frames keep submission
  // order around it.
  std::istringstream replay(out.str());
  std::size_t results = 0;
  std::size_t stats = 0;
  std::size_t expected_index = 0;
  while (auto response = load_response(replay)) {
    if (auto* report = std::get_if<DecodeReport>(&(*response))) {
      EXPECT_EQ(report->index, expected_index++);
      ++results;
    } else {
      ++stats;
    }
  }
  EXPECT_EQ(results, 2u);
  EXPECT_EQ(stats, 1u);
}

TEST(ShardRouter, SigkilledShardFailsOverWithoutLosingJobs) {
  // Fork the fleet FIRST: the parent has no threads yet.
  std::vector<ShardProcess> shards;
  for (int i = 0; i < 3; ++i) shards.push_back(spawn_shard(0));

  std::vector<SocketAddress> addresses;
  for (const ShardProcess& shard : shards) {
    addresses.push_back(
        SocketAddress::parse("127.0.0.1:" + std::to_string(shard.port)));
  }
  ShardRouterOptions options;
  options.affinity = false;  // spread the batch over all three
  ShardRouter router(addresses, options);
  router.start();
  wait_until([&] { return router.alive_count() == 3; }, "fleet up");

  constexpr std::size_t kJobs = 18;
  std::vector<std::uint64_t> indices;
  for (std::size_t i = 0; i < kJobs; ++i) {
    indices.push_back(router.submit(slow_job(500 + i, /*deadline_ms=*/400)));
  }
  // SIGKILL one backend while its share of the batch is in flight. No
  // orderly shutdown: in-flight results are simply never answered.
  kill_shard(shards[0]);
  wait_until([&] { return router.alive_count() == 2; }, "death detection");

  std::vector<DecodeReport> reports;
  for (const std::uint64_t index : indices) {
    reports.push_back(router.wait(index));
  }
  // Zero lost, zero duplicated, submission order preserved.
  ASSERT_EQ(reports.size(), kJobs);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i].ok()) << reports[i].error;
    EXPECT_EQ(reports[i].index, i);
  }
  const MetricsSnapshot fleet = router.build_snapshot();
  EXPECT_EQ(fleet.counter_value("route.results_merged"), kJobs);
  EXPECT_GE(fleet.counter_value("route.shards_lost"), 1u);
  const std::vector<ShardStatus> statuses = router.shard_statuses();
  EXPECT_FALSE(statuses[0].alive);
  EXPECT_GE(statuses[0].times_lost, 1u);
  // The survivors answered everything they were sent.
  EXPECT_EQ(statuses[1].results_received, statuses[1].jobs_sent);
  EXPECT_EQ(statuses[2].results_received, statuses[2].jobs_sent);
  router.stop();
  for (ShardProcess& shard : shards) kill_shard(shard);
}

TEST(ShardRouter, RestartedShardIsReadmittedAndServesAgain) {
  std::vector<ShardProcess> shards;
  for (int i = 0; i < 2; ++i) shards.push_back(spawn_shard(0));
  const std::uint16_t recycled_port = shards[0].port;

  std::vector<SocketAddress> addresses;
  for (const ShardProcess& shard : shards) {
    addresses.push_back(
        SocketAddress::parse("127.0.0.1:" + std::to_string(shard.port)));
  }
  ShardRouterOptions options;
  options.affinity = false;
  ShardRouter router(addresses, options);
  router.start();
  wait_until([&] { return router.alive_count() == 2; }, "fleet up");

  kill_shard(shards[0]);
  wait_until([&] { return router.alive_count() == 1; }, "death detection");
  // Traffic continues on the survivor while shard 0 is down.
  EXPECT_TRUE(router.route({sample_job(600)})[0].ok());

  // Restart: a new process takes over the dead shard's port. The prober
  // must readmit it and traffic must flow to it again, no operator
  // action involved.
  shards[0] = spawn_shard(recycled_port);
  wait_until([&] { return router.alive_count() == 2; }, "readmission");
  // At least one readmission; possibly more. (A SIGKILLed process's fds
  // close one by one, so the prober can briefly win a connection into
  // the dying listener's backlog and lose it to an RST -- the router
  // rides out that flap by design.)
  EXPECT_GE(router.build_snapshot().counter_value("route.shards_readmitted"),
            1u);

  const std::uint64_t sent_before = router.shard_statuses()[0].jobs_sent;
  std::vector<DecodeJob> jobs;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    jobs.push_back(sample_job(700 + seed));
  }
  for (const DecodeReport& report : router.route(jobs)) {
    EXPECT_TRUE(report.ok()) << report.error;
  }
  EXPECT_GT(router.shard_statuses()[0].jobs_sent, sent_before)
      << "the readmitted shard never saw traffic again";
  router.stop();
  for (ShardProcess& shard : shards) kill_shard(shard);
}

TEST(ShardRouter, FullOutageFailsPendingJobsAfterTimeout) {
  std::vector<ShardProcess> shards;
  shards.push_back(spawn_shard(0));
  const SocketAddress address =
      SocketAddress::parse("127.0.0.1:" + std::to_string(shards[0].port));
  ShardRouterOptions options;
  options.all_dead_fail_seconds = 0.5;
  options.dial_timeout_seconds = 0.1;
  ShardRouter router({address}, options);
  router.start();
  wait_until([&] { return router.alive_count() == 1; }, "shard up");

  const std::uint64_t index =
      router.submit(slow_job(800, /*deadline_ms=*/30000));
  kill_shard(shards[0]);
  // Nobody left to retry on: after the grace period the job must fail
  // loudly instead of wedging its waiter forever.
  const DecodeReport report = router.wait(index);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("no shard"), std::string::npos) << report.error;
  router.stop();
}

}  // namespace
}  // namespace pooled

// Custom main (overrides gtest_main's): `--shard-child <port> <fd>`
// makes this binary run as one exec'd shard server for spawn_shard
// instead of a test suite.
int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--shard-child") {
    return pooled::run_shard_child(
        static_cast<std::uint16_t>(std::stoul(argv[2])),
        static_cast<int>(std::stol(argv[3])));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
