// Race-provoking torture batteries for the ThreadSanitizer lane.
//
// Each test aims many threads at one of the concurrent structures and
// keeps them colliding long enough for TSan to observe every pairing the
// design allows: lock-free metric updates against registry snapshots,
// cache hits against inserts and evictions, pool batches from several
// callers running side by side, adaptive decodes stopped while pool lanes
// fold their rounds ahead, and a shard fleet losing and readmitting a
// backend mid-traffic. The assertions are deliberately coarse
// (monotonic counters, bounded sizes, every job answered) -- the point
// of the test is the interleavings themselves, which the `race` ctest
// label lets the TSan CI job select:
//
//   ctest -L race        # just these batteries
//
// The batteries also run in the normal suite, where the coarse
// assertions still catch lost updates and broken eviction accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/decoder.hpp"
#include "core/instance.hpp"
#include "design/random_regular.hpp"
#include "engine/batch_engine.hpp"
#include "engine/registry.hpp"
#include "engine/result_cache.hpp"
#include "engine/serve_server.hpp"
#include "engine/shard_router.hpp"
#include "engine/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace pooled {
namespace {

using std::chrono::steady_clock;

/// Wall-clock budget per battery: long enough to pile up collisions,
/// short enough that the suite stays interactive off the TSan lane.
constexpr auto kBatteryBudget = std::chrono::milliseconds(300);

// ---------------------------------------------------------------------
// MetricsRegistry: snapshot() walks the name table under the registry
// mutex while writers update resolved Counters/Gauges/Histograms
// lock-free and keep registering fresh names. TSan checks that the
// deliberate escape (relaxed atomics outside the lock) is the only one.

TEST(RaceTorture, MetricsRegistrySnapshotVsIncrement) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, &stop, t] {
      Counter& shared = registry.counter("torture.shared");
      Gauge& gauge = registry.gauge("torture.gauge" + std::to_string(t));
      LatencyHistogram& hist = registry.histogram("torture.hist");
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        shared.add(1);
        gauge.add(1);
        hist.record_us(i % 4096);
        if (i % 64 == 0) {
          // Registration (layout growth) keeps racing the snapshots.
          registry
              .counter("torture.dyn" + std::to_string(t) + "." +
                       std::to_string(i % 8))
              .add(1);
        }
        ++i;
      }
      gauge.add(-static_cast<std::int64_t>(i));
    });
  }

  const auto deadline = steady_clock::now() + kBatteryBudget;
  std::uint64_t snapshots = 0;
  std::uint64_t last_shared = 0;
  while (steady_clock::now() < deadline) {
    const MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t shared = snap.counter_value("torture.shared");
    // A counter may lag in-flight adds but must never run backwards.
    EXPECT_GE(shared, last_shared);
    last_shared = shared;
    const MetricValue* hist = snap.find("torture.hist");
    if (hist != nullptr && hist->hist.count > 0) {
      EXPECT_LE(hist->hist.min_seconds, hist->hist.max_seconds);
    }
    ++snapshots;
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  EXPECT_GT(snapshots, 0u);

  // Quiescent: the final snapshot sees every add, and the gauges were
  // wound back down to zero before the writers exited.
  const MetricsSnapshot final_snap = registry.snapshot();
  EXPECT_GE(final_snap.counter_value("torture.shared"), last_shared);
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(final_snap.gauge_value("torture.gauge" + std::to_string(t)), 0);
  }
}

// ---------------------------------------------------------------------
// ResultCache: concurrent hits, inserts, and (capacity 16 against a
// 64-key space) constant evictions, with a stats() reader riding along.

TEST(RaceTorture, ResultCacheHitInsertEvict) {
  constexpr std::size_t kCapacity = 16;
  constexpr std::uint32_t kKeySpace = 64;
  ResultCache cache(kCapacity);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &stop, &lookups, t] {
      std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(t));
      std::uniform_int_distribution<std::uint32_t> pick(0, kKeySpace - 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t id = pick(rng);
        const std::string key = "torture.key" + std::to_string(id);
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (const std::optional<DecodeReport> hit = cache.lookup(key)) {
          // Integrity: a hit is the report inserted under that key.
          EXPECT_EQ(hit->n, id);
          EXPECT_EQ(hit->decoder_name, "torture");
        } else {
          DecodeReport report;
          report.decoder_name = "torture";
          report.n = id;
          cache.insert(key, report);
        }
      }
    });
  }

  const auto deadline = steady_clock::now() + kBatteryBudget;
  while (steady_clock::now() < deadline) {
    const CacheStats stats = cache.stats();
    EXPECT_LE(stats.size, kCapacity);
    EXPECT_EQ(stats.capacity, kCapacity);
    // Eviction only ever removes what an insertion put in.
    EXPECT_GE(stats.insertions, stats.evictions);
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.size, stats.insertions - stats.evictions);
  EXPECT_LE(stats.size, kCapacity);
}

// ---------------------------------------------------------------------
// ThreadPool: batches from different callers run side by side. Each
// caller claims only its own batch's indices and idle workers join the
// oldest open batch, so a task may wait on a task of another caller's
// batch; when batches take turns on the pool, that wait never ends.

/// Spins until `flag` is set; false after 5 s without it.
bool await_flag(const std::atomic<bool>& flag) {
  const auto give_up = steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load()) {
    if (steady_clock::now() >= give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(RaceTorture, ConcurrentCallersDoNotTakeTurns) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> set[2] = {false, false};
    std::atomic<int> timeouts{0};
    const auto caller = [&](int self) {
      // Task 0 sets this caller's flag; the last task waits for the
      // other caller's.
      constexpr std::size_t kTasks = 3;
      pool.run_tasks(kTasks, [&](std::size_t i) {
        if (i == 0) set[self].store(true);
        if (i + 1 == kTasks && !await_flag(set[1 - self])) timeouts.fetch_add(1);
      });
    };
    std::thread other(caller, 1);
    caller(0);
    other.join();
    ASSERT_EQ(timeouts.load(), 0) << "round " << round;
  }
}

TEST(RaceTorture, ConcurrentCallersRunEveryTaskOnce) {
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kBatches = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &failures, c] {
      for (int b = 0; b < kBatches; ++b) {
        const std::size_t count = 1 + static_cast<std::size_t>(c + b) % 9;
        std::vector<std::atomic<int>> hits(count);
        std::atomic<int> nested{0};
        std::atomic<unsigned> lanes_seen{0};  // bit per lane id
        pool.run_tasks(count, [&](std::size_t i) {
          hits[i].fetch_add(1);
          lanes_seen.fetch_or(1u << ThreadPool::current_lane());
          // A nested batch runs inline on the executing lane.
          pool.run_tasks(3, [&](std::size_t) { nested.fetch_add(1); });
        });
        bool ok = nested.load() == static_cast<int>(3 * count) &&
                  static_cast<std::size_t>(std::popcount(lanes_seen.load())) <=
                      std::min<std::size_t>(count, pool.size());
        for (const std::atomic<int>& hit : hits) ok = ok && hit.load() == 1;
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
}

// Four callers pass over distinct instances on one 4-wide pool at once:
// the entry-statistics pass and an adaptive:mn:L=16 decode each. Every
// statistic, fingerprint and outcome must equal the same work run
// serially: the sums are integers merged by slot, whichever lanes ran them.

struct ConcurrentRun {
  EntryStats stats;
  std::shared_ptr<const QueryFingerprint> pass_print;
  DecodeOutcome outcome;
  std::shared_ptr<const QueryFingerprint> decode_print;
};

ConcurrentRun pass_and_decode(const std::shared_ptr<const PoolingDesign>& design,
                              std::uint32_t m, const std::vector<std::uint32_t>& y,
                              std::uint32_t k, ThreadPool& pool) {
  ConcurrentRun run;
  // Fresh instances, so each run records and publishes its own prints.
  const StreamedInstance for_pass(design, m, y);
  for_pass.entry_stats_into(pool, run.stats);
  run.pass_print = for_pass.fingerprint();
  const StreamedInstance for_decode(design, m, y);
  run.outcome = make_decoder("adaptive:mn:L=16")->decode(for_decode,
                                                         DecodeContext(k, pool));
  run.decode_print = for_decode.fingerprint();
  return run;
}

void expect_same_print(const std::shared_ptr<const QueryFingerprint>& a,
                       const std::shared_ptr<const QueryFingerprint>& b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->entries, b->entries);
  EXPECT_EQ(a->target, b->target);
  EXPECT_EQ(a->queries, b->queries);
}

TEST(RaceTorture, ConcurrentDecodesMatchSerial) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  const std::uint32_t n = 2000, k = 10, m = 400;
  std::vector<std::shared_ptr<const PoolingDesign>> designs;
  std::vector<std::vector<std::uint32_t>> ys;
  std::vector<ConcurrentRun> serial;
  for (int c = 0; c < kCallers; ++c) {
    designs.push_back(std::make_shared<RandomRegularDesign>(n, 700 + c));
    ys.push_back(make_streamed_instance(designs.back(), m,
                                        Signal::random(n, k, 0xB17 + c), pool)
                     ->results());
    serial.push_back(pass_and_decode(designs.back(), m, ys.back(), k, pool));
  }
  const auto deadline = steady_clock::now() + kBatteryBudget;
  int rounds = 0;
  while (steady_clock::now() < deadline || rounds < 2) {
    std::vector<ConcurrentRun> runs(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        runs[c] = pass_and_decode(designs[c], m, ys[c], k, pool);
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (int c = 0; c < kCallers; ++c) {
      SCOPED_TRACE("caller " + std::to_string(c) + ", round " +
                   std::to_string(rounds));
      EXPECT_EQ(runs[c].stats.psi, serial[c].stats.psi);
      EXPECT_EQ(runs[c].stats.delta_star, serial[c].stats.delta_star);
      expect_same_print(runs[c].pass_print, serial[c].pass_print);
      EXPECT_EQ(runs[c].outcome.estimate, serial[c].outcome.estimate);
      EXPECT_EQ(runs[c].outcome.rounds, serial[c].outcome.rounds);
      EXPECT_EQ(runs[c].outcome.queries, serial[c].outcome.queries);
      EXPECT_EQ(runs[c].outcome.stop, serial[c].outcome.stop);
      expect_same_print(runs[c].decode_print, serial[c].decode_print);
    }
    ++rounds;
  }
}

// ---------------------------------------------------------------------
// Adaptive MN decodes stopped anywhere: four callers decode distinct
// instances with adaptive:mn:L=16 on one 4-wide pool, each cancelled
// after a random number of rounds or stopped by a random deadline, so
// pool lanes are mid-fold in the ring at every kind of stop. Each outcome
// must equal the serial fold stopped after the same round (the decode on
// a one-thread pool under that rounds cap), and the verdict the exact
// pass on a fresh copy. No lane may touch a ring block once the decode
// returns (ASan and TSan see the blocks reused by the next decode).

/// Cancels its decode once `rounds` rounds have run.
class CancelAfter final : public DecodeStatsSink {
 public:
  explicit CancelAfter(std::uint32_t rounds) : rounds_(rounds) {
    if (rounds_ == 0) cancel.store(true);
  }
  void on_round(std::uint32_t round, std::uint64_t) override {
    if (round >= rounds_) cancel.store(true);
  }
  std::atomic<bool> cancel{false};

 private:
  std::uint32_t rounds_;
};

std::string trajectory(const DecodeOutcome& outcome, bool with_stop) {
  std::string text = "support";
  for (std::uint32_t i : outcome.estimate.support()) text += ' ' + std::to_string(i);
  text += " rounds " + std::to_string(outcome.rounds) + " queries " +
          std::to_string(outcome.queries) + " score_evals " +
          std::to_string(outcome.score_evals);
  if (with_stop) text += std::string(" stop ") + stop_reason_name(outcome.stop);
  return text;
}

TEST(RaceTorture, StoppedAdaptiveDecodesMatchTheSerialFold) {
  ThreadPool pool(4);
  ThreadPool serial_pool(1);
  constexpr int kCallers = 4;
  const std::uint32_t n = 2000, k = 10, m = 400;
  const auto decoder = make_decoder("adaptive:mn:L=16");
  struct Reference {
    std::shared_ptr<const StreamedInstance> instance;
    std::string full;                  // the unstopped decode
    std::vector<std::string> stopped;  // stopped after round r (r >= 1)
  };
  std::vector<Reference> references(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    Reference& reference = references[c];
    auto design = std::make_shared<RandomRegularDesign>(n, 900 + c);
    reference.instance =
        make_streamed_instance(design, m, Signal::random(n, k, 0x5709 + c), pool);
    const StreamedInstance full_copy(design, m, reference.instance->results());
    const DecodeOutcome full =
        decoder->decode(full_copy, DecodeContext(k, serial_pool));
    reference.full = trajectory(full, true);
    reference.stopped.resize(full.rounds + 1);
    for (std::uint32_t r = 1; r <= full.rounds; ++r) {
      const StreamedInstance copy(design, m, reference.instance->results());
      DecodeContext capped(k, serial_pool);
      capped.max_rounds = r;
      reference.stopped[r] = trajectory(decoder->decode(copy, capped), false);
    }
  }
  std::atomic<int> failures{0};
  std::atomic<int> stops{0};
  const auto deadline = steady_clock::now() + kBatteryBudget;
  int rounds = 0;
  while (steady_clock::now() < deadline || rounds < 2) {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        const Reference& reference = references[c];
        std::mt19937 rng(static_cast<std::uint32_t>(rounds * kCallers + c));
        const auto last = static_cast<std::uint32_t>(reference.stopped.size() - 1);
        for (int j = 0; j < 4; ++j) {
          const StreamedInstance served(reference.instance->design_ptr(), m,
                                        reference.instance->results());
          CancelAfter sink(std::uniform_int_distribution<std::uint32_t>(0, last)(rng));
          DecodeContext context(k, pool);
          if (rng() % 2 == 0) {
            context.stats = &sink;
            context.cancel = &sink.cancel;
          } else {
            context.deadline_seconds =
                std::uniform_real_distribution<double>(0.0, 0.003)(rng);
          }
          const DecodeOutcome outcome = decoder->decode(served, context);
          bool ok = true;
          if (outcome.stop == StopReason::Cancelled || outcome.stop == StopReason::Deadline) {
            stops.fetch_add(1);
            ok = outcome.rounds == 0
                     ? outcome.queries == 0 && outcome.estimate.k() == 0
                     : outcome.rounds <= last &&
                           trajectory(outcome, false) == reference.stopped[outcome.rounds];
          } else {
            ok = trajectory(outcome, true) == reference.full;
          }
          const StreamedInstance exact(served.design_ptr(), m, served.results());
          ok = ok && served.is_consistent(outcome.estimate) ==
                         exact.is_consistent(outcome.estimate);
          if (!ok) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    ++rounds;
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(stops.load(), 0);
}

// ---------------------------------------------------------------------
// Fingerprint publication: engine jobs on a 4-wide pool decode one
// shared instance at once, submitted by several callers. The MN jobs'
// passes and the adaptive MN jobs' completions (a budgeted one's too)
// race to publish the instance's fingerprint of all m queries (the
// first publish wins, the rest keep their own) while other jobs already
// read it for their O(k) verdict, or find none yet and check by the
// exact pass. omp jobs never accumulate and check through whatever the
// instance holds. Every verdict must equal the exact pass on a fresh
// copy.

TEST(RaceTorture, SharedInstanceFingerprintPublish) {
  ThreadPool pool(4);
  const BatchEngine engine(pool);
  const std::uint32_t n = 200, k = 4;
  const Signal truth = Signal::random(n, k, 0xF1);
  struct Decode {
    const char* spec;
    std::uint32_t budget;
  };
  const Decode decodes[] = {{"mn", 0},
                            {"mn:multi-edge", 0},
                            {"omp", 0},
                            {"adaptive:mn:L=8", 0},
                            {"adaptive:mn:L=4", 12}};
  const auto deadline = steady_clock::now() + kBatteryBudget;
  std::uint64_t round = 0;
  std::uint64_t consistent = 0;
  while (steady_clock::now() < deadline || round < 4) {
    // Alternating budgets: below the MN threshold some verdicts are false.
    const std::uint32_t m = round % 2 == 0 ? 25 : 90;
    auto design = std::make_shared<RandomRegularDesign>(n, 500 + round);
    const std::shared_ptr<const StreamedInstance> shared =
        make_streamed_instance(design, m, truth, pool);
    std::vector<DecodeJob> jobs(15);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].instance = shared;
      jobs[j].k = k;
      jobs[j].decoder = decodes[j % std::size(decodes)].spec;
      jobs[j].budget = decodes[j % std::size(decodes)].budget;
    }
    // Three callers submit five jobs each, so their batches share the
    // pool side by side as well as running their jobs concurrently.
    constexpr std::size_t kCallers = 3;
    const std::size_t share = jobs.size() / kCallers;
    std::vector<std::vector<DecodeReport>> caller_reports(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        caller_reports[c] = engine.run(std::vector<DecodeJob>(
            jobs.begin() + static_cast<std::ptrdiff_t>(c * share),
            jobs.begin() + static_cast<std::ptrdiff_t>((c + 1) * share)));
      });
    }
    for (std::thread& caller : callers) caller.join();
    std::vector<DecodeReport> reports;
    for (auto& part : caller_reports) {
      reports.insert(reports.end(), part.begin(), part.end());
    }
    ASSERT_EQ(reports.size(), jobs.size());
    ASSERT_NE(shared->fingerprint(), nullptr);
    const StreamedInstance exact(design, m, shared->results());
    for (const DecodeReport& report : reports) {
      ASSERT_TRUE(report.ok()) << report.error;
      EXPECT_EQ(report.consistent, exact.is_consistent(Signal(n, report.support)))
          << report.decoder_name << " round " << round;
      consistent += report.consistent ? 1 : 0;
    }
    ++round;
  }
  EXPECT_GT(consistent, 0u);
}

// ---------------------------------------------------------------------
// ShardRouter: a two-shard fleet on unix sockets (restartable on the
// same path, unlike port-0 TCP) loses shard 0 repeatedly while
// submitters keep routing. Every job must still be answered ok (retried
// on the survivor), and the fleet must converge back to full strength.

DecodeJob torture_job(std::uint64_t seed) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = 120;
  params.seed = seed;
  const Signal truth = Signal::random(120, 3, seed ^ 0x51D);
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, 90, truth, pool);
  job.decoder = "mn";
  job.k = 3;
  return job;
}

TEST(RaceTorture, ShardRouterKillReadmit) {
  const std::string base = ::testing::TempDir() + "pooled_race_";
  const std::vector<SocketAddress> addresses = {
      SocketAddress::parse("unix:" + base + "0.sock"),
      SocketAddress::parse("unix:" + base + "1.sock"),
  };

  ThreadPool pool(2);
  const BatchEngine engine(pool);
  std::vector<std::unique_ptr<ServeServer>> servers;
  for (const SocketAddress& address : addresses) {
    servers.push_back(std::make_unique<ServeServer>(
        ListenSocket::bind_and_listen(address), engine));
    servers.back()->start();
  }

  ShardRouterOptions options;
  options.probe_seconds = 0.01;
  ShardRouter router(addresses, options);
  router.start();

  std::atomic<bool> chaos_stop{false};
  std::thread chaos([&] {
    // Kill/readmit cycle: stop() resets shard 0's connections (its
    // in-flight jobs retry on shard 1), then a fresh server on the same
    // path lets the prober readmit it.
    while (!chaos_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      if (chaos_stop.load()) break;
      servers[0]->stop();
      servers[0] = std::make_unique<ServeServer>(
          ListenSocket::bind_and_listen(addresses[0]), engine);
      servers[0]->start();
    }
  });

  constexpr int kSubmitters = 2;
  constexpr int kBatches = 3;
  constexpr int kJobsPerBatch = 4;
  std::atomic<int> answered{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&router, &answered, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<DecodeJob> jobs;
        jobs.reserve(kJobsPerBatch);
        for (int j = 0; j < kJobsPerBatch; ++j) {
          jobs.push_back(torture_job(
              static_cast<std::uint64_t>(t * 1000 + b * 10 + j + 1)));
        }
        const std::vector<DecodeReport> reports = router.route(jobs);
        for (const DecodeReport& report : reports) {
          EXPECT_TRUE(report.ok()) << report.error;
          answered.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  chaos_stop.store(true);
  chaos.join();
  EXPECT_EQ(answered.load(), kSubmitters * kBatches * kJobsPerBatch);

  // Self-stabilization: with the chaos over, the prober re-dials shard 0
  // and the fleet converges back to full capacity.
  const auto deadline = steady_clock::now() + std::chrono::seconds(30);
  while (router.alive_count() < addresses.size()) {
    ASSERT_LT(steady_clock::now(), deadline)
        << "fleet never converged back to " << addresses.size() << " shards";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  router.stop();
  for (const auto& server : servers) server->stop();
}

}  // namespace
}  // namespace pooled
