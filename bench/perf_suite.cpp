// PERF: the kernel perf-regression harness -- one consolidated run of
// the decode hot paths, each measured three ways:
//
//   baseline    the seed implementation, preserved verbatim in this file
//               (atomic scatter accumulation, per-chunk allocations,
//               scalar PhiloxStream regeneration, member-scan GT
//               decoding, allocating top-k). This reference is pinned so
//               the numbers stay comparable across library changes.
//   scalar      the current library forced onto the scalar KernelSet
//               (isolates the structural wins: arena, no atomics,
//               bit-packing, hoisted dispatch).
//   dispatched  the current library under runtime dispatch (adds SIMD).
//
// Sections: micro_decode (streamed MN decode), engine_throughput
// (BatchEngine over spec-backed jobs, the serve-shaped path), and
// binarygt_decode (DD at paper-style scale). Results print as a table
// and, with --json [path], land in BENCH_perf.json for the CI artifact
// trail. --check name=floor,... turns the harness into a gate: the
// dispatched-vs-baseline speedup of each named section must reach its
// floor or the process exits 1.
//
// A fourth phase, saturation, drives an in-process ServeServer with
// closed-loop socket clients (repeated specs, so the result cache
// engages) and reports what the observability layer sees under load:
// client-observed RTT percentiles, throughput, cache hit rate, queue
// depth and arena high-water marks, plus the jobs_served count scraped
// by a `stats` protocol frame sent mid-load. These land in the JSON
// under "saturation"; tools/perf_diff.py soft-gates them in CI.
//
// A fifth phase, snapshot_restore, times the durable-cache round trip a
// rolling restart rides on (spill a warm ResultCache, restore it cold)
// and hard-fails unless the restored cache answers every key. JSON key:
// "snapshot_restore".
//
// Knobs: POOLED_MAX_N (default 10000) scales the micro/binary sections,
// POOLED_TRIALS (default 24) the engine and per-client job counts.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "binarygt/binary_decoders.hpp"
#include "core/instance.hpp"
#include "core/mn.hpp"
#include "core/serialize.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "engine/batch_engine.hpp"
#include "engine/cache_store.hpp"
#include "engine/protocol.hpp"
#include "engine/result_cache.hpp"
#include "engine/serve_server.hpp"
#include "engine/socket_transport.hpp"
#include "io/table.hpp"
#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"
#include "sim/montecarlo.hpp"

namespace {

using namespace pooled;

// ---------------------------------------------------------------------------
// Pinned seed-implementation reference (do not "optimize": its purpose is
// to stay what the repository shipped before the kernel layer).

void legacy_query_members(const RandomRegularDesign& design, std::uint32_t query,
                          std::vector<std::uint32_t>& out) {
  PhiloxStream stream(design.seed(), query);
  sample_with_replacement(stream, design.num_entries(),
                          static_cast<std::size_t>(design.gamma()), out);
}

EntryStats legacy_entry_stats(const RandomRegularDesign& design, std::uint32_t m,
                              const std::vector<std::uint32_t>& y,
                              ThreadPool& pool) {
  const std::uint32_t num = design.num_entries();
  std::vector<std::atomic<std::uint64_t>> psi(num);
  std::vector<std::atomic<std::uint64_t>> psi_multi(num);
  std::vector<std::atomic<std::uint64_t>> delta(num);
  std::vector<std::atomic<std::uint32_t>> delta_star(num);
  constexpr std::uint32_t kUnmarked = 0xFFFFFFFFu;
  parallel_for_chunked(pool, 0, m, 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> mark(num, kUnmarked);
    for (std::size_t q = lo; q < hi; ++q) {
      const auto query = static_cast<std::uint32_t>(q);
      legacy_query_members(design, query, members);
      const std::uint64_t yq = y[q];
      for (std::uint32_t entry : members) {
        if (mark[entry] != query) {
          mark[entry] = query;
          psi[entry].fetch_add(yq, std::memory_order_relaxed);
          delta_star[entry].fetch_add(1, std::memory_order_relaxed);
        }
        psi_multi[entry].fetch_add(yq, std::memory_order_relaxed);
        delta[entry].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EntryStats stats;
  stats.resize(num, CountMode::Distinct);
  for (std::uint32_t i = 0; i < num; ++i) {
    stats.psi[i] = psi[i].load(std::memory_order_relaxed);
    stats.delta_star[i] = delta_star[i].load(std::memory_order_relaxed);
  }
  return stats;
}

std::vector<std::uint32_t> legacy_mn_decode(const RandomRegularDesign& design,
                                            std::uint32_t m,
                                            const std::vector<std::uint32_t>& y,
                                            std::uint32_t k, ThreadPool& pool) {
  const EntryStats stats = legacy_entry_stats(design, m, y, pool);
  const std::size_t n = stats.psi.size();
  std::vector<double> scores(n);
  const double half_k = static_cast<double>(k) / 2.0;
  parallel_for(pool, 0, n, [&](std::size_t i) {
    scores[i] = static_cast<double>(stats.psi[i]) -
                static_cast<double>(stats.delta_star[i]) * half_k;
  });
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(), order.begin() + k, order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (scores[a] != scores[b]) return scores[a] > scores[b];
                     return a < b;
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<std::uint32_t> legacy_decode_dd(const RandomRegularDesign& design,
                                            std::uint32_t m,
                                            const std::vector<std::uint8_t>& outcomes) {
  const std::uint32_t n = design.num_entries();
  std::vector<std::uint8_t> zero(n, 0);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < m; ++q) {
    if (outcomes[q] != 0) continue;
    legacy_query_members(design, q, members);
    for (std::uint32_t entry : members) zero[entry] = 1;
  }
  std::vector<std::uint8_t> definite(n, 0);
  for (std::uint32_t q = 0; q < m; ++q) {
    if (outcomes[q] == 0) continue;
    legacy_query_members(design, q, members);
    std::uint32_t candidate = 0;
    std::uint32_t candidates = 0;
    for (std::uint32_t entry : members) {
      if (!zero[entry]) {
        if (candidates == 0) {
          candidate = entry;
          candidates = 1;
        } else if (entry != candidate) {
          candidates = 2;
          break;
        }
      }
    }
    if (candidates == 1) definite[candidate] = 1;
  }
  std::vector<std::uint32_t> support;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (definite[i]) support.push_back(i);
  }
  return support;
}

// ---------------------------------------------------------------------------
// Harness

/// Best-of timing: one warmup call, then repetitions until >= 0.4s of
/// samples (at least 3), reporting the fastest -- the usual defense
/// against noisy shared CI runners.
template <typename Fn>
double best_seconds(Fn&& fn) {
  fn();  // warmup (also builds lazy state: arenas, bit-packs)
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while (reps < 3 || total < 0.4) {
    const Timer timer;
    fn();
    const double sec = timer.seconds();
    best = std::min(best, sec);
    total += sec;
    ++reps;
    if (reps >= 200) break;
  }
  return best;
}

struct Section {
  std::string name;
  std::string detail;
  double baseline_sec = 0.0;
  double scalar_sec = 0.0;
  double dispatched_sec = 0.0;

  [[nodiscard]] double speedup_vs_baseline() const {
    return dispatched_sec > 0.0 ? baseline_sec / dispatched_sec : 0.0;
  }
  [[nodiscard]] double speedup_vs_scalar() const {
    return dispatched_sec > 0.0 ? scalar_sec / dispatched_sec : 0.0;
  }
};

/// Runs `fn` with the library forced onto `isa`, restoring after.
template <typename Fn>
double timed_with_kernels(KernelIsa isa, Fn&& fn) {
  const KernelSet& previous = set_active_kernels(*kernels_for(isa));
  const double sec = best_seconds(fn);
  set_active_kernels(previous);
  return sec;
}

/// What the saturation phase measures: server-side metrics reconciled
/// with client-side observations.
struct SaturationResult {
  std::size_t clients = 0;
  std::size_t jobs = 0;  ///< total across clients
  double wall_sec = 0.0;
  double throughput_jobs_per_sec = 0.0;
  HistogramSnapshot rtt;  ///< client-observed request round trip
  double cache_hit_rate = 0.0;
  std::uint64_t jobs_served = 0;          ///< server counter after the run
  std::uint64_t midload_jobs_served = 0;  ///< from the mid-load stats frame
  std::int64_t queue_depth_peak = 0;
  std::int64_t arena_peak_bytes = 0;
};

/// Closed-loop load: `clients` socket connections, each sending
/// `jobs_per_client` spec-backed jobs drawn from a small pool of
/// distinct specs (so the result cache engages) and waiting for each
/// result before sending the next. One client interleaves a
/// `pooled-stats` frame halfway through its run, exercising the
/// out-of-band path under concurrent decode traffic.
SaturationResult run_saturation(ThreadPool& pool, std::size_t clients,
                                std::size_t jobs_per_client) {
  const std::uint32_t n = 400;
  const std::uint32_t k = thresholds::k_of(n, 0.3);
  const auto m = static_cast<std::uint32_t>(
      1.2 * thresholds::m_mn_finite(n, std::max<std::uint32_t>(k, 2)));
  constexpr std::size_t kDistinctSpecs = 6;
  std::vector<DecodeJob> specs;
  specs.reserve(kDistinctSpecs);
  for (std::size_t s = 0; s < kDistinctSpecs; ++s) {
    const TrialSeeds seeds =
        trial_seeds(/*seed_base=*/0x5A70, static_cast<std::uint32_t>(s));
    DesignParams params;
    params.n = n;
    params.seed = seeds.design_seed;
    const RandomRegularDesign design(n, params.seed);
    const Signal truth = Signal::random(n, k, seeds.signal_seed);
    const auto y = simulate_queries(design, m, truth, pool);
    DecodeJob job;
    job.spec = make_spec(DesignKind::RandomRegular, params, y);
    job.decoder = "mn";
    job.k = k;
    job.check_consistency = false;
    specs.push_back(std::move(job));
  }

  ResultCache cache(256);
  EngineOptions engine_options;
  engine_options.cache = &cache;
  const BatchEngine engine(pool, engine_options);
  ServeServer server(
      ListenSocket::bind_and_listen(SocketAddress::parse("127.0.0.1:0")),
      engine);
  server.start();

  LatencyHistogram rtt;
  std::atomic<std::uint64_t> midload_jobs_served{0};
  std::atomic<bool> failed{false};
  const Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        SocketStream stream(Socket::dial(server.address()));
        for (std::size_t j = 0; j < jobs_per_client; ++j) {
          if (c == 0 && j == jobs_per_client / 2) {
            save_stats_request(stream.out());
            stream.out().flush();
            const auto snapshot = load_stats_snapshot(stream.in());
            if (!snapshot) throw std::runtime_error("stats frame unanswered");
            midload_jobs_served.store(
                snapshot->counter_value("serve.jobs_served"));
          }
          const DecodeJob& job =
              specs[(c * jobs_per_client + j) % kDistinctSpecs];
          const Timer round_trip;
          save_job(stream.out(), job);
          stream.out().flush();
          const auto report = load_report(stream.in());
          if (!report || !report->ok()) {
            throw std::runtime_error("job failed under load");
          }
          rtt.record(round_trip.seconds());
        }
        stream.socket().shutdown_write();
        while (load_report(stream.in())) {  // drain any stragglers
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "   saturation client %zu: %s\n", c, error.what());
        failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_sec = wall.seconds();
  const MetricsSnapshot snapshot = server.build_snapshot();
  server.stop();
  if (failed.load()) std::abort();

  SaturationResult result;
  result.clients = clients;
  result.jobs = clients * jobs_per_client;
  result.wall_sec = wall_sec;
  result.throughput_jobs_per_sec =
      wall_sec > 0.0 ? static_cast<double>(result.jobs) / wall_sec : 0.0;
  result.rtt = rtt.snapshot();
  const CacheStats cache_stats = cache.stats();
  const std::uint64_t lookups = cache_stats.hits + cache_stats.misses;
  result.cache_hit_rate =
      lookups > 0 ? static_cast<double>(cache_stats.hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  result.jobs_served = snapshot.counter_value("serve.jobs_served");
  result.midload_jobs_served = midload_jobs_served.load();
  if (const MetricValue* queue = snapshot.find("serve.queue_depth")) {
    result.queue_depth_peak = queue->peak;
  }
  if (const MetricValue* arena = snapshot.find("arena.live_bytes")) {
    result.arena_peak_bytes = arena->peak;
  }
  return result;
}

/// What the snapshot_restore phase measures: the durable-cache round
/// trip a rolling restart rides on (spill a warm cache, restore it in a
/// fresh one, and answer every key from the restored copy).
struct SnapshotRestoreResult {
  std::size_t entries = 0;
  double spill_sec = 0.0;
  double restore_sec = 0.0;
  double restored_hit_rate = 0.0;
};

SnapshotRestoreResult run_snapshot_restore(std::size_t entries) {
  ResultCache warm(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    DecodeReport report;
    report.decoder_name = "mn";
    report.n = 400;
    report.k = 8;
    report.support.resize(8);
    for (std::uint32_t s = 0; s < 8; ++s) {
      report.support[s] = static_cast<std::uint32_t>(i * 8 + s) % 400;
    }
    report.consistent = true;
    report.rounds = 4;
    report.queries = 1600;
    warm.insert("bench" + std::to_string(i) + "|mn|8|0|sym:0.0:0|4|0|0|-",
                report);
  }
  const std::string path =
      "/tmp/pooled_bench_snapshot_" + std::to_string(::getpid()) + ".snap";

  SnapshotRestoreResult result;
  result.entries = entries;
  result.spill_sec = best_seconds([&] { (void)warm.spill(path); });
  result.restore_sec = best_seconds([&] {
    ResultCache cold(entries);
    (void)cold.restore(path);
  });
  ResultCache restored(entries);
  (void)restored.restore(path);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < entries; ++i) {
    if (restored.lookup("bench" + std::to_string(i) +
                        "|mn|8|0|sym:0.0:0|4|0|0|-")) {
      ++hits;
    }
  }
  result.restored_hit_rate =
      entries > 0 ? static_cast<double>(hits) / static_cast<double>(entries)
                  : 0.0;
  ::unlink(path.c_str());
  return result;
}

int check_floors(const std::vector<Section>& sections, const std::string& spec) {
  int failures = 0;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "   bad --check item '%s' (want name=floor)\n",
                   item.c_str());
      ++failures;
      continue;
    }
    const std::string name = item.substr(0, eq);
    const double floor = std::atof(item.c_str() + eq + 1);
    bool found = false;
    for (const Section& section : sections) {
      if (section.name != name) continue;
      found = true;
      const double speedup = section.speedup_vs_baseline();
      if (speedup < floor) {
        std::fprintf(stderr,
                     "   CHECK FAILED: %s speedup %.2fx < required %.2fx\n",
                     name.c_str(), speedup, floor);
        ++failures;
      } else {
        std::printf("   check ok: %s %.2fx >= %.2fx\n", name.c_str(), speedup,
                    floor);
      }
    }
    if (!found) {
      std::fprintf(stderr, "   CHECK FAILED: no section named '%s'\n",
                   name.c_str());
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pooled;
  std::string json_path;
  std::string check_spec;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--json") == 0) {
      json_path = (a + 1 < argc && argv[a + 1][0] != '-') ? argv[++a]
                                                          : "BENCH_perf.json";
    } else if (std::strcmp(argv[a], "--check") == 0 && a + 1 < argc) {
      check_spec = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: bench_perf_suite [--json [path]] "
                   "[--check name=floor,...]\n");
      return 2;
    }
  }

  const BenchConfig cfg = bench_config(/*default_trials=*/24,
                                       /*default_max_n=*/10000);
  Timer timer;
  bench::banner("PERF: kernel perf-regression suite",
                "seed baseline vs scalar kernels vs runtime-dispatched SIMD",
                cfg);
  std::printf("   kernels: dispatched=%s available=",
              kernel_isa_name(active_kernels().isa));
  for (KernelIsa isa : available_kernel_isas()) {
    std::printf("%s ", kernel_isa_name(isa));
  }
  std::printf("\n\n");

  ThreadPool pool(static_cast<unsigned>(cfg.threads));
  std::vector<Section> sections;

  // -- micro_decode: streamed MN decode end to end ------------------------
  {
    const auto n = static_cast<std::uint32_t>(cfg.max_n);
    const std::uint32_t k = thresholds::k_of(n, 0.3);
    const auto m = static_cast<std::uint32_t>(
        thresholds::m_mn_finite(n, std::max<std::uint32_t>(k, 2)));
    auto design = std::make_shared<RandomRegularDesign>(n, 2);
    const Signal truth = Signal::random(n, k, 1);
    const auto instance = make_streamed_instance(design, m, truth, pool);
    const auto decoder = MnDecoder();
    const DecodeContext context(k, pool);

    Section section;
    section.name = "micro_decode";
    section.detail = "streamed MN decode n=" + format_compact(n) +
                     " m=" + format_compact(m);
    section.baseline_sec = best_seconds([&] {
      auto support = legacy_mn_decode(*design, m, instance->results(), k, pool);
      if (support.size() != k) std::abort();
    });
    const auto run_decode = [&] {
      const DecodeOutcome outcome = decoder.decode(*instance, context);
      if (outcome.estimate.k() != k) std::abort();
    };
    section.scalar_sec = timed_with_kernels(KernelIsa::Scalar, run_decode);
    section.dispatched_sec = timed_with_kernels(active_kernels().isa, run_decode);
    sections.push_back(section);
  }

  // -- engine_throughput: spec-backed jobs through BatchEngine ------------
  {
    const std::uint32_t n = std::min<std::uint32_t>(
        800, static_cast<std::uint32_t>(cfg.max_n));
    const std::uint32_t k = thresholds::k_of(n, 0.3);
    const auto m = static_cast<std::uint32_t>(
        1.5 * thresholds::m_mn_finite(n, std::max<std::uint32_t>(k, 2)));
    const auto job_count = static_cast<std::uint32_t>(cfg.trials);
    std::vector<DecodeJob> jobs;
    std::vector<std::shared_ptr<RandomRegularDesign>> designs;
    std::vector<std::vector<std::uint32_t>> results;
    jobs.reserve(job_count);
    for (std::uint32_t j = 0; j < job_count; ++j) {
      const TrialSeeds seeds = trial_seeds(/*seed_base=*/0xBE9C, j);
      DesignParams params;
      params.n = n;
      params.seed = seeds.design_seed;
      auto design = std::make_shared<RandomRegularDesign>(n, params.seed);
      const Signal truth = Signal::random(n, k, seeds.signal_seed);
      const auto y = simulate_queries(*design, m, truth, pool);
      DecodeJob job;
      job.spec = make_spec(DesignKind::RandomRegular, params, y);
      job.decoder = "mn";
      job.k = k;
      job.check_consistency = false;
      jobs.push_back(std::move(job));
      designs.push_back(std::move(design));
      results.push_back(y);
    }
    const BatchEngine engine(pool);

    Section section;
    section.name = "engine_throughput";
    section.detail = "BatchEngine, " + format_compact(job_count) +
                     " mn jobs n=" + format_compact(n);
    section.baseline_sec = best_seconds([&] {
      // Seed-shaped serving: rebuild each instance from its spec, decode
      // with the pinned legacy path, sequentially.
      for (std::uint32_t j = 0; j < job_count; ++j) {
        auto instance = jobs[j].spec->to_instance();
        auto support = legacy_mn_decode(*designs[j], m, results[j], k, pool);
        if (support.size() != k || instance == nullptr) std::abort();
      }
    });
    const auto run_engine = [&] {
      const auto reports = engine.run(jobs);
      for (const DecodeReport& report : reports) {
        if (!report.ok()) std::abort();
      }
    };
    section.scalar_sec = timed_with_kernels(KernelIsa::Scalar, run_engine);
    section.dispatched_sec = timed_with_kernels(active_kernels().isa, run_engine);
    sections.push_back(section);
  }

  // -- binarygt_decode: DD at paper-style scale ---------------------------
  {
    const auto n = static_cast<std::uint32_t>(cfg.max_n);
    const std::uint32_t k = thresholds::k_of(n, 0.3);
    const auto m = static_cast<std::uint32_t>(
        3.0 * thresholds::m_binary_gt(n, std::max<std::uint32_t>(k, 2)));
    auto design =
        std::make_shared<RandomRegularDesign>(n, 7, optimal_gt_gamma(n, k));
    const Signal truth = Signal::random(n, k, 2);
    const auto instance =
        make_streamed_instance(design, m, truth, pool, ChannelKind::Binary);
    // The pinned baseline reads one byte per outcome, as it always has.
    const std::vector<std::uint8_t> outcomes(instance->results().begin(),
                                             instance->results().end());

    Section section;
    section.name = "binarygt_decode";
    section.detail = "binary DD decode n=" + format_compact(n) +
                     " m=" + format_compact(m);
    section.baseline_sec = best_seconds([&] {
      auto support = legacy_decode_dd(*design, m, outcomes);
      if (support.size() > n) std::abort();
    });
    const auto run_dd = [&] {
      const auto result = decode_dd(*instance, &pool);
      if (result.estimate.n() != n) std::abort();
    };
    section.scalar_sec = timed_with_kernels(KernelIsa::Scalar, run_dd);
    section.dispatched_sec = timed_with_kernels(active_kernels().isa, run_dd);
    sections.push_back(section);
  }

  // -- report -------------------------------------------------------------
  ConsoleTable table({"section", "baseline ms", "scalar ms", "dispatched ms",
                      "vs baseline", "vs scalar"});
  for (const Section& section : sections) {
    table.add_row({section.name, format_compact(section.baseline_sec * 1e3, 3),
                   format_compact(section.scalar_sec * 1e3, 3),
                   format_compact(section.dispatched_sec * 1e3, 3),
                   format_compact(section.speedup_vs_baseline(), 3) + "x",
                   format_compact(section.speedup_vs_scalar(), 3) + "x"});
  }
  table.print(std::cout);
  std::printf("\n   baseline = pinned seed implementation (atomics + scalar "
              "Philox + member scans);\n   scalar = current library on scalar "
              "kernels; dispatched adds SIMD.\n");

  // -- saturation: closed-loop clients against an in-process server -------
  const SaturationResult saturation = run_saturation(
      pool, /*clients=*/4,
      /*jobs_per_client=*/
      std::max<std::size_t>(8, static_cast<std::size_t>(cfg.trials)));
  std::printf(
      "\n   saturation: %zu clients x %zu jobs -> %s jobs/s "
      "(rtt p50 %s ms, p95 %s ms, p99 %s ms)\n",
      saturation.clients, saturation.jobs / saturation.clients,
      format_compact(saturation.throughput_jobs_per_sec, 3).c_str(),
      format_compact(saturation.rtt.p50 * 1e3, 3).c_str(),
      format_compact(saturation.rtt.p95 * 1e3, 3).c_str(),
      format_compact(saturation.rtt.p99 * 1e3, 3).c_str());
  std::printf(
      "   saturation: cache hit-rate %s%%, queue-depth peak %lld, arena peak "
      "%s MiB, mid-load stats frame saw %llu jobs served\n",
      format_compact(saturation.cache_hit_rate * 100.0, 3).c_str(),
      static_cast<long long>(saturation.queue_depth_peak),
      format_compact(static_cast<double>(saturation.arena_peak_bytes) /
                         (1024.0 * 1024.0),
                     3).c_str(),
      static_cast<unsigned long long>(saturation.midload_jobs_served));
  if (saturation.jobs_served != saturation.jobs) {
    std::fprintf(stderr, "   FAILED: server served %llu of %zu jobs\n",
                 static_cast<unsigned long long>(saturation.jobs_served),
                 saturation.jobs);
    return 1;
  }

  // -- snapshot_restore: the durable-cache round trip ---------------------
  const SnapshotRestoreResult snapshot_restore = run_snapshot_restore(
      /*entries=*/std::max<std::size_t>(64, static_cast<std::size_t>(cfg.trials) * 8));
  std::printf(
      "   snapshot-restore: %zu entries spill %s ms, restore %s ms, "
      "restored hit-rate %s%%\n",
      snapshot_restore.entries,
      format_compact(snapshot_restore.spill_sec * 1e3, 3).c_str(),
      format_compact(snapshot_restore.restore_sec * 1e3, 3).c_str(),
      format_compact(snapshot_restore.restored_hit_rate * 100.0, 3).c_str());
  if (snapshot_restore.restored_hit_rate < 1.0) {
    std::fprintf(stderr,
                 "   FAILED: restored cache answered only %.3f of its keys\n",
                 snapshot_restore.restored_hit_rate);
    return 1;
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "   FAILED to open %s\n", json_path.c_str());
      return 1;
    }
    json.precision(17);
    json << "{\n  \"bench\": \"perf_suite\",\n  \"kernels\": {\"dispatched\": \""
         << kernel_isa_name(active_kernels().isa) << "\", \"available\": [";
    const auto isas = available_kernel_isas();
    for (std::size_t i = 0; i < isas.size(); ++i) {
      json << '"' << kernel_isa_name(isas[i]) << '"'
           << (i + 1 < isas.size() ? ", " : "");
    }
    json << "]},\n  \"config\": {\"max_n\": " << cfg.max_n
         << ", \"trials\": " << cfg.trials << ", \"threads\": " << cfg.threads
         << "},\n  \"sections\": [\n";
    for (std::size_t s = 0; s < sections.size(); ++s) {
      const Section& section = sections[s];
      json << "    {\"name\": \"" << section.name << "\", \"detail\": \""
           << section.detail << "\", \"baseline_sec\": " << section.baseline_sec
           << ", \"scalar_sec\": " << section.scalar_sec
           << ", \"dispatched_sec\": " << section.dispatched_sec
           << ", \"speedup_vs_baseline\": " << section.speedup_vs_baseline()
           << ", \"speedup_vs_scalar\": " << section.speedup_vs_scalar() << '}'
           << (s + 1 < sections.size() ? "," : "") << '\n';
    }
    json << "  ],\n  \"saturation\": {\"clients\": " << saturation.clients
         << ", \"jobs\": " << saturation.jobs
         << ", \"wall_sec\": " << saturation.wall_sec
         << ", \"throughput_jobs_per_sec\": "
         << saturation.throughput_jobs_per_sec
         << ",\n    \"rtt_p50_ms\": " << saturation.rtt.p50 * 1e3
         << ", \"rtt_p95_ms\": " << saturation.rtt.p95 * 1e3
         << ", \"rtt_p99_ms\": " << saturation.rtt.p99 * 1e3
         << ",\n    \"cache_hit_rate\": " << saturation.cache_hit_rate
         << ", \"jobs_served\": " << saturation.jobs_served
         << ", \"midload_jobs_served\": " << saturation.midload_jobs_served
         << ",\n    \"queue_depth_peak\": " << saturation.queue_depth_peak
         << ", \"arena_peak_bytes\": " << saturation.arena_peak_bytes
         << "},\n  \"snapshot_restore\": {\"entries\": "
         << snapshot_restore.entries
         << ", \"spill_sec\": " << snapshot_restore.spill_sec
         << ", \"restore_sec\": " << snapshot_restore.restore_sec
         << ", \"restored_hit_rate\": " << snapshot_restore.restored_hit_rate
         << "}\n}\n";
    if (!json.flush()) {
      std::fprintf(stderr, "   FAILED to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("   wrote %s\n", json_path.c_str());
  }

  int failures = 0;
  if (!check_spec.empty()) failures = check_floors(sections, check_spec);
  bench::footer(timer);
  return failures == 0 ? 0 : 1;
}
