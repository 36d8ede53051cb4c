// The per-layer ledger of the traced run.
//
// Server-side numbers come from the existing `serve --trace` spans and a
// final `pooled-stats` frame. Everything else is timed here, around calls
// into each layer's public functions, replaying a sample of the
// workload's jobs in pipeline order:
//
//   parse -> cache -> build -> accumulate -> score -> top-k
//         -> consistency -> cache insert -> serialize -> write
//
// The stages between cache and cache insert are what BatchEngine::run_one
// does for a job; their sum must be within kStageTolerance of its wall
// time, or the ledger has lost (or double-counted) a stage. The replayed
// spans are kept in memory and written as JSONL once the replay is done.
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "core/mn.hpp"
#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/registry.hpp"
#include "engine/result_cache.hpp"
#include "engine/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "support/timer.hpp"

namespace perfbench {

namespace {

constexpr double kStageTolerance = 0.05;
constexpr unsigned kRepeats = 7;

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Times `body` once, in seconds.
template <typename Body>
double timed(Body&& body) {
  const pooled::Timer timer;
  body();
  return timer.seconds();
}

/// Records the time of each on_round callback (the adaptive trajectory).
class RoundClock final : public pooled::DecodeStatsSink {
 public:
  void on_round(std::uint32_t, std::uint64_t queries_so_far) override {
    stamps.push_back(now_seconds());
    queries = queries_so_far;
  }
  std::vector<double> stamps;
  std::uint64_t queries = 0;
};

/// Per-stage seconds of one staged replay of one job.
struct Stages {
  double cache = 0.0;         ///< job_key + lookup (a miss)
  double build = 0.0;         ///< decoder resolution + InstanceSpec::to_instance
  double accumulate = 0.0;    ///< entry_stats_into (MN decoders)
  double score = 0.0;         ///< scores_from_stats (MN decoders)
  double topk = 0.0;          ///< select_top_k (MN decoders)
  double decode = 0.0;        ///< the whole decode (every decoder)
  double consistency = 0.0;   ///< Instance::is_consistent on the estimate
  double truth = 0.0;         ///< exact / overlap against the attached truth
  double insert = 0.0;        ///< ResultCache::insert
  [[nodiscard]] double engine_sum(bool cached) const {
    return (cached ? cache + insert : 0.0) + build + decode + consistency + truth;
  }
};

/// The pipeline of BatchEngine's execute(), one public call per stage.
Stages replay_stages(const pooled::DecodeJob& job, const Workload& workload,
                     pooled::ThreadPool& pool, std::vector<std::uint32_t>& support) {
  Stages stages;
  pooled::ResultCache cache(std::max<std::size_t>(workload.cache, 1));
  std::string key;
  stages.cache = timed([&] {
    key = *pooled::ResultCache::job_key(job);
    (void)cache.lookup(key);
  });
  std::shared_ptr<const pooled::Decoder> decoder;
  std::unique_ptr<pooled::StreamedInstance> instance;
  stages.build = timed([&] {
    decoder = pooled::make_decoder(job.decoder);
    instance = job.spec->to_instance();
  });
  if (job.decoder == "mn") {
    const pooled::MnDecoder mn;
    pooled::EntryStats stats;
    std::vector<double> scores;
    stages.accumulate = timed([&] { instance->entry_stats_into(pool, stats); });
    stages.score = timed([&] { scores = mn.scores_from_stats(stats, job.k, pool); });
    stages.topk = timed([&] { support = pooled::select_top_k(scores, job.k, false, pool); });
    stages.decode = stages.accumulate + stages.score + stages.topk;
  } else {
    stages.decode = timed([&] {
      const pooled::DecodeOutcome outcome =
          decoder->decode(*instance, pooled::DecodeContext(job.k, pool));
      support.assign(outcome.estimate.support().begin(), outcome.estimate.support().end());
    });
  }
  const pooled::Signal estimate(instance->n(), support);
  pooled::DecodeReport report;
  stages.consistency = timed([&] { report.consistent = instance->is_consistent(estimate); });
  stages.truth = timed([&] {
    const pooled::Signal truth(instance->n(), *job.truth_support);
    report.exact = pooled::exact_recovery(estimate, truth);
    report.overlap = pooled::overlap_fraction(estimate, truth);
  });
  report.support = support;
  stages.insert = timed([&] { cache.insert(key, report); });
  return stages;
}

/// Per-layer probes of the decode kernels on one instance.
struct KernelProbe {
  double accumulate = 0.0;         ///< entry_stats_into, full pool
  double accumulate_serial = 0.0;  ///< entry_stats_into, 1-thread pool
  double regen = 0.0;              ///< every query_members call, one thread
  double score = 0.0;
  double topk = 0.0;
  double draws = 0.0;              ///< m * Gamma membership draws
};

KernelProbe probe_kernels(const pooled::InstanceSpec& spec, std::uint32_t k,
                          pooled::ThreadPool& pool, pooled::ThreadPool& serial) {
  const auto instance = spec.to_instance();
  KernelProbe probe;
  pooled::EntryStats stats;
  probe.accumulate = timed([&] { instance->entry_stats_into(pool, stats); });
  probe.accumulate_serial = timed([&] { instance->entry_stats_into(serial, stats); });
  std::vector<std::uint32_t> members;
  probe.regen = timed([&] {
    for (std::uint32_t q = 0; q < instance->m(); ++q) {
      instance->query_members(q, members);
      probe.draws += static_cast<double>(members.size());
    }
  });
  std::vector<double> scores;
  probe.score = timed([&] { scores = pooled::MnDecoder().scores_from_stats(stats, k, pool); });
  probe.topk = timed([&] { (void)pooled::select_top_k(scores, k, false, pool); });
  return probe;
}

/// Median seconds to write and flush one result frame on a loopback
/// SocketStream whose peer drains everything.
double time_socket_write(const pooled::DecodeReport& report) {
  auto listener = pooled::ListenSocket::bind_and_listen(
      pooled::SocketAddress::parse("127.0.0.1:0"));
  pooled::Socket client = pooled::Socket::dial(listener.local_address());
  std::optional<pooled::Socket> accepted = listener.accept(5000);
  if (!accepted) throw std::runtime_error("loopback accept timed out");
  std::thread drain([&client] {
    char buffer[65536];
    while (::recv(client.fd(), buffer, sizeof(buffer), 0) > 0) {
    }
  });
  std::vector<double> samples;
  {
    pooled::SocketStream stream(std::move(*accepted));
    for (int i = 0; i < 200; ++i) {
      samples.push_back(timed([&] {
        pooled::save_report(stream.out(), report);
        stream.out().flush();
      }));
    }
    stream.socket().shutdown_write();
  }
  drain.join();
  return median(samples);
}

/// One replayed job as a JSONL line: its stages in pipeline order and the
/// run_one wall time they reconcile against, in microseconds.
std::string span_line(std::size_t instance, unsigned repeat, double parse,
                      const Stages& stages, double serialize, double run_one) {
  const std::pair<const char*, double> fields[] = {
      {"parse", parse},           {"cache", stages.cache},
      {"build", stages.build},    {"accumulate", stages.accumulate},
      {"score", stages.score},    {"topk", stages.topk},
      {"decode", stages.decode},  {"consistency", stages.consistency},
      {"truth", stages.truth},    {"insert", stages.insert},
      {"serialize", serialize}};
  std::string line = "{\"instance\":" + std::to_string(instance) +
                     ",\"repeat\":" + std::to_string(repeat) + ",\"stages_us\":{";
  for (const auto& [name, seconds] : fields) {
    if (line.back() != '{') line += ',';
    line += "\"" + std::string(name) + "\":" + std::to_string(seconds * 1e6);
  }
  return line + "},\"run_one_us\":" + std::to_string(run_one * 1e6) + "}\n";
}

/// Microseconds of one stage in a `serve --trace` JSONL line, or -1.
double span_stage_us(const std::string& line, const std::string& stage) {
  const std::size_t stages = line.find("\"stages_us\":{");
  if (stages == std::string::npos) return -1.0;
  const std::string key = "\"" + stage + "\":";
  const std::size_t at = line.find(key, stages);
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + key.size(), nullptr);
}

double ok_rate(const LoadResult& load) {
  std::size_t ok = 0;
  for (const JobRecord& job : load.jobs) ok += job.ok ? 1 : 0;
  return static_cast<double>(ok) / load.wall_seconds;
}

}  // namespace

LedgerResult build_ledger(const Workload& workload, const Inputs& inputs,
                          const TracedRun& run,
                          pooled::ThreadPool& pool) {
  LedgerResult result;
  const auto fail = [&result](const std::string& why) {
    if (result.correct) result.failure = why;
    result.correct = false;
  };
  const bool cached = workload.cache > 0;

  // -- server side: trace spans and the stats frame ----------------------
  std::vector<double> queue_ms;
  double engine_span_seconds = 0.0;
  {
    std::ifstream trace(run.trace_path);
    std::string line;
    while (std::getline(trace, line)) {
      if (const double queue = span_stage_us(line, "queue"); queue >= 0) {
        queue_ms.push_back(queue / 1e3);
      }
      for (const char* stage : {"cache-lookup", "build", "decode"}) {
        engine_span_seconds += std::max(0.0, span_stage_us(line, stage)) / 1e6;
      }
    }
  }
  if (queue_ms.empty()) fail("the traced server wrote no spans");
  double frame_seconds = run.traced.warmup_frame_seconds;
  std::vector<double> outside_ms;
  for (const JobRecord& job : run.traced.jobs) {
    frame_seconds += job.frame_seconds;
    outside_ms.push_back((job.rtt_seconds - job.frame_seconds) * 1e3);
  }
  std::istringstream stats_text(run.stats_frame);
  const std::optional<pooled::MetricsSnapshot> stats =
      pooled::load_stats_snapshot(stats_text);
  if (!stats) throw std::runtime_error("empty stats frame");
  const auto peak = [&stats](const char* name) {
    const pooled::MetricValue* value = stats->find(name);
    return value == nullptr ? 0.0 : static_cast<double>(value->peak);
  };
  const double hits = static_cast<double>(stats->counter_value("cache.hits"));
  const double misses = static_cast<double>(stats->counter_value("cache.misses"));

  // -- in-process replay of sampled jobs ----------------------------------
  std::vector<double> parse_s, serialize_s, run_one_s, build_s, cache_s, insert_s,
      consistency_s, rounds, queries, round_ms, last_round_ms;
  double stage_sum = 0.0;
  double wall_sum = 0.0;
  pooled::DecodeReport sample_report;
  std::string spans;
  for (std::size_t s = 0; s < workload.replay_samples; ++s) {
    const std::size_t instance = workload.hot + s % workload.distinct;
    std::vector<double> job_stage_sums;
    std::vector<double> job_walls;
    for (unsigned r = 0; r < kRepeats; ++r) {
      std::optional<pooled::DecodeJob> job;
      parse_s.push_back(timed([&] {
        std::istringstream frame(inputs.frames[instance]);
        job = pooled::load_job(frame);
      }));
      // The engine's own path: a fresh cache (so the job misses and
      // inserts, as a first request does) and a round clock.
      pooled::ResultCache cache(std::max<std::size_t>(workload.cache, 1));
      pooled::EngineOptions options;
      options.cache = cached ? &cache : nullptr;
      const pooled::BatchEngine engine(pool, options);
      RoundClock clock;
      pooled::DecodeReport report;
      double start = 0.0;
      double wall = 0.0;
      const auto engine_path = [&] {
        job->stats = &clock;
        start = now_seconds();
        report = engine.run_one(*job);
        wall = now_seconds() - start;
        job->stats = nullptr;
      };
      // The same job, stage by stage.
      Stages stages;
      std::vector<std::uint32_t> support;
      const auto staged_path = [&] { stages = replay_stages(*job, workload, pool, support); };
      // Alternate which path runs first so warm-cache effects even out.
      if (r % 2 == 0) {
        engine_path();
        staged_path();
      } else {
        staged_path();
        engine_path();
      }
      job_walls.push_back(wall);
      if (!report.ok() || report.support != inputs.reference[instance]) {
        fail("in-process run_one disagrees with the reference decode");
      }
      if (support != inputs.reference[instance]) {
        fail("staged replay disagrees with the reference decode");
      }
      job_stage_sums.push_back(stages.engine_sum(cached));
      serialize_s.push_back(timed([&] {
        std::ostringstream out;
        pooled::save_report(out, report);
      }));
      spans += span_line(instance, r, parse_s.back(), stages, serialize_s.back(), wall);
      build_s.push_back(stages.build);
      cache_s.push_back(stages.cache);
      insert_s.push_back(stages.insert);
      consistency_s.push_back(stages.consistency);
      run_one_s.push_back(wall);
      if (clock.stamps.empty()) {
        rounds.push_back(report.rounds);
        queries.push_back(static_cast<double>(report.queries));
        round_ms.push_back(stages.decode * 1e3);
        last_round_ms.push_back(stages.decode * 1e3);
      } else {
        rounds.push_back(static_cast<double>(clock.stamps.size()));
        queries.push_back(static_cast<double>(clock.queries));
        double previous = start;
        for (double stamp : clock.stamps) {
          round_ms.push_back((stamp - previous) * 1e3);
          previous = stamp;
        }
        const std::size_t last = clock.stamps.size() - 1;
        last_round_ms.push_back(
            (clock.stamps[last] - (last == 0 ? start : clock.stamps[last - 1])) * 1e3);
      }
      sample_report = report;
    }
    stage_sum += median(job_stage_sums);
    wall_sum += median(job_walls);
  }
  const double stage_share = wall_sum > 0 ? stage_sum / wall_sum : 0.0;
  if (std::abs(stage_share - 1.0) > kStageTolerance) {
    fail("ledger stages sum to " + std::to_string(stage_share) +
         " of run_one wall time");
  }
  std::ofstream(run.ledger_path) << spans;

  // -- decode kernels ------------------------------------------------------
  pooled::ThreadPool serial(1);
  std::vector<double> accumulate_s, accumulate_serial_s, regen_s, score_s, topk_s, speedup;
  double draws = 0.0;
  const std::size_t probes = std::min<std::size_t>(workload.replay_samples, 3);
  for (std::size_t s = 0; s < probes; ++s) {
    for (unsigned r = 0; r < 3; ++r) {
      const KernelProbe probe =
          probe_kernels(inputs.specs[workload.hot + s], workload.k, pool, serial);
      accumulate_s.push_back(probe.accumulate);
      accumulate_serial_s.push_back(probe.accumulate_serial);
      regen_s.push_back(probe.regen);
      score_s.push_back(probe.score);
      topk_s.push_back(probe.topk);
      speedup.push_back(probe.accumulate_serial / probe.accumulate);
      draws = probe.draws;  // m * Gamma: the same for every instance
    }
  }

  double request_bytes = 0.0;
  for (const std::string& frame : inputs.frames) request_bytes += frame.size();
  request_bytes /= static_cast<double>(inputs.frames.size());
  const double plain_rate = ok_rate(run.plain);

  result.metrics = {
      {"protocol.parse_us", median(parse_s) * 1e6, "us"},
      {"protocol.serialize_us", median(serialize_s) * 1e6, "us"},
      {"protocol.request_bytes", request_bytes, "bytes"},
      {"serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms"},
      {"serve.queue_ms_p90", quantile(queue_ms, 0.9), "ms"},
      {"serve.outside_engine_ms", median(outside_ms), "ms"},
      {"serve.write_us", time_socket_write(sample_report) * 1e6, "us"},
      {"serve.queue_depth_peak", peak("serve.queue_depth"), "count"},
      {"cache.hit_share", hits + misses > 0 ? hits / (hits + misses) : 0.0, "share"},
      {"cache.lookup_us", median(cache_s) * 1e6, "us"},
      {"cache.insert_us", median(insert_s) * 1e6, "us"},
      {"build.us", median(build_s) * 1e6, "us"},
      {"decode.accumulate_ms", median(accumulate_s) * 1e3, "ms"},
      {"decode.draws", draws, "count"},
      {"decode.ns_per_draw", median(accumulate_serial_s) / draws * 1e9, "ns"},
      {"kernels.regen_ns_per_draw", median(regen_s) / draws * 1e9, "ns"},
      {"pool.accumulate_speedup", median(speedup), "x"},
      {"decode.score_us", median(score_s) * 1e6, "us"},
      {"decode.topk_us", median(topk_s) * 1e6, "us"},
      {"consistency.ms", median(consistency_s) * 1e3, "ms"},
      {"engine.job_ms", median(run_one_s) * 1e3, "ms"},
      {"engine.unattributed_share",
       frame_seconds > 0 ? 1.0 - engine_span_seconds / frame_seconds : 0.0, "share"},
      {"ledger.stage_sum_share", stage_share, "share"},
      {"adaptive.rounds", median(rounds), "count"},
      {"adaptive.queries", median(queries), "count"},
      {"adaptive.round_ms_p50", median(round_ms), "ms"},
      {"adaptive.last_round_ms", median(last_round_ms), "ms"},
      {"arena.peak_bytes", peak("arena.live_bytes"), "bytes"},
      {"trace.overhead_share",
       plain_rate > 0 ? (plain_rate - ok_rate(run.traced)) / plain_rate : 0.0, "share"},
  };
  return result;
}

}  // namespace perfbench
