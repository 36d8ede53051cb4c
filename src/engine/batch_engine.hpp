// Concurrent batch decoding over the shared ThreadPool.
//
// The engine treats independent decodes as schedulable jobs: submit a
// vector of DecodeJobs and get one DecodeReport per job, in *submission
// order* regardless of completion order, pool width, or in-flight
// window. Jobs execute concurrently with a bounded window so a large
// batch never materializes more than `max_in_flight` instances at once.
// This is the seam the serve mode, the Monte-Carlo harness, and the
// throughput bench all plug into.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "core/serialize.hpp"
#include "obs/metrics.hpp"

namespace pooled {

class ResultCache;
class ThreadPool;
class TraceSpan;

/// Instance plus (optionally) the hidden truth it was generated from.
struct InstanceBundle {
  std::shared_ptr<const StreamedInstance> instance;
  std::optional<std::vector<std::uint32_t>> truth_support;
};

/// One decode request. Exactly one instance source must be set; they are
/// consulted in order: prebuilt `instance`, lazy `build` (invoked on a
/// worker, so expensive construction overlaps with other jobs), then
/// serialized `spec`.
struct DecodeJob {
  std::shared_ptr<const StreamedInstance> instance;
  std::function<InstanceBundle(ThreadPool&)> build;
  std::optional<InstanceSpec> spec;

  std::string decoder = "mn";  ///< registry spec (see engine/registry.hpp)
  const Decoder* decoder_override = nullptr;  ///< bypasses the registry when set
  std::uint32_t k = 0;
  /// Truth support to score against (overrides the builder's, when both set).
  std::optional<std::vector<std::uint32_t>> truth_support;
  /// Verify the estimate against every observed query result
  /// (StreamedInstance::is_consistent). O(k) for quantitative MN decodes,
  /// whose pass or fold leaves a fingerprint on the instance; a pass over
  /// the design (comparable to the original simulation) for the queries
  /// no fingerprint covers, so bulk Monte-Carlo callers turn it off.
  bool check_consistency = true;

  // -- decode options (protocol v2 job fields) --------------------------
  /// Noise applied to the instance's results before decoding (the
  /// archived observables stay clean; see core/noise.hpp). Consistency is
  /// checked against the noisy observations the decoder saw.
  NoiseModel noise;
  /// Round cap for round-based decoders (protocol field `rounds`;
  /// 0 = decoder default). One-shot decoders ignore it.
  std::uint32_t rounds = 0;
  /// Query budget for round-based decoders (protocol field `budget`;
  /// 0 = everything the instance offers). One-shot decoders ignore it.
  std::uint64_t budget = 0;
  /// Soft per-job wall-clock budget (protocol field `deadline-ms`).
  /// Deadline-bearing jobs are never cached: their outcome depends on the
  /// clock, not just the inputs.
  std::optional<double> deadline_seconds;
  /// Seed for stochastic decoders (protocol field `seed`; 0 = the
  /// decoder's own default). Part of the cache key: seeded and unseeded
  /// decodes of one instance never alias.
  std::uint64_t rng_seed = 0;

  // -- per-job plumbing (not serialized; wired by the serving layer) ----
  /// Cooperative cancellation token forwarded to DecodeContext::cancel
  /// (may be null). The socket server points every job of a connection at
  /// the connection's token so a dropped client reclaims its workers.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-round progress observer forwarded to DecodeContext::stats (may
  /// be null; see ProgressStream in engine/protocol.hpp).
  DecodeStatsSink* stats = nullptr;
  /// Per-job trace span (may be null; see obs/trace.hpp). The engine
  /// times the cache-lookup / build / decode stages into it and records
  /// the outcome; the serving layer owns the span and emits it.
  TraceSpan* trace = nullptr;
};

/// Outcome of one job; `index` is the job's submission position.
struct DecodeReport {
  std::size_t index = 0;
  std::string decoder_name;
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  std::vector<std::uint32_t> support;  ///< estimate's one-entries, sorted
  bool consistent = false;             ///< estimate explains every query
  bool scored = false;                 ///< a truth support was provided
  bool exact = false;
  double overlap = 0.0;
  double seconds = 0.0;  ///< wall time incl. instance construction
  // -- decode diagnostics (protocol v2 result fields) -------------------
  std::uint32_t rounds = 1;       ///< query rounds the decode consumed
  std::uint64_t queries = 0;      ///< query results the decode consumed
  StopReason stop = StopReason::Completed;
  std::string error;  ///< non-empty => job failed, other fields unset
  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct EngineOptions {
  /// When > 0, jobs run in windows of this many at a time -- an upper
  /// bound on buffered results and (for prebuilt-instance batches
  /// assembled window by window) on live instances. 0 = one barrier-free
  /// batch over all jobs; lazy/spec-backed jobs then still materialize
  /// at most pool-width instances at once, since construction happens
  /// inside the worker task.
  std::size_t max_in_flight = 0;
  /// Capture per-job failures into DecodeReport::error instead of
  /// failing the whole batch. When false, the first failure (in
  /// submission order) rethrows once its window drains.
  bool capture_errors = true;
  /// Optional (non-owning) result cache consulted before scheduling a
  /// spec-backed decode and filled on completion. A hit reproduces the
  /// live report byte-for-byte except `index` and `seconds` (see
  /// engine/result_cache.hpp). Shared across engines; must outlive them.
  ResultCache* cache = nullptr;
};

class BatchEngine {
 public:
  explicit BatchEngine(ThreadPool& pool, EngineOptions options = {});

  /// Executes every job; reports come back indexed 0..jobs.size()-1 in
  /// submission order. Results are byte-identical to running each job's
  /// decode sequentially, for any pool size or window.
  [[nodiscard]] std::vector<DecodeReport> run(const std::vector<DecodeJob>& jobs) const;

  /// Executes one job on the calling thread (decoders still use the pool
  /// internally). Honors capture_errors.
  [[nodiscard]] DecodeReport run_one(const DecodeJob& job, std::size_t index = 0) const;

  /// Streaming chunk size: max_in_flight when bounded, else 4x pool
  /// width (a ServeSession decodes windows of this many jobs).
  [[nodiscard]] std::size_t window() const;

  /// The cache this engine consults (EngineOptions::cache; may be null).
  /// Lets the serving layer surface cache counters without threading the
  /// cache pointer through separately.
  [[nodiscard]] ResultCache* result_cache() const { return options_.cache; }

  /// The one registry every counter of this engine and of the serving
  /// layer around it lives in: engine.jobs_completed/jobs_failed and the
  /// engine.build_seconds/decode_seconds/consistency_seconds histograms
  /// (the last only for jobs with check_consistency), plus the serve.* and
  /// drain.* handles sessions and servers resolve. Thread-safe.
  [[nodiscard]] MetricsRegistry& metrics() const { return metrics_; }

  /// Registry handles resolved once at construction.
  struct MetricHandles {
    Counter& jobs_completed;
    Counter& jobs_failed;
    LatencyHistogram& build_seconds;
    LatencyHistogram& decode_seconds;
    LatencyHistogram& consistency_seconds;
  };

 private:
  ThreadPool& pool_;
  EngineOptions options_;
  mutable MetricsRegistry metrics_;
  MetricHandles handles_;
};

}  // namespace pooled
