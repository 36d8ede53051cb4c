// Decode API v2: the common decoder interface implemented by the MN
// algorithm, every baseline, and the engine adapters.
//
// A decode is `DecodeOutcome decode(instance, context)`: the context
// bundles everything that parameterizes the run (k, thread pool, noise
// spec, round/budget caps for adaptive schemes, deadline, cancellation,
// RNG seed, stats sink) and the outcome pairs the estimate with
// diagnostics (rounds, queries consumed, score evaluations, wall time,
// stop reason). One-shot decoders fill the diagnostics via
// `one_shot_outcome`; round-based decoders report their real trajectory.
// The positional `Signal decode(instance, k, pool)` form survives as a
// non-virtual convenience that builds a context and drops diagnostics.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "core/instance.hpp"
#include "core/noise.hpp"
#include "core/signal.hpp"

namespace pooled {

class ThreadPool;

/// Why a decode returned when it did. One-shot decoders always complete;
/// the other reasons belong to round-based/budgeted decoding.
enum class StopReason : std::uint8_t {
  Completed,  ///< one-shot decode ran to completion
  Converged,  ///< adaptive: estimate explained every observation so far
  RoundLimit, ///< adaptive: hit the round cap before converging
  Exhausted,  ///< adaptive: ran out of queries (budget or instance) unconverged
  Deadline,   ///< wall-clock deadline expired
  Cancelled,  ///< cancellation token was set
};

/// Stable wire/CLI identifiers ("completed", "converged", ...).
[[nodiscard]] std::string stop_reason_name(StopReason reason);
[[nodiscard]] StopReason stop_reason_from_name(const std::string& name);

/// Optional observer of round-based decode progress (serving dashboards,
/// benches). Implementations must tolerate concurrent decodes: one sink
/// may be shared by every job of a batch.
class DecodeStatsSink {
 public:
  virtual ~DecodeStatsSink() = default;

  /// Called after each completed round with the cumulative query count.
  virtual void on_round(std::uint32_t round, std::uint64_t queries_so_far) = 0;
};

/// Everything that parameterizes one decode, besides the instance.
struct DecodeContext {
  DecodeContext() = default;
  DecodeContext(std::uint32_t k_, ThreadPool& pool_) : k(k_), pool(&pool_) {}

  /// Hamming weight of the estimate (known in the teacher-student model;
  /// one extra all-entries query reveals it otherwise).
  std::uint32_t k = 0;

  /// Worker pool decoders parallelize over. Required; `thread_pool()`
  /// asserts it is set.
  ThreadPool* pool = nullptr;

  /// Noise the caller applied to the instance's results before this
  /// decode (see core/noise.hpp `with_noise`). Recorded here so decoders
  /// and diagnostics know the observations are perturbed; decoders do not
  /// re-apply it.
  NoiseModel noise;

  /// Cap on rounds for round-based decoders (0 = decoder default).
  /// One-shot decoders ignore it.
  std::uint32_t max_rounds = 0;

  /// Cap on queries a round-based decoder may consume (0 = everything
  /// the instance offers). One-shot decoders ignore it.
  std::uint64_t query_budget = 0;

  /// Soft wall-clock budget in seconds from decode start. Decoders check
  /// it between rounds (never mid-kernel) and stop with
  /// StopReason::Deadline.
  std::optional<double> deadline_seconds;

  /// Cooperative cancellation token (may be null). Checked between
  /// rounds; a set token stops with StopReason::Cancelled.
  const std::atomic<bool>* cancel = nullptr;

  /// Seed for stochastic decoders (0 = the decoder's own default).
  std::uint64_t rng_seed = 0;

  /// Optional per-round progress observer (may be null).
  DecodeStatsSink* stats = nullptr;

  /// The pool, asserted non-null.
  [[nodiscard]] ThreadPool& thread_pool() const;

  [[nodiscard]] bool cancel_requested() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// Estimate plus per-decode diagnostics.
struct DecodeOutcome {
  Signal estimate{1};  ///< placeholder until the decode fills it in
  std::uint32_t rounds = 1;        ///< query rounds consumed (1 for one-shot)
  std::uint64_t queries = 0;       ///< query results consumed by the decode
  std::uint64_t score_evals = 0;   ///< per-entry score/correlation evaluations
  double seconds = 0.0;            ///< decoder-internal wall time
  StopReason stop = StopReason::Completed;
};

/// Fills the one-shot diagnostic shape: one round over all m observed
/// queries, StopReason::Completed. `score_evals` is decoder-specific.
[[nodiscard]] DecodeOutcome one_shot_outcome(Signal estimate,
                                             const StreamedInstance& instance,
                                             std::uint64_t score_evals = 0);

class Decoder {
 public:
  virtual ~Decoder() = default;

  /// Reconstructs a weight-context.k estimate of the hidden signal from
  /// (G, y) and reports how the decode went.
  [[nodiscard]] virtual DecodeOutcome decode(const StreamedInstance& instance,
                                             const DecodeContext& context) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// v1-shaped convenience: builds a context from (k, pool) and returns
  /// just the estimate. Non-virtual -- implementations override the
  /// context form and re-export this with `using Decoder::decode;`.
  [[nodiscard]] Signal decode(const StreamedInstance& instance, std::uint32_t k,
                              ThreadPool& pool) const;
};

}  // namespace pooled
