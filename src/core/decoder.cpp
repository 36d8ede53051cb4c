#include "core/decoder.hpp"

#include "support/assert.hpp"

namespace pooled {

std::string stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::Completed:
      return "completed";
    case StopReason::Converged:
      return "converged";
    case StopReason::RoundLimit:
      return "round-limit";
    case StopReason::Exhausted:
      return "exhausted";
    case StopReason::Deadline:
      return "deadline";
    case StopReason::Cancelled:
      return "cancelled";
  }
  return "completed";
}

StopReason stop_reason_from_name(const std::string& name) {
  if (name == "completed") return StopReason::Completed;
  if (name == "converged") return StopReason::Converged;
  if (name == "round-limit") return StopReason::RoundLimit;
  if (name == "exhausted") return StopReason::Exhausted;
  if (name == "deadline") return StopReason::Deadline;
  if (name == "cancelled") return StopReason::Cancelled;
  POOLED_REQUIRE(false, "unknown stop reason '" + name + "'");
  return StopReason::Completed;
}

ThreadPool& DecodeContext::thread_pool() const {
  POOLED_REQUIRE(pool != nullptr, "decode context has no thread pool");
  return *pool;
}

DecodeOutcome one_shot_outcome(Signal estimate, const StreamedInstance& instance,
                               std::uint64_t score_evals) {
  DecodeOutcome outcome;
  outcome.estimate = std::move(estimate);
  outcome.rounds = 1;
  outcome.queries = instance.m();
  outcome.score_evals = score_evals;
  outcome.stop = StopReason::Completed;
  return outcome;
}

Signal Decoder::decode(const StreamedInstance& instance, std::uint32_t k,
                       ThreadPool& pool) const {
  DecodeOutcome outcome = decode(instance, DecodeContext(k, pool));
  return std::move(outcome.estimate);
}

}  // namespace pooled
