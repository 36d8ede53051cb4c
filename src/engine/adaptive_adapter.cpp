#include "engine/adaptive_adapter.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <vector>

#include "core/incremental.hpp"
#include "core/mn.hpp"
#include "engine/registry.hpp"
#include "kernels/decode_arena.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace pooled {

AdaptiveDecoder::AdaptiveDecoder(std::shared_ptr<const Decoder> inner,
                                 AdaptiveOptions options)
    : inner_(std::move(inner)), options_(options) {
  POOLED_REQUIRE(inner_ != nullptr, "adaptive decoder needs an inner decoder");
  POOLED_REQUIRE(options_.batch_size >= 1, "adaptive batch size L must be >= 1");
}

DecodeOutcome AdaptiveDecoder::decode(const StreamedInstance& instance,
                                      const DecodeContext& context) const {
  const Timer timer;
  const auto& y = instance.results();
  // The instance's m queries are the budget; the context may tighten it.
  const std::uint32_t available = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(instance.m(), context.query_budget > 0
                                                ? context.query_budget
                                                : instance.m()));
  POOLED_REQUIRE(available >= 1, "adaptive decoding needs at least one query");

  // The revealed prefix, on the same design and channel (so gt inners
  // keep working and the stopping rule observes through the channel).
  const auto prefix = [&](std::uint32_t count) {
    return StreamedInstance(
        instance.design_ptr(), count,
        std::vector<std::uint32_t>(y.begin(), y.begin() + count),
        instance.channel(), instance.channel_threshold());
  };
  // MN inners fold each round's new queries into one accumulator instead
  // of re-decoding the prefix. A round of L queries is too little work to
  // split over the pool (a batch's worker wake-up costs about what the
  // fold saves), so pool lanes fold the next rounds ahead instead, one
  // per task, into a ring of delta blocks, and the loop takes them in
  // order, folding itself any round no lane has claimed. Rounds past the
  // budget or the rounds cap never fold, and a round folded ahead that
  // the loop never reaches stays out of the outcome. The accumulator's
  // records and statistics are this thread's arena slots, reused by its
  // next decode.
  std::optional<IncrementalMn> incremental;
  if (const auto* mn = dynamic_cast<const MnDecoder*>(inner_.get())) {
    incremental.emplace(instance.design_ptr(), mn->options(), &DecodeArena::local());
  }
  // The last query any round may read: the budget, or the rounds cap.
  const auto limit = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      available, context.max_rounds > 0
                     ? std::uint64_t{context.max_rounds} * options_.batch_size
                     : available));
  // On the linear channel the accumulator's fingerprint checks the
  // folded prefix in O(k); one-bit channels and other inners check it by
  // the exact pass.
  const bool fingerprinted =
      incremental && instance.channel() == ChannelKind::Quantitative;

  DecodeOutcome outcome;
  outcome.estimate = Signal(instance.n());
  // The round's estimate over the first `count` queries.
  const auto estimate_prefix = [&](std::uint32_t count) {
    if (incremental) {
      incremental->fold_round(y, options_.batch_size, limit, context.thread_pool());
      POOLED_DCHECK(incremental->m() == count, "rounds fold in the loop's order");
      Signal estimate = incremental->decode(context.k, context.thread_pool());
      outcome.score_evals += instance.n();  // one score per entry, as MN's
      return estimate;
    }
    DecodeContext inner_context = context;
    inner_context.max_rounds = 0;    // the inner decode is one-shot
    inner_context.query_budget = 0;  // it sees exactly the prefix
    inner_context.stats = nullptr;   // rounds are reported by this level
    DecodeOutcome inner = inner_->decode(prefix(count), inner_context);
    outcome.score_evals += inner.score_evals;
    return std::move(inner.estimate);
  };

  StopReason stop = StopReason::Exhausted;
  std::uint32_t consumed = 0;
  std::uint32_t round = 0;
  bool have_estimate = false;
  while (true) {
    if (context.cancel_requested()) {
      stop = StopReason::Cancelled;
      break;
    }
    if (context.deadline_seconds &&
        timer.seconds() > *context.deadline_seconds) {
      stop = StopReason::Deadline;
      break;
    }
    if (context.max_rounds > 0 && round >= context.max_rounds) {
      stop = StopReason::RoundLimit;
      break;
    }
    consumed = std::min(available, consumed + options_.batch_size);
    ++round;

    Signal estimate = estimate_prefix(consumed);
    const bool stable = have_estimate && estimate == outcome.estimate;
    outcome.estimate = std::move(estimate);
    have_estimate = true;
    if (context.stats != nullptr) context.stats->on_round(round, consumed);

    // Observable stopping rule: does the estimate reproduce every result
    // observed so far? (Wrong-but-consistent estimates are possible below
    // the information-theoretic threshold; scoring against the truth is
    // the engine's job, not ours.) The check runs only once the estimate
    // survives a round unchanged, or when the queries run out. It is O(k)
    // for MN on the linear channel, but the gate stays: it decides when
    // the rule may fire, so checking every round would change the rounds
    // and queries a decode reports.
    const bool exhausted = consumed >= available;
    if (stable || exhausted) {
      const bool consistent = fingerprinted
                                  ? incremental->is_consistent(outcome.estimate)
                                  : prefix(consumed).is_consistent(outcome.estimate);
      if (consistent) {
        stop = StopReason::Converged;
        break;
      }
      if (exhausted) {
        stop = StopReason::Exhausted;
        break;
      }
    }
  }
  if (incremental) incremental->finish_rounds();
  // The decode completes its fingerprint to all m queries, by the one-shot
  // pass's rule (unless one is published), so the engine's final check is
  // O(k): the queries it did not fold are folded on the pool, the rounds
  // folded ahead and never taken by their blocks. A cancelled decode
  // leaves only its folded prefix, which replaces a shorter one on a
  // shared instance (publish_fingerprint).
  if (fingerprinted && stop == StopReason::Cancelled) {
    if (incremental->m() > 0) instance.publish_fingerprint(incremental->fingerprint());
  } else if (fingerprinted) {
    const auto published = instance.fingerprint();
    if (published == nullptr || published->queries < instance.m()) {
      instance.publish_fingerprint(
          incremental->complete_fingerprint(y, context.thread_pool()));
    }
  }
  // `round` is reported as-is: an immediate cancel/deadline stops with 0
  // rounds run, matching the 0 on_round callbacks the stats sink saw.
  outcome.rounds = round;
  outcome.queries = consumed;
  outcome.stop = stop;
  outcome.seconds = timer.seconds();
  return outcome;
}

std::string AdaptiveDecoder::name() const {
  return "adaptive-" + inner_->name() + "-L" +
         std::to_string(options_.batch_size);
}

std::shared_ptr<const Decoder> make_adaptive_decoder(const std::string& variant) {
  POOLED_REQUIRE(!variant.empty(),
                 "adaptive needs an inner decoder spec, e.g. adaptive:mn:L=16");
  AdaptiveOptions options;
  std::string inner_spec = variant;
  constexpr const char* kBatchPrefix = "L=";
  const auto last_colon = variant.rfind(':');
  const std::string last_segment =
      last_colon == std::string::npos ? variant : variant.substr(last_colon + 1);
  if (last_segment.rfind(kBatchPrefix, 0) == 0) {
    const std::string text = last_segment.substr(2);
    std::uint32_t batch = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), batch);
    POOLED_REQUIRE(
        ec == std::errc() && ptr == text.data() + text.size() && batch >= 1,
        "adaptive batch size must be an integer >= 1, got '" + text + "'");
    options.batch_size = batch;
    POOLED_REQUIRE(last_colon != std::string::npos,
                   "adaptive needs an inner decoder spec before :" + last_segment);
    inner_spec = variant.substr(0, last_colon);
  }
  POOLED_REQUIRE(inner_spec.rfind("adaptive", 0) != 0,
                 "adaptive decoders do not nest (inner spec '" + inner_spec +
                     "')");
  return std::make_shared<AdaptiveDecoder>(make_decoder(inner_spec), options);
}

}  // namespace pooled
