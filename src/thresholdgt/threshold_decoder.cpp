#include "thresholdgt/threshold_decoder.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

std::uint64_t threshold_gt_gamma(std::uint32_t n, std::uint32_t k,
                                 std::uint32_t threshold) {
  POOLED_REQUIRE(n > 0 && k > 0 && threshold > 0,
                 "threshold_gt_gamma needs n, k, T > 0");
  const double gamma = static_cast<double>(threshold) * static_cast<double>(n) /
                       static_cast<double>(k);
  return std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(gamma)), 1, n);
}

ThresholdDecodeResult decode_threshold_mn(const StreamedInstance& instance,
                                          std::uint32_t k, ThreadPool& pool) {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  POOLED_REQUIRE(k <= n, "weight k exceeds signal length");
  POOLED_REQUIRE(instance.channel() != ChannelKind::Quantitative,
                 "threshold-MN decodes one-bit instances only");

  const double positives = static_cast<double>(instance.total_result());
  const double mean_outcome = m == 0 ? 0.0 : positives / static_cast<double>(m);

  // Integer per-entry statistics (positive-test count and distinct-query
  // count), accumulated exactly: Σ_{a ∈ ∂*x_i} (y_a − ȳ) = psi_i − Δ*_i ȳ.
  // Integral accumulation makes the result independent of the chunking /
  // thread count; the centered score is one dispatched kernel pass.
  DecodeArena& arena = DecodeArena::local();
  EntryStats& stats = arena.stats();
  instance.entry_stats_into(pool, stats, CountMode::Distinct);

  std::vector<double> scores(n);
  const KernelSet& kernels = active_kernels();
  parallel_for_chunked(pool, 0, n, 8192, [&](std::size_t lo, std::size_t hi) {
    kernels.score_centered(stats.psi.data(), stats.delta_star.data(), lo, hi,
                           mean_outcome, scores.data());
  });

  std::vector<std::uint32_t> support(k);
  select_top_k_into(scores.data(), n, k, support.data());
  return ThresholdDecodeResult{Signal(n, std::move(support)), std::move(scores)};
}

ThresholdGtDecoder::ThresholdGtDecoder(std::uint32_t threshold)
    : threshold_(threshold) {
  POOLED_REQUIRE(threshold_ >= 1, "gt threshold must be >= 1");
}

DecodeOutcome ThresholdGtDecoder::decode(const StreamedInstance& instance,
                                         const DecodeContext& context) const {
  // Scores `one_bit`; the outcome (and its consistency) is `instance`'s.
  const auto decode_one_bit = [&](const StreamedInstance& one_bit) {
    return one_shot_outcome(
        std::move(decode_threshold_mn(one_bit, context.k, context.thread_pool())
                      .estimate),
        instance, instance.n());
  };
  if (instance.channel() != ChannelKind::Quantitative) {
    // One-bit instances already fixed their threshold when the outcomes
    // were generated; a decoder labeled with a different T would silently
    // misinterpret them, so the labels must agree (Binary == threshold 1).
    const std::uint32_t recorded = instance.channel() == ChannelKind::Binary
                                       ? 1
                                       : instance.channel_threshold();
    POOLED_REQUIRE(recorded == threshold_,
                   "instance records threshold-" + std::to_string(recorded) +
                       " outcomes but the decoder is gt:threshold:" +
                       std::to_string(threshold_));
    return decode_one_bit(instance);
  }
  std::vector<std::uint32_t> y = instance.results();
  for (std::uint32_t& value : y) {
    value = apply_channel(value, ChannelKind::Threshold, threshold_);
  }
  return decode_one_bit(StreamedInstance(instance.design_ptr(), instance.m(),
                                         std::move(y), ChannelKind::Threshold,
                                         threshold_));
}

std::string ThresholdGtDecoder::name() const {
  return "gt-threshold-" + std::to_string(threshold_);
}

}  // namespace pooled
