#include "thresholdgt/threshold_decoder.hpp"

#include <atomic>
#include <numeric>

#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

/// Shared-atomics fallback, only for problem sizes whose per-lane partial
/// blocks would blow the arena budget. Integer accumulation keeps the
/// result identical to the fast paths.
void threshold_stats_atomic(const ThresholdGtInstance& instance, ThreadPool& pool,
                            EntryStats& stats) {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  std::vector<std::atomic<std::uint32_t>> psi(n);
  std::vector<std::atomic<std::uint32_t>> delta_star(n);
  constexpr std::uint32_t kUnmarked = 0xFFFFFFFFu;
  parallel_for_chunked(pool, 0, m, 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> mark(n, kUnmarked);
    for (std::size_t q = lo; q < hi; ++q) {
      const auto query = static_cast<std::uint32_t>(q);
      instance.query_members(query, members);
      const std::uint32_t outcome = instance.outcomes()[q];
      for (std::uint32_t entry : members) {
        if (mark[entry] != query) {
          mark[entry] = query;
          psi[entry].fetch_add(outcome, std::memory_order_relaxed);
          delta_star[entry].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  stats.resize(n, CountMode::Distinct);
  for (std::uint32_t i = 0; i < n; ++i) {
    stats.psi[i] = psi[i].load(std::memory_order_relaxed);
    stats.delta_star[i] = delta_star[i].load(std::memory_order_relaxed);
  }
}

/// Per-entry (positive-count, distinct-count) statistics -- the Distinct
/// pair psi and delta_star of `stats` -- via per-lane records: from the
/// bit-packed pools when available (no regeneration, no epoch marks -- the
/// bitmap is already distinct), else by folding regenerated members like
/// the MN pass. The channel is not linear, so no fingerprint weight.
void threshold_stats(const ThresholdGtInstance& instance, ThreadPool& pool,
                     EntryStats& stats) {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  const unsigned lanes = pool.size();
  if (!DecodeArena::lane_budget_ok(lanes, n)) {
    threshold_stats_atomic(instance, pool, stats);
    return;
  }
  const PackedPools* packed = instance.packed(&pool);
  LanePartials& partials = DecodeArena::local().lane_partials(lanes, n);
  parallel_for_chunked(pool, 0, m, 1, [&](std::size_t lo, std::size_t hi) {
    EntryRecord* records = partials.acquire(ThreadPool::current_lane());
    if (packed != nullptr) {
      for (std::size_t q = lo; q < hi; ++q) {
        const std::uint64_t outcome = instance.outcomes()[q];
        const std::uint64_t* row = packed->row(static_cast<std::uint32_t>(q));
        for (std::size_t w = 0; w < packed->words; ++w) {
          std::uint64_t bits = row[w];
          while (bits != 0) {
            const auto entry = static_cast<std::uint32_t>(
                w * 64 + static_cast<unsigned>(__builtin_ctzll(bits)));
            records[entry].sum += outcome;
            records[entry].count += 1;
            bits &= bits - 1;
          }
        }
      }
    } else {
      std::vector<std::uint32_t>& members = DecodeArena::local().members();
      for (std::size_t q = lo; q < hi; ++q) {
        instance.query_members(static_cast<std::uint32_t>(q), members);
        accumulate_query<CountMode::Distinct>(
            members.data(), members.size(), static_cast<std::uint32_t>(q) + 1,
            instance.outcomes()[q], /*weight=*/0, records);
      }
    }
  });
  partials.merge_into(stats, CountMode::Distinct);
}

}  // namespace

ThresholdDecodeResult decode_threshold_mn(const ThresholdGtInstance& instance,
                                          std::uint32_t k, ThreadPool& pool) {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  POOLED_REQUIRE(k <= n, "weight k exceeds signal length");

  double positives = 0.0;
  for (std::uint8_t outcome : instance.outcomes()) positives += outcome;
  const double mean_outcome = m == 0 ? 0.0 : positives / static_cast<double>(m);

  // Integer per-entry statistics (positive-test count and distinct-query
  // count), accumulated exactly: Σ_{a ∈ ∂*x_i} (y_a − ȳ) = psi_i − Δ*_i ȳ.
  // Integral accumulation makes the result independent of the chunking /
  // thread count; the centered score is one dispatched kernel pass.
  DecodeArena& arena = DecodeArena::local();
  EntryStats& stats = arena.stats();
  threshold_stats(instance, pool, stats);

  std::vector<double> scores(n);
  const KernelSet& kernels = active_kernels();
  parallel_for_chunked(pool, 0, n, 8192, [&](std::size_t lo, std::size_t hi) {
    kernels.score_centered(stats.psi.data(), stats.delta_star.data(), lo, hi,
                           mean_outcome, scores.data());
  });

  std::vector<std::uint32_t> support(k);
  select_top_k_into(kernels, scores.data(), n, k, arena.topk_values(n),
                    support.data());
  return ThresholdDecodeResult{Signal(n, std::move(support)), std::move(scores)};
}

}  // namespace pooled
