// Differential battery for the runtime-dispatched kernels: every variant
// the host can run must be bit-identical to the scalar reference --
// scores (all four MnScore shapes, compared as raw bit patterns),
// Philox/Lemire sampling (exact 32-bit consumption order incl. the
// rejection path), bit-packed word ops, and top-k selection with its
// lower-index tie-break. Decoder-level equivalence is asserted across
// designs x channels via full decodes under each variant.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <utility>

#include "binarygt/binary_decoders.hpp"
#include "core/incremental.hpp"
#include "core/instance.hpp"
#include "core/mn.hpp"
#include "design/bernoulli.hpp"
#include "design/distinct.hpp"
#include "design/random_regular.hpp"
#include "graph/packed_pools.hpp"
#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"
#include "rng/splitmix64.hpp"
#include "thresholdgt/threshold_decoder.hpp"

namespace {

using namespace pooled;

/// Restores the dispatched set when a test finishes.
class KernelGuard {
 public:
  explicit KernelGuard(const KernelSet& set) : prev_(set_active_kernels(set)) {}
  ~KernelGuard() { set_active_kernels(prev_); }

 private:
  const KernelSet& prev_;
};

std::vector<const KernelSet*> simd_variants() {
  std::vector<const KernelSet*> sets;
  for (KernelIsa isa : available_kernel_isas()) {
    if (isa != KernelIsa::Scalar) sets.push_back(kernels_for(isa));
  }
  return sets;
}

TEST(KernelDispatch, ScalarAlwaysAvailableAndActiveSetValid) {
  ASSERT_NE(kernels_for(KernelIsa::Scalar), nullptr);
  const auto isas = available_kernel_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), KernelIsa::Scalar);
  // The active set is one of the available ones.
  bool found = false;
  for (KernelIsa isa : isas) {
    if (kernels_for(isa) == &active_kernels()) found = true;
  }
  EXPECT_TRUE(found) << "active set " << kernel_isa_name(active_kernels().isa);
}

TEST(KernelScores, BitIdenticalAcrossVariants) {
  const KernelSet& scalar = *kernels_for(KernelIsa::Scalar);
  std::mt19937_64 rng(7);
  const std::size_t n = 1337;  // deliberately not a vector multiple
  std::vector<std::uint64_t> psi(n), psi_multi(n), delta(n);
  std::vector<std::uint32_t> delta_star(n);
  for (std::size_t i = 0; i < n; ++i) {
    psi[i] = rng() >> (rng() % 64);  // exercise full magnitude range
    psi_multi[i] = rng() >> (rng() % 64);
    delta[i] = rng() >> (rng() % 64);
    delta_star[i] = static_cast<std::uint32_t>(rng());
    if (i % 97 == 0) delta_star[i] = 0;  // normalized-score guard lanes
  }
  std::vector<double> want(n), got(n);
  const double center = 313.0 / 2.0;
  for (const KernelSet* simd : simd_variants()) {
    for (int shape = 0; shape < 4; ++shape) {
      // Unaligned sub-ranges stress the vector heads/tails.
      const std::pair<std::size_t, std::size_t> ranges[] = {
          {0, n}, {1, n - 3}, {n / 2 + 1, n / 2 + 9}};
      for (const auto& [lo, hi] : ranges) {
        std::fill(want.begin(), want.end(), -1.0);
        std::fill(got.begin(), got.end(), -1.0);
        switch (shape) {
          case 0:
            scalar.score_centered(psi.data(), delta_star.data(), lo, hi, center,
                                  want.data());
            simd->score_centered(psi.data(), delta_star.data(), lo, hi, center,
                                 got.data());
            break;
          case 1:
            scalar.score_raw(psi.data(), lo, hi, want.data());
            simd->score_raw(psi.data(), lo, hi, got.data());
            break;
          case 2:
            scalar.score_normalized(psi.data(), delta_star.data(), lo, hi,
                                    want.data());
            simd->score_normalized(psi.data(), delta_star.data(), lo, hi,
                                   got.data());
            break;
          case 3:
            scalar.score_multiedge(psi_multi.data(), delta.data(), lo, hi,
                                   center, want.data());
            simd->score_multiedge(psi_multi.data(), delta.data(), lo, hi,
                                  center, got.data());
            break;
        }
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(double)))
            << kernel_isa_name(simd->isa) << " shape " << shape << " range ["
            << lo << "," << hi << ")";
      }
    }
  }
}

TEST(KernelSampling, MatchesPhiloxStreamReference) {
  // The kernel contract: identical to PhiloxStream + sample_with_
  // replacement (the pre-kernel implementation), for any n -- including
  // n just above 2^31, where the Lemire rejection fires ~50% of the time.
  // The counts cover every step shape of the vector samplers: nothing,
  // a single-group step, 64 draws committed at once, a partial last
  // step, and long pools (the rejecting n puts a rejection in nearly
  // every step).
  for (const std::size_t count : {0u, 1u, 63u, 64u, 65u, 733u, 4113u}) {
    for (const std::uint64_t n : {1ull, 2ull, 7ull, 400ull, 99991ull,
                                  (1ull << 31) + 1ull}) {
      for (std::uint64_t stream = 0; stream < 4; ++stream) {
        const std::uint64_t seed = 0xABCDEF0123ull + stream;
        std::vector<std::uint32_t> want;
        PhiloxStream ref(seed, stream);
        sample_with_replacement(ref, n, count, want);

        const std::uint64_t mixed_seed = splitmix64_mix(seed);
        const std::uint64_t mixed_stream =
            splitmix64_mix(stream ^ 0xA5A5A5A5A5A5A5A5ull);
        const auto n32 = static_cast<std::uint32_t>(n);
        const auto threshold =
            static_cast<std::uint32_t>((0x100000000ull - n32) % n32);
        // One sentinel past the end: no variant may write beyond count.
        std::vector<std::uint32_t> got(count + 1);
        for (KernelIsa isa : available_kernel_isas()) {
          std::fill(got.begin(), got.end(), 0xFFFFFFFFu);
          kernels_for(isa)->sample_u32(static_cast<std::uint32_t>(mixed_seed),
                                       static_cast<std::uint32_t>(mixed_seed >> 32),
                                       mixed_stream, n32, threshold, count,
                                       got.data());
          ASSERT_EQ(got.back(), 0xFFFFFFFFu)
              << kernel_isa_name(isa) << " wrote past count=" << count;
          ASSERT_EQ(want, std::vector<std::uint32_t>(got.begin(), got.end() - 1))
              << kernel_isa_name(isa) << " count=" << count << " n=" << n
              << " stream=" << stream;
        }
      }
    }
  }
}

TEST(KernelWords, PackedOpsMatchScalar) {
  const KernelSet& scalar = *kernels_for(KernelIsa::Scalar);
  std::mt19937_64 rng(23);
  for (const std::size_t words : {0ull, 1ull, 3ull, 4ull, 17ull, 64ull}) {
    std::vector<std::uint64_t> a(words), b(words);
    for (auto& w : a) w = rng();
    for (auto& w : b) w = rng();
    for (const KernelSet* simd : simd_variants()) {
      std::vector<std::uint64_t> dst_want = a, dst_got = a;
      scalar.or_words(dst_want.data(), b.data(), words);
      simd->or_words(dst_got.data(), b.data(), words);
      EXPECT_EQ(dst_want, dst_got) << kernel_isa_name(simd->isa);
      EXPECT_EQ(scalar.popcount_words(a.data(), words),
                simd->popcount_words(a.data(), words));
      EXPECT_EQ(scalar.andnot_popcount(a.data(), b.data(), words),
                simd->andnot_popcount(a.data(), b.data(), words));
      EXPECT_EQ(scalar.and_popcount(a.data(), b.data(), words),
                simd->and_popcount(a.data(), b.data(), words));
    }
  }
}

/// Reference top-k: the pre-kernel nth_element-over-indices formulation,
/// whose (score desc, index asc) order is the library contract.
std::vector<std::uint32_t> reference_top_k(const std::vector<double>& scores,
                                           std::uint32_t k) {
  std::vector<std::uint32_t> order(scores.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::nth_element(order.begin(), order.begin() + k, order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (scores[a] != scores[b]) return scores[a] > scores[b];
                     return a < b;
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  return order;
}

TEST(KernelTopK, ScanMatchesTheReference) {
  std::mt19937_64 rng(31);
  const std::size_t n = 509;
  // Heavy ties (a tiny value set, all-equal, two values, signed zeros)
  // and the orders that stress the scan: ascending scores make every
  // entry enter the kept set, descending ones none after the first k.
  std::vector<std::vector<double>> cases;
  cases.push_back(std::vector<double>(n, 1.5));
  std::vector<double> two(n);
  for (std::size_t i = 0; i < n; ++i) two[i] = (i % 2 == 0) ? 1.0 : -1.0;
  cases.push_back(two);
  std::vector<double> few(n);
  for (std::size_t i = 0; i < n; ++i) {
    few[i] = static_cast<double>(rng() % 7) - 3.0;
  }
  cases.push_back(few);
  std::vector<double> dense(n);
  for (std::size_t i = 0; i < n; ++i) {
    dense[i] = static_cast<double>(static_cast<std::int64_t>(rng())) * 0x1p-32;
  }
  cases.push_back(dense);
  std::vector<double> ascending(n), descending(n), zeros(n);
  for (std::size_t i = 0; i < n; ++i) {
    ascending[i] = static_cast<double>(i) * 0.25 - 7.0;
    descending[i] = -ascending[i];
    zeros[i] = rng() % 2 == 0 ? 0.0 : -0.0;  // equal under ==: index decides
  }
  cases.push_back(ascending);
  cases.push_back(descending);
  cases.push_back(zeros);
  for (const auto& scores : cases) {
    for (const std::uint32_t k : {0u, 1u, 7u, 128u, static_cast<unsigned>(n)}) {
      std::vector<std::uint32_t> got(k, 0xFFFFFFFFu);
      select_top_k_into(scores.data(), n, k, got.data());
      ASSERT_EQ(reference_top_k(scores, k), got) << "k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Decoder-level equivalence: full decodes across designs x channels x
// score shapes, per variant.

std::shared_ptr<const PoolingDesign> make_test_design(int kind, std::uint32_t n) {
  DesignParams params;
  params.n = n;
  params.seed = 424242;
  params.gamma = n / 3;
  params.p = 0.4;
  switch (kind) {
    case 0:
      return make_design(DesignKind::RandomRegular, params);
    case 1:
      return make_design(DesignKind::Distinct, params);
    default:
      return make_design(DesignKind::Bernoulli, params);
  }
}

TEST(KernelDecodes, MnDecodeIdenticalAcrossVariantsAndDesigns) {
  ThreadPool pool(2);
  const std::uint32_t n = 300, k = 9, m = 220;
  const Signal truth = Signal::random(n, k, 5);
  for (int design_kind = 0; design_kind < 3; ++design_kind) {
    auto instance =
        make_streamed_instance(make_test_design(design_kind, n), m, truth, pool);
    for (MnScore score : {MnScore::CentralizedPsi, MnScore::RawPsi,
                          MnScore::NormalizedPsi, MnScore::MultiEdgePsi}) {
      MnOptions options;
      options.score = score;
      const MnDecoder decoder(options);
      const DecodeContext context(k, pool);
      std::vector<std::uint32_t> reference;
      EntryStats reference_stats;
      EntryStats reference_every;
      for (KernelIsa isa : available_kernel_isas()) {
        const KernelGuard guard(*kernels_for(isa));
        const DecodeOutcome outcome = decoder.decode(*instance, context);
        EntryStats stats = instance->entry_stats(pool);
        EntryStats every = instance->entry_stats(pool, CountMode::EveryDraw);
        if (isa == KernelIsa::Scalar) {
          reference.assign(outcome.estimate.support().begin(),
                           outcome.estimate.support().end());
          reference_stats = std::move(stats);
          reference_every = std::move(every);
        } else {
          const std::vector<std::uint32_t> support(
              outcome.estimate.support().begin(),
              outcome.estimate.support().end());
          EXPECT_EQ(reference, support)
              << kernel_isa_name(isa) << " design " << design_kind;
          EXPECT_EQ(reference_stats.psi, stats.psi) << kernel_isa_name(isa);
          EXPECT_EQ(reference_every.psi_multi, every.psi_multi);
          EXPECT_EQ(reference_every.delta, every.delta);
          EXPECT_EQ(reference_stats.delta_star, stats.delta_star);
        }
      }
    }
  }
}

TEST(KernelDecodes, OneBitDecodersIdenticalAcrossVariants) {
  ThreadPool pool(2);
  const std::uint32_t n = 400, k = 8;
  const Signal truth = Signal::random(n, k, 9);
  auto design = std::make_shared<RandomRegularDesign>(n, 77, optimal_gt_gamma(n, k));
  const std::uint32_t m = 260;
  const auto binary =
      make_streamed_instance(design, m, truth, pool, ChannelKind::Binary);
  auto tdesign =
      std::make_shared<RandomRegularDesign>(n, 78, threshold_gt_gamma(n, k, 2));
  const auto threshold = make_streamed_instance(tdesign, m, truth, pool,
                                                ChannelKind::Threshold, 2);

  std::vector<std::uint32_t> comp_ref, dd_ref, thr_ref;
  for (KernelIsa isa : available_kernel_isas()) {
    const KernelGuard guard(*kernels_for(isa));
    const auto comp = decode_comp(*binary, &pool);
    const auto dd = decode_dd(*binary, &pool);
    const auto thr = decode_threshold_mn(*threshold, k, pool);
    const std::vector<std::uint32_t> comp_s(comp.estimate.support().begin(),
                                            comp.estimate.support().end());
    const std::vector<std::uint32_t> dd_s(dd.estimate.support().begin(),
                                          dd.estimate.support().end());
    const std::vector<std::uint32_t> thr_s(thr.estimate.support().begin(),
                                           thr.estimate.support().end());
    if (isa == KernelIsa::Scalar) {
      comp_ref = comp_s;
      dd_ref = dd_s;
      thr_ref = thr_s;
    } else {
      EXPECT_EQ(comp_ref, comp_s) << kernel_isa_name(isa);
      EXPECT_EQ(dd_ref, dd_s) << kernel_isa_name(isa);
      EXPECT_EQ(thr_ref, thr_s) << kernel_isa_name(isa);
    }
  }
}

TEST(KernelDecodes, PackedGtDecodeMatchesHandRolledReference) {
  // The bit-packed COMP/DD against a reference computed from regenerated
  // members. (The member-scan fallback itself runs in the ctest rerun of
  // the GT suites with POOLED_PACK_BUDGET_MB=0.)
  ThreadPool pool(2);
  const std::uint32_t n = 350, k = 7, m = 240;
  const Signal truth = Signal::random(n, k, 3);
  auto design = std::make_shared<RandomRegularDesign>(n, 55, optimal_gt_gamma(n, k));
  const auto instance =
      make_streamed_instance(design, m, truth, pool, ChannelKind::Binary);

  // Reference COMP/DD computed directly from regenerated members.
  std::vector<std::uint8_t> zero(n, 0);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < m; ++q) {
    if (instance->results()[q] != 0) continue;
    instance->query_members(q, members);
    for (std::uint32_t e : members) zero[e] = 1;
  }
  std::vector<std::uint32_t> comp_want;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!zero[i]) comp_want.push_back(i);
  }
  std::vector<std::uint8_t> definite(n, 0);
  for (std::uint32_t q = 0; q < m; ++q) {
    if (instance->results()[q] == 0) continue;
    instance->query_members(q, members);
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t e : members) {
      if (!zero[e]) candidates.push_back(e);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    if (candidates.size() == 1) definite[candidates[0]] = 1;
  }
  std::vector<std::uint32_t> dd_want;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (definite[i]) dd_want.push_back(i);
  }

  ASSERT_NE(instance->packed_pools(&pool), nullptr) << "test instance should pack";
  const auto comp = decode_comp(*instance, &pool);
  const auto dd = decode_dd(*instance, &pool);
  EXPECT_EQ(comp_want, std::vector<std::uint32_t>(comp.estimate.support().begin(),
                                                  comp.estimate.support().end()));
  EXPECT_EQ(dd_want, std::vector<std::uint32_t>(dd.estimate.support().begin(),
                                                dd.estimate.support().end()));
  const auto zeros = static_cast<std::uint32_t>(
      std::count(zero.begin(), zero.end(), std::uint8_t{1}));
  EXPECT_EQ(zeros, comp.definite_zeros);
  EXPECT_EQ(zeros, dd.definite_zeros);
  EXPECT_EQ(comp_want.size(), comp.declared_ones);
  EXPECT_EQ(dd_want.size(), dd.declared_ones);
}

TEST(KernelDecodes, IncrementalMnIdenticalAcrossVariants) {
  const std::uint32_t n = 200, k = 6, m = 150;
  std::vector<std::uint32_t> ref_history;
  std::vector<std::uint32_t> ref_support;
  for (KernelIsa isa : available_kernel_isas()) {
    const KernelGuard guard(*kernels_for(isa));
    auto design = std::make_shared<RandomRegularDesign>(n, 99);
    const Signal truth = Signal::random(n, k, 13);
    ThreadPool pool(1);
    IncrementalMn inc(design);
    std::vector<std::uint32_t> history;
    for (std::uint32_t q = 0; q < m; ++q) {
      inc.add_simulated_query(truth);
      if (inc.matches_truth(truth, pool)) history.push_back(q);
    }
    const Signal estimate = inc.decode(k, pool);
    const std::vector<std::uint32_t> support(estimate.support().begin(),
                                             estimate.support().end());
    if (isa == KernelIsa::Scalar) {
      ref_history = history;
      ref_support = support;
    } else {
      EXPECT_EQ(ref_history, history) << kernel_isa_name(isa);
      EXPECT_EQ(ref_support, support) << kernel_isa_name(isa);
    }
  }
}

TEST(KernelArena, LanePartialsZeroedPerPassAndMergedExactly) {
  // Two back-to-back entry-statistics passes over different instances on
  // the same thread must not leak partial sums between passes.
  ThreadPool pool(4);
  const std::uint32_t n = 257, k = 5, m = 90;
  auto design_a = std::make_shared<RandomRegularDesign>(n, 1);
  auto design_b = std::make_shared<RandomRegularDesign>(n, 2);
  const Signal truth = Signal::random(n, k, 21);
  const auto a = make_streamed_instance(design_a, m, truth, pool);
  const auto b = make_streamed_instance(design_b, m, truth, pool);
  const EntryStats a1 = a->entry_stats(pool);
  const EntryStats a1_every = a->entry_stats(pool, CountMode::EveryDraw);
  const EntryStats b1 = b->entry_stats(pool);
  const EntryStats b1_every = b->entry_stats(pool, CountMode::EveryDraw);
  const EntryStats a2 = a->entry_stats(pool);
  const EntryStats a2_every = a->entry_stats(pool, CountMode::EveryDraw);
  EXPECT_EQ(a1.psi, a2.psi);
  EXPECT_EQ(a1_every.psi_multi, a2_every.psi_multi);
  EXPECT_EQ(a1_every.delta, a2_every.delta);
  EXPECT_EQ(a1.delta_star, a2.delta_star);
  EXPECT_NE(a1.psi, b1.psi);  // different designs genuinely differ
}

TEST(KernelArena, LaneCapFitsTheBudget) {
  // 1000 entries fill 32000-byte lane blocks exactly; 1001 round up to
  // the next 64-byte multiple, 32064.
  for (const auto& [entries, stride] :
       {std::pair<std::size_t, std::size_t>{1000, 32000}, {1001, 32064}}) {
    for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
      EXPECT_EQ(lanes_within_budget(0, lanes, entries), 1u);
      EXPECT_EQ(lanes_within_budget(stride - 1, lanes, entries), 1u);
      for (unsigned j = 1; j <= lanes; ++j) {
        EXPECT_EQ(lanes_within_budget(j * stride, lanes, entries), j);
        EXPECT_EQ(lanes_within_budget(j * stride + stride - 1, lanes, entries), j);
      }
      for (const std::size_t budget :
           {lanes * stride, (lanes + 1) * stride, 1000 * lanes * stride,
            std::numeric_limits<std::size_t>::max()}) {
        EXPECT_EQ(lanes_within_budget(budget, lanes, entries), lanes);
      }
    }
  }
}

}  // namespace
