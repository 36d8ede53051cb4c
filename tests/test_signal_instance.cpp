// Unit tests: Signal model and the streamed instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/instance.hpp"
#include "core/mn.hpp"
#include "core/noise.hpp"
#include "core/signal.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "engine/adaptive_adapter.hpp"
#include "linalg/csr_matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "reference.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

TEST(Signal, AllZeroConstruction) {
  Signal s(10);
  EXPECT_EQ(s.n(), 10u);
  EXPECT_EQ(s.k(), 0u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_FALSE(s.is_one(i));
}

TEST(Signal, SupportConstructionSortsAndMarks) {
  Signal s(8, {5, 1, 3});
  EXPECT_EQ(s.k(), 3u);
  const auto support = s.support();
  EXPECT_EQ(support[0], 1u);
  EXPECT_EQ(support[1], 3u);
  EXPECT_EQ(support[2], 5u);
  EXPECT_TRUE(s.is_one(1));
  EXPECT_FALSE(s.is_one(0));
  EXPECT_EQ(s.value(3), 1u);
  EXPECT_EQ(s.value(4), 0u);
}

TEST(Signal, RejectsBadSupport) {
  EXPECT_THROW(Signal(5, {5}), ContractError);       // out of range
  EXPECT_THROW(Signal(5, {2, 2}), ContractError);    // duplicate
  EXPECT_THROW(Signal(0), ContractError);            // empty signal
}

TEST(Signal, RandomHasExactWeightAndIsReproducible) {
  const Signal a = Signal::random(1000, 31, 77);
  EXPECT_EQ(a.n(), 1000u);
  EXPECT_EQ(a.k(), 31u);
  const Signal b = Signal::random(1000, 31, 77);
  EXPECT_EQ(a, b);
  const Signal c = Signal::random(1000, 31, 78);
  EXPECT_NE(a, c);
}

TEST(Signal, RandomIsUniformOverPositions) {
  const std::uint32_t n = 30, k = 6;
  std::vector<int> counts(n, 0);
  const int draws = 30000;
  for (int t = 0; t < draws; ++t) {
    const Signal s = Signal::random(n, k, 1000 + t);
    for (auto i : s.support()) ++counts[i];
  }
  const double expected = draws * static_cast<double>(k) / n;
  for (int c : counts) EXPECT_NEAR(c, expected, 6.0 * std::sqrt(expected));
}

TEST(Signal, OverlapAndHamming) {
  const Signal a(10, {1, 2, 3});
  const Signal b(10, {2, 3, 4});
  EXPECT_EQ(a.overlap(b), 2u);
  EXPECT_EQ(b.overlap(a), 2u);
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.overlap(a), 3u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
  const Signal c(10, {7});
  EXPECT_EQ(a.overlap(c), 0u);
  EXPECT_EQ(a.hamming_distance(c), 4u);
}

TEST(Signal, OverlapRejectsLengthMismatch) {
  const Signal a(10, {1});
  const Signal b(11, {1});
  EXPECT_THROW(a.overlap(b), ContractError);
}

std::unique_ptr<StreamedInstance> build(std::uint32_t n, std::uint32_t m,
                                        const Signal& truth, ThreadPool& pool) {
  return make_streamed_instance(std::make_shared<RandomRegularDesign>(n, 4242), m,
                                truth, pool);
}

TEST(InstanceBackends, ShapeAndResultsRange) {
  ThreadPool pool(2);
  const std::uint32_t n = 200, m = 40;
  const Signal truth = Signal::random(n, 10, 5);
  const auto instance = build(n, m, truth, pool);
  EXPECT_EQ(instance->n(), n);
  EXPECT_EQ(instance->m(), m);
  ASSERT_EQ(instance->results().size(), m);
  // Each result is at most the total one-mass a pool can see.
  for (auto y : instance->results()) EXPECT_LE(y, n);
}

TEST(InstanceBackends, ResultsMatchManualRecount) {
  ThreadPool pool(2);
  const std::uint32_t n = 150, m = 25;
  const Signal truth = Signal::random(n, 12, 6);
  const auto instance = build(n, m, truth, pool);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < m; ++q) {
    instance->query_members(q, members);
    std::uint32_t expected = 0;
    for (auto i : members) expected += truth.value(i);
    EXPECT_EQ(instance->results()[q], expected) << "query " << q;
  }
}

TEST(InstanceBackends, TruthIsAlwaysConsistent) {
  ThreadPool pool(2);
  const Signal truth = Signal::random(100, 7, 9);
  const auto instance = build(100, 30, truth, pool);
  EXPECT_TRUE(instance->is_consistent(truth));
}

TEST(InstanceBackends, WrongCandidateIsInconsistentAtThisScale) {
  ThreadPool pool(2);
  const Signal truth = Signal::random(100, 7, 9);
  const auto instance = build(100, 30, truth, pool);
  // Shift the support by one position: results almost surely change.
  std::vector<std::uint32_t> support(truth.support().begin(),
                                     truth.support().end());
  support[0] = (support[0] + 1) % 100;
  while (std::count(support.begin(), support.end(), support[0]) > 1) {
    support[0] = (support[0] + 1) % 100;
  }
  EXPECT_FALSE(instance->is_consistent(Signal(100, support)));
}

TEST(InstanceBackends, ResultsForTruthEqualsResults) {
  ThreadPool pool(2);
  const Signal truth = Signal::random(120, 9, 10);
  const auto instance = build(120, 20, truth, pool);
  EXPECT_EQ(simulate_queries(instance->design(), instance->m(), truth, pool,
                             instance->channel(), instance->channel_threshold()),
            instance->results());
}

TEST(InstanceBackends, EntryStatsInvariants) {
  ThreadPool pool(2);
  const std::uint32_t n = 300, m = 50;
  const Signal truth = Signal::random(n, 15, 11);
  const auto instance = build(n, m, truth, pool);
  const EntryStats stats = instance->entry_stats(pool);
  const EntryStats every = instance->entry_stats(pool, CountMode::EveryDraw);
  ASSERT_EQ(stats.psi.size(), n);
  std::uint64_t total_delta = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_LE(stats.delta_star[i], m);
    EXPECT_GE(every.delta[i], stats.delta_star[i]);  // multiplicity >= distinct
    EXPECT_GE(every.psi_multi[i], stats.psi[i]);
    total_delta += every.delta[i];
  }
  // Total edge mass = m * Γ = m * n/2.
  EXPECT_EQ(total_delta, static_cast<std::uint64_t>(m) * (n / 2));
  // And every statistic is the naive per-query loop's.
  const EntryStats reference = naive_entry_stats(*instance);
  EXPECT_EQ(stats.psi, reference.psi);
  EXPECT_EQ(stats.delta_star, reference.delta_star);
  EXPECT_EQ(every.psi_multi, reference.psi_multi);
  EXPECT_EQ(every.delta, reference.delta);
}

TEST(InstanceBackends, TotalResultMatchesSum) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(80, 5, 13);
  const auto instance = build(80, 15, truth, pool);
  std::uint64_t total = 0;
  for (auto y : instance->results()) total += y;
  EXPECT_EQ(instance->total_result(), total);
}

TEST(InstanceEquivalence, BackendsProduceIdenticalObservables) {
  // The streamed pass against the naive per-query loop, on one lane and
  // many: the pass folds draws into per-lane records and merges them. At
  // n = 7 (Γ = 3) most draws repeat an entry of their own query, which is
  // what the first-occurrence mask decides.
  for (const unsigned width : {1u, 4u}) {
    for (const std::uint32_t n : {7u, 400u}) {
      ThreadPool pool(width);
      const std::uint32_t m = 60;
      const Signal truth = Signal::random(n, n < 40 ? 2 : 20, 3);
      auto design = std::make_shared<RandomRegularDesign>(n, 999);
      const auto streamed = make_streamed_instance(design, m, truth, pool);
      const EntryStats s1 = streamed->entry_stats(pool);
      const EntryStats e1 = streamed->entry_stats(pool, CountMode::EveryDraw);
      const EntryStats reference = naive_entry_stats(*streamed);
      EXPECT_EQ(s1.psi, reference.psi) << "width " << width << " n " << n;
      EXPECT_EQ(e1.psi_multi, reference.psi_multi) << "width " << width << " n " << n;
      EXPECT_EQ(e1.delta, reference.delta) << "width " << width << " n " << n;
      EXPECT_EQ(s1.delta_star, reference.delta_star) << "width " << width << " n " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// The fingerprint verdict. Each case checks a candidate on an instance
// whose entry-statistics pass recorded the fingerprint, against a fresh
// copy (same design, m, y) on which no pass ran, so its is_consistent is
// the exact pass.

/// The instance with no pass run on it.
StreamedInstance fresh_copy(const StreamedInstance& instance) {
  return StreamedInstance(instance.design_ptr(), instance.m(), instance.results(),
                          instance.channel(), instance.channel_threshold());
}

/// Tallies of the verdicts compared, so a sweep can show it met both.
struct Verdicts {
  std::uint64_t consistent = 0;
  std::uint64_t inconsistent = 0;

  void expect_equal(const StreamedInstance& fingerprinted,
                    const StreamedInstance& exact, const Signal& candidate) {
    expect(fingerprinted.is_consistent(candidate), exact.is_consistent(candidate));
  }

  void expect(bool fingerprinted, bool exact) {
    EXPECT_EQ(fingerprinted, exact);
    ++(exact ? consistent : inconsistent);
  }
};

/// Every weight-k subset of [0, n), in lexicographic order.
std::vector<std::vector<std::uint32_t>> all_supports(std::uint32_t n,
                                                     std::uint32_t k) {
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<std::uint32_t> support(k);
  for (std::uint32_t i = 0; i < k; ++i) support[i] = i;
  while (true) {
    out.push_back(support);
    std::uint32_t i = k;
    while (i > 0 && support[i - 1] == n - k + i - 1) --i;
    if (i == 0) return out;
    ++support[i - 1];
    for (std::uint32_t j = i; j < k; ++j) support[j] = support[j - 1] + 1;
  }
}

/// The truth with one support entry swapped, one added, one dropped, and
/// the empty signal.
std::vector<Signal> corrupted_truths(const Signal& truth) {
  const std::uint32_t n = truth.n();
  std::uint32_t outside = 0;
  while (truth.is_one(outside)) ++outside;
  const std::vector<std::uint32_t> support(truth.support().begin(),
                                           truth.support().end());
  std::vector<std::uint32_t> swapped = support, added = support,
                             dropped = support;
  swapped[0] = outside;
  added.push_back(outside);
  dropped.pop_back();
  return {Signal(n, swapped), Signal(n, added), Signal(n, dropped), Signal(n)};
}

/// The partial fingerprints an adaptive MN decode produces, on the
/// candidates: an IncrementalMn folds the instance's results, and after c
/// folds
///  (a) its O(k) verdict must equal the exact pass over the c-query
///      prefix (c in {1, m/2, m}), and
///  (b) a fresh copy carrying its fingerprint -- prefix [0, c) in O(k),
///      the exact pass over [c, m) -- must equal the exact pass over all
///      m queries (c in {0, 1, m/2, m-1, m}).
void expect_partial_fingerprints(const StreamedInstance& instance,
                                 const StreamedInstance& exact,
                                 const MnOptions& options,
                                 const std::vector<Signal>& candidates,
                                 Verdicts& verdicts) {
  const std::uint32_t m = instance.m();
  const auto& y = instance.results();
  std::vector<std::uint32_t> folds = {0, 1, m / 2, m - 1, m};
  std::sort(folds.begin(), folds.end());
  folds.erase(std::unique(folds.begin(), folds.end()), folds.end());
  std::vector<bool> want;
  for (const Signal& candidate : candidates) want.push_back(exact.is_consistent(candidate));
  IncrementalMn incremental(instance.design_ptr(), options);
  for (const std::uint32_t c : folds) {
    SCOPED_TRACE("prefix of " + std::to_string(c) + " of " + std::to_string(m));
    while (incremental.m() < c) incremental.add_query(y[incremental.m()]);
    if (c == 1 || c == m / 2 || c == m) {
      const StreamedInstance prefix(instance.design_ptr(), c,
                                    std::vector<std::uint32_t>(y.begin(), y.begin() + c),
                                    instance.channel(), instance.channel_threshold());
      for (const Signal& candidate : candidates) {
        verdicts.expect(incremental.is_consistent(candidate),
                        prefix.is_consistent(candidate));
      }
    }
    const StreamedInstance carrier = fresh_copy(instance);
    carrier.publish_fingerprint(incremental.fingerprint());
    ASSERT_EQ(carrier.fingerprint()->queries, c);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      verdicts.expect(carrier.is_consistent(candidates[i]), want[i]);
    }
  }
}

TEST(Consistency, FingerprintMatchesExactCheck) {
  Verdicts verdicts;
  // Every weight-k support of tiny instances. Few queries leave many
  // candidates consistent; the random-regular design draws with
  // replacement, so multi-edges (A_qi > 1) are common at this size.
  {
    ThreadPool pool(2);
    for (const std::uint32_t n : {6u, 10u, 14u}) {
      for (const std::uint32_t k : {1u, 2u, 3u}) {
        for (const std::uint32_t m : {2u, 3u, 5u, 20u}) {
          const Signal truth = Signal::random(n, k, 100 * n + 10 * k + m);
          const auto instance = make_streamed_instance(
              std::make_shared<RandomRegularDesign>(n, n + k + m), m, truth, pool);
          EntryStats stats;
          instance->entry_stats_into(pool, stats);
          ASSERT_NE(instance->fingerprint(), nullptr);
          const StreamedInstance exact = fresh_copy(*instance);
          for (const auto& support : all_supports(n, k)) {
            verdicts.expect_equal(*instance, exact, Signal(n, support));
          }
        }
      }
    }
  }
  // Seeded MN decodes around the MN threshold: every score, with and
  // without noise, on one lane and on four. The decode's own pass records
  // the fingerprint of the (noisy) observations it decoded.
  for (const unsigned width : {1u, 4u}) {
    ThreadPool pool(width);
    for (const std::uint32_t n : {60u, 400u, 2000u}) {
      const std::uint32_t k = n / 40 + 2;
      const double m_mn = thresholds::m_mn(n, k);
      for (const double factor : {0.5, 1.0, 2.0}) {
        const auto m = static_cast<std::uint32_t>(factor * m_mn);
        const Signal truth = Signal::random(n, k, n + m);
        const std::shared_ptr<const StreamedInstance> clean = make_streamed_instance(
            std::make_shared<RandomRegularDesign>(n, n * m), m, truth, pool);
        for (const NoiseModel& noise :
             {NoiseModel{}, NoiseModel::symmetric(0.2, 7), NoiseModel::gaussian(1.0, 9)}) {
          for (const MnScore score : {MnScore::CentralizedPsi, MnScore::RawPsi,
                                      MnScore::NormalizedPsi, MnScore::MultiEdgePsi}) {
            const auto noisy = with_noise(clean, noise);
            MnOptions options;
            options.score = score;
            const Signal estimate = MnDecoder(options).decode(*noisy, k, pool);
            ASSERT_NE(noisy->fingerprint(), nullptr);
            const StreamedInstance exact = fresh_copy(*noisy);
            std::vector<Signal> candidates = corrupted_truths(truth);
            candidates.push_back(estimate);
            candidates.push_back(truth);
            for (const Signal& candidate : candidates) {
              verdicts.expect_equal(*noisy, exact, candidate);
            }
            expect_partial_fingerprints(*noisy, exact, options, candidates, verdicts);
          }
        }
      }
    }
  }
  EXPECT_GT(verdicts.consistent, 100u);
  EXPECT_GT(verdicts.inconsistent, 100u);
  // The one-bit channels are not linear: a fingerprint of the pooled sums
  // would reject the truth of any query whose sum the channel collapses.
  {
    ThreadPool pool(2);
    const std::uint32_t n = 60, k = 10, m = 30;
    const Signal truth = Signal::random(n, k, 5);
    auto design = std::make_shared<RandomRegularDesign>(n, 6);
    const std::vector<std::uint32_t> sums = simulate_queries(*design, m, truth, pool);
    for (const auto& [channel, threshold] :
         {std::pair{ChannelKind::Binary, 1u}, std::pair{ChannelKind::Threshold, 2u}}) {
      std::vector<std::uint32_t> y(m);
      std::uint32_t collapsed = 0;
      for (std::uint32_t q = 0; q < m; ++q) {
        y[q] = apply_channel(sums[q], channel, threshold);
        collapsed += y[q] != sums[q] ? 1 : 0;
      }
      ASSERT_GT(collapsed, 0u);  // sums a fingerprint would see as mismatches
      const StreamedInstance instance(design, m, y, channel, threshold);
      for (const CountMode mode : {CountMode::Distinct, CountMode::EveryDraw}) {
        EntryStats stats;
        instance.entry_stats_into(pool, stats, mode);
        EXPECT_TRUE(instance.is_consistent(truth));
      }
      // Nor does an adaptive MN decode publish its fold's fingerprint
      // there, in either count mode: the verdict stays the exact pass.
      for (const MnScore score : {MnScore::CentralizedPsi, MnScore::MultiEdgePsi}) {
        const StreamedInstance served = fresh_copy(instance);
        MnOptions options;
        options.score = score;
        const DecodeOutcome outcome =
            AdaptiveDecoder(std::make_shared<MnDecoder>(options), AdaptiveOptions{4})
                .decode(served, DecodeContext(k, pool));
        EXPECT_EQ(served.fingerprint(), nullptr);
        EXPECT_TRUE(served.is_consistent(truth));
        EXPECT_EQ(served.is_consistent(outcome.estimate),
                  fresh_copy(instance).is_consistent(outcome.estimate));
      }
    }
  }
}

TEST(Instance, MatrixRowsHoldEveryDraw) {
  ThreadPool pool(1);
  const std::uint32_t n = 100, m = 12;
  const Signal truth = Signal::random(n, 6, 21);
  auto design = std::make_shared<RandomRegularDesign>(n, 31);
  const auto streamed = make_streamed_instance(design, m, truth, pool);
  const CsrMatrix a = CsrMatrix::from_instance(*streamed);
  EXPECT_EQ(a.cols(), n);
  EXPECT_EQ(a.rows(), m);
  // Pool sizes (draws, multiplicities included) must equal Γ.
  for (std::uint32_t q = 0; q < m; ++q) {
    double draws = 0;
    for (double times : a.row_values(q)) draws += times;
    EXPECT_EQ(draws, n / 2);
  }
}

TEST(Instance, RejectsMismatchedResultLength) {
  EXPECT_THROW(StreamedInstance(std::make_shared<RandomRegularDesign>(4, 1), 2, {1}),
               ContractError);
}

}  // namespace
}  // namespace pooled
