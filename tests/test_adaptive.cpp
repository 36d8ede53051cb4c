// Tests for the partially-parallel (L-batch) extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/batched.hpp"
#include "core/incremental.hpp"
#include "core/instance.hpp"
#include "core/mn.hpp"
#include "core/noise.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "engine/adaptive_adapter.hpp"
#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/registry.hpp"
#include "kernels/decode_arena.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

TEST(Batched, StopsAndSucceedsWithReasonableBudget) {
  ThreadPool pool(2);
  const std::uint32_t n = 300, k = 5;
  auto design = std::make_shared<RandomRegularDesign>(n, 7);
  const Signal truth = Signal::random(n, k, 11);
  BatchedConfig config;
  config.batch_size = 32;
  config.max_rounds = 200;
  config.min_queries = 2 * k;
  const BatchedOutcome outcome = run_batched(design, truth, config, pool);
  EXPECT_TRUE(outcome.stopped);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.total_queries, outcome.rounds * config.batch_size);
  // Should stop within a small multiple of the MN threshold.
  EXPECT_LT(outcome.total_queries,
            5.0 * thresholds::m_mn_finite(n, k) + 4 * config.batch_size);
}

TEST(Batched, TotalQueriesIsRoundsTimesBatch) {
  ThreadPool pool(1);
  const std::uint32_t n = 200, k = 4;
  auto design = std::make_shared<RandomRegularDesign>(n, 13);
  const Signal truth = Signal::random(n, k, 17);
  for (std::uint32_t batch : {1u, 8u, 64u}) {
    BatchedConfig config;
    config.batch_size = batch;
    config.max_rounds = 3000 / batch + 5;
    config.min_queries = k;
    const BatchedOutcome outcome = run_batched(design, truth, config, pool);
    EXPECT_EQ(outcome.total_queries, outcome.rounds * batch);
  }
}

TEST(Batched, SmallerBatchesNeverUseMoreQueriesOnAverage) {
  // Finer batches can stop closer to the true requirement; aggregate over
  // trials to smooth noise.
  ThreadPool pool(2);
  const std::uint32_t n = 250, k = 4;
  double total_small = 0.0, total_large = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    auto design = std::make_shared<RandomRegularDesign>(n, 100 + trial);
    const Signal truth = Signal::random(n, k, 200 + trial);
    BatchedConfig small;
    small.batch_size = 4;
    small.max_rounds = 2000;
    small.min_queries = k;
    BatchedConfig large = small;
    large.batch_size = 128;
    large.max_rounds = 100;
    total_small += run_batched(design, truth, small, pool).total_queries;
    total_large += run_batched(design, truth, large, pool).total_queries;
  }
  EXPECT_LE(total_small, total_large + 1e-9);
}

TEST(Batched, MaxRoundsBoundsWork) {
  ThreadPool pool(1);
  const std::uint32_t n = 400, k = 8;
  auto design = std::make_shared<RandomRegularDesign>(n, 19);
  const Signal truth = Signal::random(n, k, 23);
  BatchedConfig config;
  config.batch_size = 1;
  config.max_rounds = 3;  // far too few queries to stop
  config.min_queries = 100;
  const BatchedOutcome outcome = run_batched(design, truth, config, pool);
  EXPECT_FALSE(outcome.stopped);
  EXPECT_EQ(outcome.rounds, 3u);
  EXPECT_EQ(outcome.total_queries, 3u);
}

TEST(Batched, RejectsZeroBatch) {
  ThreadPool pool(1);
  auto design = std::make_shared<RandomRegularDesign>(50, 1);
  const Signal truth = Signal::random(50, 3, 2);
  BatchedConfig config;
  config.batch_size = 0;
  EXPECT_THROW(run_batched(design, truth, config, pool), ContractError);
}

TEST(Batched, StoppingRuleIsObservableOnly) {
  // A stopped run's estimate must be consistent with its own data by
  // construction -- re-verify through an independent replay.
  ThreadPool pool(1);
  const std::uint32_t n = 150, k = 3;
  auto design = std::make_shared<RandomRegularDesign>(n, 29);
  const Signal truth = Signal::random(n, k, 31);
  BatchedConfig config;
  config.batch_size = 16;
  config.max_rounds = 500;
  config.min_queries = k;
  const BatchedOutcome outcome = run_batched(design, truth, config, pool);
  ASSERT_TRUE(outcome.stopped);
  // Replay: with the same design and the stop point m, the MN estimate at
  // m queries must explain the data.
  const auto instance = make_streamed_instance(design, outcome.total_queries,
                                               truth, pool);
  // The run succeeded, so the consistent signal is the truth itself.
  EXPECT_TRUE(instance->is_consistent(truth));
}

TEST(Batched, FingerprintStopMatchesTheExactCheck) {
  // run_batched's stopping rule checks the accumulator's fingerprint; a
  // replay that checks the same estimates by the exact pass on a fresh
  // instance must stop at the same round, with the same verdicts.
  ThreadPool pool(1);
  const std::uint32_t n = 200, k = 4;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto design = std::make_shared<RandomRegularDesign>(n, 40 + seed);
    const Signal truth = Signal::random(n, k, 50 + seed);
    for (const std::uint32_t batch : {4u, 16u}) {
      BatchedConfig config;
      config.batch_size = batch;
      config.max_rounds = 60;
      const BatchedOutcome outcome = run_batched(design, truth, config, pool);
      IncrementalMn mn(design);
      BatchedOutcome replay;
      Signal previous(n);
      for (std::uint32_t round = 0; round < config.max_rounds && !replay.stopped;
           ++round) {
        for (std::uint32_t q = 0; q < batch; ++q) mn.add_simulated_query(truth);
        ++replay.rounds;
        replay.total_queries = mn.m();
        const Signal estimate = mn.decode(k, pool);
        const bool stable = estimate == previous;
        previous = estimate;
        if (!stable) continue;
        const auto exact = make_streamed_instance(design, mn.m(), truth, pool);
        EXPECT_EQ(mn.is_consistent(estimate), exact->is_consistent(estimate));
        replay.stopped = exact->is_consistent(estimate);
      }
      EXPECT_EQ(outcome.stopped, replay.stopped) << "seed " << seed << " L " << batch;
      EXPECT_EQ(outcome.rounds, replay.rounds) << "seed " << seed << " L " << batch;
      EXPECT_EQ(outcome.total_queries, replay.total_queries);
    }
  }
}

TEST(AdaptiveAdapter, RegistrySpecMatchesTheSimulationStudy) {
  // The serving-side adapter (adaptive:<inner>[:L=...]) replays an
  // archived instance's queries round by round with the same observable
  // stopping rule the simulation study uses: on a comfortable budget it
  // must converge early and recover the truth.
  ThreadPool pool(2);
  const std::uint32_t n = 300, k = 5, m = 400;
  auto design = std::make_shared<RandomRegularDesign>(n, 7);
  const Signal truth = Signal::random(n, k, 11);
  const auto instance = make_streamed_instance(design, m, truth, pool);

  const auto adaptive = make_decoder("adaptive:mn:L=32");
  EXPECT_EQ(adaptive->name(), "adaptive-mn-L32");
  const DecodeOutcome outcome = adaptive->decode(*instance, DecodeContext(k, pool));
  EXPECT_EQ(outcome.stop, StopReason::Converged);
  EXPECT_EQ(outcome.estimate, truth);
  EXPECT_LT(outcome.queries, m);  // early stopping saved queries
  EXPECT_EQ(outcome.queries, std::min<std::uint64_t>(
                                 m, std::uint64_t{32} * outcome.rounds));
  EXPECT_TRUE(instance->is_consistent(outcome.estimate));

  // Smaller batches stop at least as early in queries (same instance,
  // same rule, finer stopping grid) -- the paper's latency trade-off.
  const DecodeOutcome fine =
      make_decoder("adaptive:mn:L=8")->decode(*instance, DecodeContext(k, pool));
  EXPECT_EQ(fine.stop, StopReason::Converged);
  EXPECT_LE(fine.queries, outcome.queries);
  EXPECT_GE(fine.rounds, outcome.rounds);
}

// ---- incremental MN vs prefix replay ----------------------------------
//
// The reference is the adapter's round loop with every round re-decoding
// the whole prefix through the one-shot inner: the path non-MN inners
// still take, and the one MN inners took before they folded only each
// round's new queries. Outcomes must agree bit for bit.

DecodeOutcome replay_reference(const StreamedInstance& instance,
                               const Decoder& inner, std::uint32_t batch,
                               const DecodeContext& context) {
  const auto& y = instance.results();
  const auto available = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      instance.m(),
      context.query_budget > 0 ? context.query_budget : instance.m()));
  DecodeOutcome outcome;
  outcome.estimate = Signal(instance.n());
  outcome.stop = StopReason::Exhausted;
  std::uint32_t consumed = 0;
  std::uint32_t round = 0;
  bool have_estimate = false;
  while (true) {
    if (context.max_rounds > 0 && round >= context.max_rounds) {
      outcome.stop = StopReason::RoundLimit;
      break;
    }
    consumed = std::min(available, consumed + batch);
    ++round;
    const auto prefix = [&] {
      return StreamedInstance(
          instance.design_ptr(), consumed,
          std::vector<std::uint32_t>(y.begin(), y.begin() + consumed),
          instance.channel(), instance.channel_threshold());
    };
    DecodeOutcome step =
        inner.decode(prefix(), DecodeContext(context.k, context.thread_pool()));
    outcome.score_evals += step.score_evals;
    const bool stable = have_estimate && step.estimate == outcome.estimate;
    outcome.estimate = std::move(step.estimate);
    have_estimate = true;
    const bool exhausted = consumed >= available;
    if (stable || exhausted) {
      // A prefix no decode ran on carries no fingerprint, so this is the
      // exact pass the served stopping rule must agree with.
      if (prefix().is_consistent(outcome.estimate)) {
        outcome.stop = StopReason::Converged;
        break;
      }
      if (exhausted) break;
    }
  }
  outcome.rounds = round;
  outcome.queries = consumed;
  return outcome;
}

/// A channel-observed instance of `truth`, optionally with symmetric
/// noise on its results.
std::shared_ptr<const StreamedInstance> channel_instance(
    std::uint32_t n, std::uint32_t m, const Signal& truth, ChannelKind channel,
    std::uint32_t threshold, bool noisy, ThreadPool& pool) {
  auto design = std::make_shared<RandomRegularDesign>(n, 1000 + n);
  std::vector<std::uint32_t> y = simulate_queries(*design, m, truth, pool);
  for (std::uint32_t& value : y) value = apply_channel(value, channel, threshold);
  std::shared_ptr<const StreamedInstance> instance = std::make_shared<StreamedInstance>(
      std::move(design), m, std::move(y), channel, threshold);
  if (noisy) instance = with_noise(instance, NoiseModel::symmetric(0.05, 7 + n));
  return instance;
}

std::string describe(const DecodeOutcome& outcome) {
  std::ostringstream os;
  os << "support";
  for (std::uint32_t i : outcome.estimate.support()) os << ' ' << i;
  os << " rounds " << outcome.rounds << " queries " << outcome.queries
     << " stop " << stop_reason_name(outcome.stop) << " score_evals "
     << outcome.score_evals;
  return os.str();
}

TEST(AdaptiveAdapter, IncrementalMatchesPrefixReplay) {
  struct Shape {
    std::uint32_t n, k, m;
  };
  struct Channel {
    ChannelKind kind;
    std::uint32_t threshold;
  };
  const Shape shapes[] = {{7, 2, 12}, {60, 3, 50}, {400, 5, 150}};
  const Channel channels[] = {{ChannelKind::Quantitative, 1},
                              {ChannelKind::Binary, 1},
                              {ChannelKind::Threshold, 2}};
  std::vector<MnOptions> inners;
  for (MnScore score : {MnScore::CentralizedPsi, MnScore::RawPsi,
                        MnScore::NormalizedPsi, MnScore::MultiEdgePsi}) {
    inners.push_back(MnOptions{score, /*full_sort=*/false});
  }
  inners.push_back(MnOptions{MnScore::CentralizedPsi, /*full_sort=*/true});
  std::size_t cases = 0;
  std::size_t converged = 0;
  for (unsigned width : {1u, 4u}) {
    ThreadPool pool(width);
    for (const Shape& shape : shapes) {
      const Signal truth = Signal::random(shape.n, shape.k, 31 + shape.n);
      for (const Channel& channel : channels) {
        for (bool noisy : {false, true}) {
          const auto instance = channel_instance(
              shape.n, shape.m, truth, channel.kind, channel.threshold, noisy,
              pool);
          for (const MnOptions& options : inners) {
            const auto inner = std::make_shared<MnDecoder>(options);
            for (std::uint32_t batch : {1u, 3u, 16u}) {
              const AdaptiveDecoder adaptive(inner, AdaptiveOptions{batch});
              std::vector<DecodeContext> contexts(3, DecodeContext(shape.k, pool));
              contexts[1].max_rounds = 4;                  // rounds cap
              contexts[2].query_budget = shape.m / 2 + 1;  // budget cap
              for (const DecodeContext& context : contexts) {
                const DecodeOutcome want =
                    replay_reference(*instance, *inner, batch, context);
                const DecodeOutcome got = adaptive.decode(*instance, context);
                ASSERT_EQ(describe(got), describe(want))
                    << "width " << width << " n " << shape.n << " channel "
                    << static_cast<int>(channel.kind) << " noisy " << noisy
                    << " inner " << inner->name() << " full_sort "
                    << options.full_sort << " L " << batch << " rounds cap "
                    << context.max_rounds << " budget " << context.query_budget;
                ++cases;
                converged += got.stop == StopReason::Converged;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2u * 3 * 3 * 2 * 5 * 3 * 3);
  // The matrix exercises both the converged and the unconverged exits.
  EXPECT_GT(converged, 0u);
  EXPECT_LT(converged, cases);
}

TEST(AdaptiveAdapter, IncrementalRejectsKAboveNLikeTheReplay) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(7, 2, 3);
  const auto instance = channel_instance(7, 12, truth, ChannelKind::Quantitative,
                                         1, false, pool);
  const auto inner = std::make_shared<MnDecoder>();
  const DecodeContext context(8, pool);
  std::optional<std::string> want;
  std::optional<std::string> got;
  try {
    (void)replay_reference(*instance, *inner, 3, context);
  } catch (const ContractError& e) {
    want = e.what();
  }
  try {
    (void)AdaptiveDecoder(inner, AdaptiveOptions{3}).decode(*instance, context);
  } catch (const ContractError& e) {
    got = e.what();
  }
  ASSERT_TRUE(want.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, *want);
}

TEST(AdaptiveAdapter, NonMnInnerKeepsThePrefixReplay) {
  ThreadPool pool(2);
  const Signal truth = Signal::random(400, 5, 41);
  for (bool noisy : {false, true}) {
    const auto instance = channel_instance(400, 150, truth, ChannelKind::Binary,
                                           1, noisy, pool);
    const DecodeContext context(5, pool);
    const DecodeOutcome want =
        replay_reference(*instance, *make_decoder("gt:binary"), 4, context);
    const DecodeOutcome got =
        make_decoder("adaptive:gt:binary:L=4")->decode(*instance, context);
    EXPECT_EQ(describe(got), describe(want)) << "noisy " << noisy;
  }
}

TEST(AdaptiveAdapter, PublishesTheFoldedPrefixFingerprint) {
  ThreadPool pool(2);
  const std::uint32_t n = 400, k = 5, m = 300;
  const Signal truth = Signal::random(n, k, 61);
  const auto exact_verdict = [](const StreamedInstance& instance,
                                const Signal& candidate) {
    return StreamedInstance(instance.design_ptr(), instance.m(), instance.results(),
                            instance.channel(), instance.channel_threshold())
        .is_consistent(candidate);
  };
  // Quantitative MN decodes leave the fingerprint of exactly the queries
  // they folded: up to convergence, or a budget's prefix.
  for (const std::uint32_t budget : {0u, 40u}) {
    const auto instance = channel_instance(n, m, truth, ChannelKind::Quantitative,
                                           1, /*noisy=*/false, pool);
    DecodeContext context(k, pool);
    context.query_budget = budget;
    const DecodeOutcome outcome =
        make_decoder("adaptive:mn:L=16")->decode(*instance, context);
    const std::shared_ptr<const QueryFingerprint> print = instance->fingerprint();
    ASSERT_NE(print, nullptr);
    EXPECT_EQ(print->queries, outcome.queries);
    EXPECT_EQ(outcome.queries, budget == 0 ? 128u : budget);
    EXPECT_EQ(instance->is_consistent(outcome.estimate),
              exact_verdict(*instance, outcome.estimate));
    EXPECT_TRUE(instance->is_consistent(truth));
    // A later adaptive decode replaces the published prefix only with a
    // longer one. A one-shot pass supersedes it with the fingerprint of
    // all m queries, and the old print (which jobs may hold) stays
    // unchanged and readable.
    const DecodeOutcome fine =
        make_decoder("adaptive:mn:L=8")->decode(*instance, DecodeContext(k, pool));
    if (fine.queries > outcome.queries) {
      EXPECT_EQ(instance->fingerprint()->queries, fine.queries);
    } else {
      EXPECT_EQ(instance->fingerprint().get(), print.get());
    }
    (void)MnDecoder().decode(*instance, k, pool);
    ASSERT_NE(instance->fingerprint(), nullptr);
    EXPECT_EQ(instance->fingerprint()->queries, m);
    EXPECT_EQ(print->queries, outcome.queries);
    EXPECT_EQ(print->entries.size(), n);
    EXPECT_TRUE(instance->is_consistent(truth));
  }
  // A one-shot pass published first: the adaptive decode keeps it.
  {
    const auto instance = channel_instance(n, m, truth, ChannelKind::Quantitative,
                                           1, /*noisy=*/false, pool);
    (void)MnDecoder().decode(*instance, k, pool);
    const QueryFingerprint* print = instance->fingerprint().get();
    ASSERT_NE(print, nullptr);
    (void)make_decoder("adaptive:mn:L=16")->decode(*instance, DecodeContext(k, pool));
    EXPECT_EQ(instance->fingerprint().get(), print);
    EXPECT_EQ(print->queries, m);
  }
  // One-bit channels are not linear, and non-MN inners fold nothing:
  // neither publishes, so the verdict stays the exact pass.
  for (const auto& [spec, channel] :
       {std::pair{"adaptive:mn:L=16", ChannelKind::Binary},
        std::pair{"adaptive:mn:L=16", ChannelKind::Threshold},
        std::pair{"adaptive:omp:L=16", ChannelKind::Quantitative}}) {
    const auto instance = channel_instance(n, m, truth, channel, 2,
                                           /*noisy=*/false, pool);
    (void)make_decoder(spec)->decode(*instance, DecodeContext(k, pool));
    EXPECT_EQ(instance->fingerprint(), nullptr) << spec;
  }
  // Publishing a one-bit fingerprint, or one past m, is refused.
  const auto binary = channel_instance(n, m, truth, ChannelKind::Binary, 1,
                                       /*noisy=*/false, pool);
  QueryFingerprint print;
  print.entries.resize(n);
  EXPECT_THROW(binary->publish_fingerprint(print), ContractError);
  const auto quantitative = channel_instance(n, m, truth, ChannelKind::Quantitative,
                                             1, /*noisy=*/false, pool);
  print.queries = m + 1;
  EXPECT_THROW(quantitative->publish_fingerprint(print), ContractError);
}

/// A random-regular design that counts its query regenerations.
class CountingDesign final : public PoolingDesign {
 public:
  CountingDesign(std::uint32_t n, std::uint64_t seed) : inner_(n, seed) {}

  [[nodiscard]] std::uint32_t num_entries() const override {
    return inner_.num_entries();
  }
  void query_members(std::uint32_t query,
                     std::vector<std::uint32_t>& out) const override {
    regenerated.fetch_add(1, std::memory_order_relaxed);
    inner_.query_members(query, out);
  }
  [[nodiscard]] double expected_pool_size() const override {
    return inner_.expected_pool_size();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  mutable std::atomic<std::uint64_t> regenerated{0};

 private:
  RandomRegularDesign inner_;
};

TEST(AdaptiveAdapter, OneShotPassSupersedesABudgetPrefixFingerprint) {
  // One instance, shared in process: a budgeted adaptive decode publishes
  // its prefix first, and the later one-shot pass still leaves a
  // fingerprint of all m queries, so the verdict regenerates nothing.
  ThreadPool pool(2);
  const std::uint32_t n = 400, k = 5, m = 300;
  const Signal truth = Signal::random(n, k, 61);
  const auto design = std::make_shared<CountingDesign>(n, 1400);
  const StreamedInstance instance(design, m, simulate_queries(*design, m, truth, pool));
  DecodeContext context(k, pool);
  context.query_budget = 40;
  (void)make_decoder("adaptive:mn:L=16")->decode(instance, context);
  const std::shared_ptr<const QueryFingerprint> prefix = instance.fingerprint();
  ASSERT_NE(prefix, nullptr);
  EXPECT_EQ(prefix->queries, 40u);
  const Signal estimate = MnDecoder().decode(instance, k, pool);
  ASSERT_NE(instance.fingerprint(), nullptr);
  EXPECT_EQ(instance.fingerprint()->queries, m);
  EXPECT_EQ(prefix->queries, 40u);
  const std::uint64_t regenerated = design->regenerated.load();
  EXPECT_TRUE(instance.is_consistent(truth));
  (void)instance.is_consistent(estimate);
  EXPECT_EQ(design->regenerated.load(), regenerated);
}

TEST(AdaptiveAdapter, LongerPrefixSupersedesAShorterOne) {
  // One instance, shared in process: a budgeted adaptive decode publishes
  // its 40-query prefix, and a later unbudgeted one that folds 128
  // queries replaces it, so the second verdict regenerates only the 172
  // queries after that prefix, not the 260 after the first.
  ThreadPool pool(2);
  const std::uint32_t n = 400, k = 5, m = 300;
  const Signal truth = Signal::random(n, k, 61);
  const auto design = std::make_shared<CountingDesign>(n, 1400);
  const StreamedInstance instance(design, m, simulate_queries(*design, m, truth, pool));
  const auto decoder = make_decoder("adaptive:mn:L=16");
  DecodeContext budgeted(k, pool);
  budgeted.query_budget = 40;
  (void)decoder->decode(instance, budgeted);
  const std::shared_ptr<const QueryFingerprint> prefix = instance.fingerprint();
  ASSERT_NE(prefix, nullptr);
  EXPECT_EQ(prefix->queries, 40u);
  const DecodeOutcome outcome = decoder->decode(instance, DecodeContext(k, pool));
  ASSERT_EQ(outcome.stop, StopReason::Converged);
  EXPECT_EQ(outcome.queries, 128u);
  ASSERT_NE(instance.fingerprint(), nullptr);
  EXPECT_EQ(instance.fingerprint()->queries, 128u);
  EXPECT_EQ(prefix->queries, 40u);  // the replaced print stays readable
  const std::uint64_t regenerated = design->regenerated.load();
  EXPECT_TRUE(instance.is_consistent(outcome.estimate));
  EXPECT_EQ(design->regenerated.load() - regenerated, 172u);
  // A shorter prefix never replaces a longer one.
  (void)decoder->decode(instance, budgeted);
  EXPECT_EQ(instance.fingerprint()->queries, 128u);
}

// ---- fold-ahead vs the serial fold --------------------------------------
//
// A pool wider than one lane folds rounds ahead; the reference runs the
// adapter's round loop with every query folded through
// IncrementalMn::add_query on the calling thread. Everything a client can
// observe must agree: the outcome, the engine's final verdict, and the
// fingerprint the decode leaves on the instance.

struct Observed {
  DecodeOutcome outcome;
  bool consistent = false;
  std::shared_ptr<const QueryFingerprint> print;
};

StreamedInstance fresh_copy(const StreamedInstance& instance) {
  return StreamedInstance(instance.design_ptr(), instance.m(), instance.results(),
                          instance.channel(), instance.channel_threshold());
}

Observed observe(const StreamedInstance& served, DecodeOutcome outcome) {
  Observed observed;
  observed.consistent = served.is_consistent(outcome.estimate);
  observed.print = served.fingerprint();
  observed.outcome = std::move(outcome);
  return observed;
}

Observed serial_fold_reference(const StreamedInstance& instance,
                               const MnOptions& options, std::uint32_t batch,
                               const DecodeContext& context) {
  const StreamedInstance served = fresh_copy(instance);
  const auto& y = served.results();
  const auto available = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      served.m(), context.query_budget > 0 ? context.query_budget : served.m()));
  const bool linear = served.channel() == ChannelKind::Quantitative;
  IncrementalMn mn(served.design_ptr(), options);
  DecodeOutcome outcome;
  outcome.estimate = Signal(served.n());
  outcome.stop = StopReason::Exhausted;
  std::uint32_t consumed = 0;
  std::uint32_t round = 0;
  bool have_estimate = false;
  while (true) {
    if (context.cancel_requested()) {
      outcome.stop = StopReason::Cancelled;
      break;
    }
    if (context.max_rounds > 0 && round >= context.max_rounds) {
      outcome.stop = StopReason::RoundLimit;
      break;
    }
    consumed = std::min(available, consumed + batch);
    ++round;
    while (mn.m() < consumed) mn.add_query(y[mn.m()]);
    Signal estimate = mn.decode(context.k, context.thread_pool());
    outcome.score_evals += served.n();
    const bool stable = have_estimate && estimate == outcome.estimate;
    outcome.estimate = std::move(estimate);
    have_estimate = true;
    const bool exhausted = consumed >= available;
    if (stable || exhausted) {
      const StreamedInstance prefix(
          served.design_ptr(), consumed,
          std::vector<std::uint32_t>(y.begin(), y.begin() + consumed),
          served.channel(), served.channel_threshold());
      if (linear ? mn.is_consistent(outcome.estimate)
                 : prefix.is_consistent(outcome.estimate)) {
        outcome.stop = StopReason::Converged;
        break;
      }
      if (exhausted) break;
    }
  }
  if (linear && mn.m() > 0) served.publish_fingerprint(mn.fingerprint());
  outcome.rounds = round;
  outcome.queries = consumed;
  return observe(served, std::move(outcome));
}

std::string describe(const Observed& observed) {
  std::ostringstream os;
  os << describe(observed.outcome) << " consistent " << observed.consistent;
  if (observed.print == nullptr) {
    os << " no fingerprint";
  } else {
    os << " fingerprint queries " << observed.print->queries << " target "
       << observed.print->target << " entries";
    for (std::uint64_t entry : observed.print->entries) os << ' ' << entry;
  }
  return os.str();
}

TEST(AdaptiveAdapter, FoldAheadIsInvisible) {
  const std::uint32_t n = 400, k = 5, m = 150;
  const Signal truth = Signal::random(n, k, 71);
  const auto design = std::make_shared<CountingDesign>(n, 1700);
  const std::vector<std::uint32_t> sums = [&] {
    ThreadPool pool(1);
    return simulate_queries(*design, m, truth, pool);
  }();
  struct Case {
    std::string name;
    std::shared_ptr<const StreamedInstance> instance;
  };
  std::vector<Case> instances;
  for (const auto& [channel, name] :
       {std::pair{ChannelKind::Quantitative, "quantitative"},
        std::pair{ChannelKind::Binary, "binary"},
        std::pair{ChannelKind::Threshold, "threshold"}}) {
    std::vector<std::uint32_t> y = sums;
    for (std::uint32_t& value : y) value = apply_channel(value, channel, 2);
    std::shared_ptr<const StreamedInstance> instance =
        std::make_shared<StreamedInstance>(design, m, std::move(y), channel,
                                           channel == ChannelKind::Threshold ? 2 : 1);
    instances.push_back({name, instance});
    instances.push_back({std::string(name) + "+noise",
                         with_noise(instance, NoiseModel::symmetric(0.05, 9))});
  }
  // Results no pooled sum of this truth gives: one query in eight is
  // near 2^32, so a delta block holding two of them (or one of them with
  // every draw counted) could wrap, and those rounds fold serially.
  std::vector<std::uint32_t> huge(m);
  for (std::uint32_t q = 0; q < m; ++q) huge[q] = q % 8 == 7 ? 0xF0000000u + q : q % 5;
  instances.push_back(
      {"overflow", std::make_shared<StreamedInstance>(design, m, std::move(huge))});

  std::atomic<bool> cancelled{true};
  std::size_t cases = 0;
  std::size_t speculated = 0;  // decodes that folded a round they never took
  for (unsigned width : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(width);
    for (const Case& instance : instances) {
      for (const char* inner_spec : {"mn", "mn:multi-edge"}) {
        const auto inner = std::dynamic_pointer_cast<const MnDecoder>(make_decoder(inner_spec));
        ASSERT_NE(inner, nullptr);
        for (std::uint32_t batch : {1u, 3u, 16u, 64u, 1024u}) {
          const AdaptiveDecoder adaptive(inner, AdaptiveOptions{batch});
          std::vector<DecodeContext> contexts(4, DecodeContext(k, pool));
          contexts[1].query_budget = m / 2 + 1;  // ends inside a batch
          contexts[2].max_rounds = 5;            // so does this cap
          contexts[3].cancel = &cancelled;
          for (const DecodeContext& context : contexts) {
            const Observed want =
                serial_fold_reference(*instance.instance, inner->options(), batch, context);
            const StreamedInstance served = fresh_copy(*instance.instance);
            const std::uint64_t regenerated = design->regenerated.load();
            DecodeOutcome outcome = adaptive.decode(served, context);
            // Only the linear channel's stop checks regenerate nothing.
            speculated += served.channel() == ChannelKind::Quantitative &&
                          design->regenerated.load() - regenerated > outcome.queries;
            const Observed got = observe(served, std::move(outcome));
            ASSERT_EQ(describe(got), describe(want))
                << "width " << width << " instance " << instance.name << " inner "
                << inner_spec << " L " << batch << " budget " << context.query_budget
                << " rounds cap " << context.max_rounds << " cancelled "
                << context.cancel_requested();
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4u * 7 * 2 * 5 * 4);
  // Wider pools folded rounds ahead that the loop then dropped, unless
  // the arena budget admits no second delta block (POOLED_ARENA_BUDGET_MB
  // = 0): then every round folded serially.
  if (DecodeArena::delta_blocks(2, n) == 2) {
    EXPECT_GT(speculated, 0u);
  } else {
    EXPECT_EQ(speculated, 0u);
  }
}

TEST(AdaptiveAdapter, ReusedAccumulatorMatchesAFreshOne) {
  // Every adaptive MN decode on a thread borrows that thread's arena
  // slots for its accumulator, so each one below starts on what the one
  // before left: n grows and shrinks, the count mode flips, and a budget
  // ends a decode inside a fold-ahead batch. Each must answer exactly as
  // the reference's fresh, self-owned accumulator does.
  struct Step {
    std::uint32_t n;
    const char* inner;
    std::uint32_t budget;
  };
  const Step steps[] = {{400, "mn", 0},          {1500, "mn:multi-edge", 0},
                        {300, "mn", 0},          {1500, "mn", 91},
                        {300, "mn:multi-edge", 0}, {1500, "mn:multi-edge", 91},
                        {400, "mn", 91}};
  const std::uint32_t k = 5, m = 180, batch = 16;
  ThreadPool pool(4);
  for (const Step& step : steps) {
    const auto design = std::make_shared<RandomRegularDesign>(step.n, 300 + step.n);
    const StreamedInstance instance(
        design, m, simulate_queries(*design, m, Signal::random(step.n, k, step.n), pool));
    const auto inner = std::dynamic_pointer_cast<const MnDecoder>(make_decoder(step.inner));
    ASSERT_NE(inner, nullptr);
    const AdaptiveDecoder adaptive(inner, AdaptiveOptions{batch});
    DecodeContext context(k, pool);
    context.query_budget = step.budget;
    const Observed want = serial_fold_reference(instance, inner->options(), batch, context);
    const StreamedInstance served = fresh_copy(instance);
    const Observed got = observe(served, adaptive.decode(served, context));
    ASSERT_EQ(describe(got), describe(want))
        << "n " << step.n << " inner " << step.inner << " budget " << step.budget;
  }
}

TEST(AdaptiveAdapter, AccumulatorSlotsAreCountedAndHoldNoDesign) {
  // A fresh thread on a one-lane pool (no delta blocks, no lane marks):
  // its decode grows the arena by at least the accumulator's records and
  // Distinct pair, and once the job is gone nothing keeps its design.
  const std::uint32_t n = 3000, k = 5, m = 200;
  std::uint64_t grown = 0;
  bool design_freed = false;
  std::thread([&] {
    ThreadPool pool(1);
    std::weak_ptr<const PoolingDesign> watched;
    {
      const auto design = std::make_shared<RandomRegularDesign>(n, 41);
      watched = design;
      const StreamedInstance instance(
          design, m, simulate_queries(*design, m, Signal::random(n, k, 43), pool));
      const std::uint64_t before = arena_stats().live_bytes;
      (void)make_decoder("adaptive:mn:L=16")->decode(instance, DecodeContext(k, pool));
      grown = arena_stats().live_bytes - before;
    }
    design_freed = watched.expired();
  }).join();
  EXPECT_GE(grown, std::uint64_t{n} * (sizeof(EntryRecord) + sizeof(std::uint64_t) +
                                       sizeof(std::uint32_t)));
  EXPECT_TRUE(design_freed);
}

TEST(AdaptiveAdapter, GoldenV2RequestAnswerIsPinned) {
  // Request #0 of the golden v2 fixture (noise, rounds and budget caps)
  // without its deadline, so slow sanitizer builds decode it in full.
  std::ifstream is(std::string(POOLED_TEST_DATA_DIR) + "/golden_v2_requests.txt");
  ASSERT_TRUE(static_cast<bool>(is));
  auto job = load_job(is);
  ASSERT_TRUE(job.has_value());
  ASSERT_EQ(job->decoder, "adaptive:mn:L=8");
  job->deadline_seconds.reset();
  for (unsigned width : {1u, 4u}) {
    ThreadPool pool(width);
    const DecodeReport report = BatchEngine(pool).run_one(*job);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_EQ(report.support, (std::vector<std::uint32_t>{17, 33, 71, 92}));
    EXPECT_EQ(report.rounds, 12u);
    EXPECT_EQ(report.queries, 96u);
    EXPECT_EQ(report.stop, StopReason::Exhausted);
    EXPECT_FALSE(report.consistent);
  }
}

}  // namespace
}  // namespace pooled
