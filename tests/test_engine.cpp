// Tests for the decoding engine: registry, batch scheduler, protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

#include "binarygt/binary_decoders.hpp"
#include "core/metrics.hpp"
#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/registry.hpp"
#include "engine/result_cache.hpp"
#include "engine/serve_session.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"
#include "thresholdgt/threshold_decoder.hpp"

namespace pooled {
namespace {

/// Spec-backed job over a fresh teacher instance; truth returned via out.
DecodeJob sample_job(std::uint64_t seed, std::vector<std::uint32_t>* truth_out,
                     const std::string& decoder = "mn", std::uint32_t n = 300,
                     std::uint32_t k = 5, std::uint32_t m = 220) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = n;
  params.seed = seed;
  const Signal truth = Signal::random(n, k, seed ^ 0x51D);
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, m, truth, pool);
  job.decoder = decoder;
  job.k = k;
  if (truth_out) truth_out->assign(truth.support().begin(), truth.support().end());
  return job;
}

/// Serves `requests` through one stdin-style session; returns the
/// engine's serve.jobs_served count.
std::uint64_t serve(std::istream& requests, std::ostream& responses,
                    const BatchEngine& engine, ServeSessionOptions options = {}) {
  EXPECT_TRUE(ServeSession(requests, responses, engine, std::move(options)).run());
  return serve_snapshot(engine).counter_value("serve.jobs_served");
}

/// An engine whose serve window is `window` jobs.
EngineOptions windowed(std::size_t window) {
  EngineOptions options;
  options.max_in_flight = window;
  return options;
}

TEST(Registry, CreatesEveryBuiltinSpec) {
  for (const char* spec :
       {"mn", "mn:multi-edge", "mn:raw", "mn:normalized", "omp", "fista", "iht",
        "peeling", "random", "random:42", "gt:binary", "gt:comp",
        "gt:threshold:2", "adaptive:mn", "adaptive:mn:L=16",
        "adaptive:mn:multi-edge:L=8", "adaptive:gt:binary:L=4"}) {
    const auto decoder = make_decoder(spec);
    ASSERT_NE(decoder, nullptr) << spec;
    EXPECT_FALSE(decoder->name().empty()) << spec;
  }
  const auto names = DecoderRegistry::global().names();
  EXPECT_EQ(names.size(), 8u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, VariantsSelectDifferentDecoders) {
  EXPECT_EQ(make_decoder("mn")->name(), "mn");
  EXPECT_EQ(make_decoder("mn:multi-edge")->name(), "mn-multiedge");
  EXPECT_EQ(make_decoder("mn:raw")->name(), "mn-raw");
  EXPECT_EQ(make_decoder("mn:normalized")->name(), "mn-normalized");
}

TEST(Registry, RejectsUnknownSpecWithClearError) {
  try {
    (void)make_decoder("definitely-not-a-decoder");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("definitely-not-a-decoder"), std::string::npos);
    EXPECT_NE(what.find("mn"), std::string::npos);  // lists the known specs
  }
}

TEST(Registry, RejectsUnknownVariants) {
  EXPECT_THROW((void)make_decoder("mn:bogus"), ContractError);
  EXPECT_THROW((void)make_decoder("peeling:anything"), ContractError);
  EXPECT_THROW((void)make_decoder("random:not-a-number"), ContractError);
  EXPECT_THROW((void)make_decoder("gt"), ContractError);
  EXPECT_THROW((void)make_decoder("gt:bogus"), ContractError);
  EXPECT_THROW((void)make_decoder("gt:threshold:"), ContractError);
  EXPECT_THROW((void)make_decoder("gt:threshold:0"), ContractError);
  EXPECT_THROW((void)make_decoder("gt:threshold:x"), ContractError);
  EXPECT_THROW((void)make_decoder("adaptive"), ContractError);
  EXPECT_THROW((void)make_decoder("adaptive:L=4"), ContractError);
  EXPECT_THROW((void)make_decoder("adaptive:mn:L=0"), ContractError);
  EXPECT_THROW((void)make_decoder("adaptive:mn:L=x"), ContractError);
  EXPECT_THROW((void)make_decoder("adaptive:nope:L=4"), ContractError);
  EXPECT_THROW((void)make_decoder("adaptive:adaptive:mn"), ContractError);
}

TEST(Registry, HelpEntriesDocumentEverySpec) {
  const auto rows = DecoderRegistry::global().help_entries();
  EXPECT_EQ(rows.size(), DecoderRegistry::global().names().size());
  bool saw_adaptive = false;
  for (const auto& row : rows) {
    EXPECT_FALSE(row.name.empty());
    EXPECT_FALSE(row.description.empty()) << row.name;  // built-ins are documented
    if (row.name == "adaptive") {
      saw_adaptive = true;
      EXPECT_EQ(row.variants_help, ":<inner>[:L=<batch>]");
    }
  }
  EXPECT_TRUE(saw_adaptive);
}

TEST(Registry, GtSpecsSelectTheGroupTestingDecoders) {
  EXPECT_EQ(make_decoder("gt:binary")->name(), "gt-dd");
  EXPECT_EQ(make_decoder("gt:comp")->name(), "gt-comp");
  EXPECT_EQ(make_decoder("gt:threshold:3")->name(), "gt-threshold-3");
}

TEST(Registry, RandomVariantSetsTheSeed) {
  ThreadPool pool(1);
  std::vector<std::uint32_t> truth;
  const DecodeJob job = sample_job(1, &truth);
  const auto instance = job.spec->to_instance();
  const Signal a = make_decoder("random:7")->decode(*instance, job.k, pool);
  const Signal b = make_decoder("random:7")->decode(*instance, job.k, pool);
  const Signal c = make_decoder("random:8")->decode(*instance, job.k, pool);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Registry, CustomRegistriesStartEmpty) {
  DecoderRegistry registry;
  EXPECT_TRUE(registry.names().empty());
  EXPECT_FALSE(registry.contains("mn"));
  EXPECT_THROW((void)registry.create("mn"), ContractError);
  registry.add("alias", "", [](const std::string&) { return make_decoder("mn"); });
  EXPECT_TRUE(registry.contains("alias"));
  EXPECT_TRUE(registry.contains("alias:with-variant"));
  EXPECT_EQ(registry.create("alias")->name(), "mn");
  EXPECT_THROW(
      registry.add("alias", "", [](const std::string&) { return make_decoder("mn"); }),
      ContractError);
}

TEST(BatchEngine, MatchesSequentialDecodesForAnyPoolAndWindow) {
  // A mixed batch must be byte-identical to decoding each job alone,
  // independent of pool width and in-flight window.
  const std::vector<std::string> specs = {"mn", "mn:multi-edge", "peeling",
                                          "iht", "fista", "omp", "random"};
  std::vector<DecodeJob> jobs;
  for (std::size_t j = 0; j < 12; ++j) {
    jobs.push_back(sample_job(100 + j, nullptr, specs[j % specs.size()]));
  }

  ThreadPool sequential_pool(1);
  std::vector<std::vector<std::uint32_t>> expected;
  for (const DecodeJob& job : jobs) {
    const auto instance = job.spec->to_instance();
    const Signal estimate =
        make_decoder(job.decoder)->decode(*instance, job.k, sequential_pool);
    expected.emplace_back(estimate.support().begin(), estimate.support().end());
  }

  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    for (std::size_t window : {std::size_t{1}, std::size_t{3}, std::size_t{100}}) {
      EngineOptions options;
      options.max_in_flight = window;
      const auto reports = BatchEngine(pool, options).run(jobs);
      ASSERT_EQ(reports.size(), jobs.size());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_TRUE(reports[j].ok()) << reports[j].error;
        EXPECT_EQ(reports[j].index, j);
        EXPECT_EQ(reports[j].support, expected[j])
            << "threads=" << threads << " window=" << window << " job=" << j;
      }
    }
  }
}

TEST(BatchEngine, ReportsFollowSubmissionOrder) {
  std::vector<DecodeJob> jobs;
  for (std::size_t j = 0; j < 6; ++j) jobs.push_back(sample_job(200 + j, nullptr));
  ThreadPool pool(4);
  const BatchEngine engine(pool);
  const auto forward = engine.run(jobs);
  std::reverse(jobs.begin(), jobs.end());
  const auto reversed = engine.run(jobs);
  ASSERT_EQ(forward.size(), reversed.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // Reversing submission reverses which report lands at each index.
    EXPECT_EQ(forward[j].support, reversed[jobs.size() - 1 - j].support);
    EXPECT_EQ(reversed[j].index, j);
  }
}

TEST(BatchEngine, ScoresAgainstTruth) {
  ThreadPool pool(2);
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(7, &truth);
  job.truth_support = truth;
  const DecodeReport report = BatchEngine(pool).run_one(job);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(report.scored);
  EXPECT_GE(report.overlap, 0.0);
  EXPECT_LE(report.overlap, 1.0);
  EXPECT_EQ(report.exact, report.support == truth);
  EXPECT_EQ(report.n, 300u);
  EXPECT_GE(report.seconds, 0.0);

  DecodeJob unscored = sample_job(7, nullptr);
  const DecodeReport plain = BatchEngine(pool).run_one(unscored);
  EXPECT_FALSE(plain.scored);
}

TEST(BatchEngine, LazyBuilderSuppliesInstanceAndTruth) {
  ThreadPool pool(2);
  std::vector<std::uint32_t> truth;
  const DecodeJob spec_job = sample_job(9, &truth);
  DecodeJob lazy;
  lazy.k = spec_job.k;
  lazy.decoder = spec_job.decoder;
  lazy.build = [&spec_job, &truth](ThreadPool&) {
    InstanceBundle bundle;
    bundle.instance = spec_job.spec->to_instance();
    bundle.truth_support = truth;
    return bundle;
  };
  const DecodeReport lazy_report = BatchEngine(pool).run_one(lazy);
  DecodeJob eager = spec_job;
  eager.truth_support = truth;
  const DecodeReport eager_report = BatchEngine(pool).run_one(eager);
  ASSERT_TRUE(lazy_report.ok());
  EXPECT_EQ(lazy_report.support, eager_report.support);
  EXPECT_EQ(lazy_report.scored, eager_report.scored);
  EXPECT_EQ(lazy_report.exact, eager_report.exact);
}

TEST(BatchEngine, CapturesPerJobErrors) {
  ThreadPool pool(2);
  std::vector<DecodeJob> jobs = {sample_job(1, nullptr), sample_job(2, nullptr),
                                 sample_job(3, nullptr)};
  jobs[1].decoder = "not-registered";
  const auto reports = BatchEngine(pool).run(jobs);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[0].ok());
  EXPECT_FALSE(reports[1].ok());
  EXPECT_NE(reports[1].error.find("not-registered"), std::string::npos);
  EXPECT_TRUE(reports[2].ok());
}

TEST(BatchEngine, PropagatesErrorsWhenCaptureDisabled) {
  ThreadPool pool(2);
  std::vector<DecodeJob> jobs = {sample_job(1, nullptr)};
  jobs[0].decoder = "not-registered";
  EngineOptions options;
  options.capture_errors = false;
  EXPECT_THROW((void)BatchEngine(pool, options).run(jobs), ContractError);
}

TEST(BatchEngine, RejectsJobsWithoutAnInstanceSource) {
  ThreadPool pool(1);
  DecodeJob empty;
  empty.k = 3;
  const DecodeReport report = BatchEngine(pool).run_one(empty);
  EXPECT_FALSE(report.ok());
}

TEST(BatchEngine, ConsistencyHistogramCountsOnlyCheckedJobs) {
  ThreadPool pool(1);
  const BatchEngine engine(pool);
  DecodeJob checked = sample_job(4, nullptr);
  DecodeJob unchecked = sample_job(5, nullptr);
  unchecked.check_consistency = false;
  ASSERT_TRUE(engine.run_one(checked).ok());
  ASSERT_TRUE(engine.run_one(unchecked).ok());
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  const MetricValue* consistency = snapshot.find("engine.consistency_seconds");
  ASSERT_NE(consistency, nullptr);
  EXPECT_EQ(consistency->kind, MetricKind::Histogram);
  EXPECT_EQ(consistency->hist.count, 1u);
  const MetricValue* decode = snapshot.find("engine.decode_seconds");
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->hist.count, 2u);
}

TEST(Protocol, JobRoundTripPreservesEverything) {
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(11, &truth, "mn:multi-edge");
  job.truth_support = truth;
  std::stringstream buffer;
  save_job(buffer, job);
  const auto loaded = load_job(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->decoder, "mn:multi-edge");
  EXPECT_EQ(loaded->k, job.k);
  ASSERT_TRUE(loaded->truth_support.has_value());
  EXPECT_EQ(*loaded->truth_support, truth);
  ASSERT_TRUE(loaded->spec.has_value());
  EXPECT_EQ(loaded->spec->params.n, job.spec->params.n);
  EXPECT_EQ(loaded->spec->params.seed, job.spec->params.seed);
  EXPECT_EQ(loaded->spec->y, job.spec->y);
  EXPECT_FALSE(load_job(buffer).has_value());  // clean end of stream
}

TEST(Protocol, StreamsManyJobs) {
  std::stringstream buffer;
  for (std::uint64_t j = 0; j < 3; ++j) save_job(buffer, sample_job(j, nullptr));
  std::size_t count = 0;
  while (load_job(buffer)) ++count;
  EXPECT_EQ(count, 3u);
}

TEST(Protocol, OnlySpecBackedJobsSerialize) {
  std::stringstream buffer;
  DecodeJob prebuilt = sample_job(1, nullptr);
  prebuilt.instance = prebuilt.spec->to_instance();
  prebuilt.spec.reset();
  EXPECT_THROW(save_job(buffer, prebuilt), ContractError);
}

TEST(Protocol, RejectsMalformedJobs) {
  {
    std::stringstream buffer("some-other-frame v1\n");
    EXPECT_THROW((void)load_job(buffer), ContractError);
  }
  {
    std::stringstream buffer("pooled-job v999\n");
    EXPECT_THROW((void)load_job(buffer), ContractError);
  }
  {
    std::stringstream buffer("pooled-job v1\nbogus-field 1\n");
    EXPECT_THROW((void)load_job(buffer), ContractError);
  }
  {  // missing the instance block terminator
    std::stringstream buffer(
        "pooled-job v1\nk 3\ninstance\npooled-instance v1\nn 10\n");
    EXPECT_THROW((void)load_job(buffer), ContractError);
  }
  {  // missing k
    std::stringstream buffer;
    save_instance(buffer, *sample_job(1, nullptr).spec);
    std::stringstream frame;
    frame << "pooled-job v1\ninstance\n" << buffer.str() << "end\n";
    EXPECT_THROW((void)load_job(frame), ContractError);
  }
}

TEST(Protocol, ReportRoundTrip) {
  DecodeReport report;
  report.index = 4;
  report.decoder_name = "mn";
  report.n = 300;
  report.k = 5;
  report.support = {3, 14, 159, 265};
  report.consistent = true;
  report.scored = true;
  report.exact = false;
  report.overlap = 0.75;
  report.seconds = 0.001953125;
  std::stringstream buffer;
  save_report(buffer, report);
  const auto loaded = load_report(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->ok());
  EXPECT_EQ(loaded->index, 4u);
  EXPECT_EQ(loaded->decoder_name, "mn");
  EXPECT_EQ(loaded->n, 300u);
  EXPECT_EQ(loaded->k, 5u);
  EXPECT_EQ(loaded->support, report.support);
  EXPECT_TRUE(loaded->consistent);
  EXPECT_TRUE(loaded->scored);
  EXPECT_FALSE(loaded->exact);
  EXPECT_DOUBLE_EQ(loaded->overlap, 0.75);
  EXPECT_DOUBLE_EQ(loaded->seconds, 0.001953125);
  EXPECT_FALSE(load_report(buffer).has_value());
}

TEST(Protocol, ErrorReportsRoundTripWithoutResultFields) {
  DecodeReport report;
  report.index = 2;
  report.error = "unknown decoder spec 'x'\nwith a newline";
  std::stringstream buffer;
  save_report(buffer, report);
  const auto loaded = load_report(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->ok());
  EXPECT_EQ(loaded->index, 2u);
  // Newlines are flattened so the line framing survives.
  EXPECT_EQ(loaded->error.find('\n'), std::string::npos);
  EXPECT_NE(loaded->error.find("unknown decoder spec"), std::string::npos);
  EXPECT_FALSE(loaded->scored);
}

/// Spec-backed job over a one-bit channel instance at the channel's
/// natural pool size; truth returned via out.
DecodeJob gt_job(std::uint64_t seed, const std::string& decoder,
                 ChannelKind channel, std::uint32_t threshold,
                 std::vector<std::uint32_t>* truth_out, std::uint32_t n = 80,
                 std::uint32_t k = 4, std::uint32_t m = 120) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = n;
  params.seed = seed;
  params.gamma = channel == ChannelKind::Binary
                     ? optimal_gt_gamma(n, k)
                     : threshold_gt_gamma(n, k, threshold);
  const Signal truth = Signal::random(n, k, seed ^ 0x670);
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, m, truth, pool,
                           channel, threshold);
  job.decoder = decoder;
  job.k = k;
  if (truth_out) truth_out->assign(truth.support().begin(), truth.support().end());
  return job;
}

TEST(ResultCache, JobKeyCoversEveryReportShapingInput) {
  const DecodeJob base = sample_job(3, nullptr);
  const auto base_key = ResultCache::job_key(base);
  ASSERT_TRUE(base_key.has_value());
  EXPECT_EQ(base_key, ResultCache::job_key(base));  // deterministic

  DecodeJob other_decoder = base;
  other_decoder.decoder = "peeling";
  EXPECT_NE(ResultCache::job_key(other_decoder), base_key);

  DecodeJob other_k = base;
  other_k.k += 1;
  EXPECT_NE(ResultCache::job_key(other_k), base_key);

  DecodeJob with_truth = base;
  with_truth.truth_support = std::vector<std::uint32_t>{1, 2, 3};
  EXPECT_NE(ResultCache::job_key(with_truth), base_key);

  DecodeJob no_consistency = base;
  no_consistency.check_consistency = false;
  EXPECT_NE(ResultCache::job_key(no_consistency), base_key);

  // Decode options are report-shaping inputs too: the same instance with
  // and without noise (or under different adaptive caps) must key apart.
  DecodeJob noisy = base;
  noisy.noise = NoiseModel::symmetric(0.05, 7);
  EXPECT_NE(ResultCache::job_key(noisy), base_key);
  DecodeJob noisier = noisy;
  noisier.noise.level = 0.1;
  EXPECT_NE(ResultCache::job_key(noisier), ResultCache::job_key(noisy));
  DecodeJob other_noise_seed = noisy;
  other_noise_seed.noise.seed = 8;
  EXPECT_NE(ResultCache::job_key(other_noise_seed), ResultCache::job_key(noisy));
  DecodeJob gaussian = base;
  gaussian.noise = NoiseModel::gaussian(0.05, 7);
  EXPECT_NE(ResultCache::job_key(gaussian), ResultCache::job_key(noisy));

  DecodeJob capped_rounds = base;
  capped_rounds.rounds = 3;
  EXPECT_NE(ResultCache::job_key(capped_rounds), base_key);
  DecodeJob capped_budget = base;
  capped_budget.budget = 100;
  EXPECT_NE(ResultCache::job_key(capped_budget), base_key);

  // The RNG seed shapes stochastic decodes: seeded and unseeded jobs
  // (and differently-seeded ones) must never alias.
  DecodeJob seeded = base;
  seeded.rng_seed = 7;
  EXPECT_NE(ResultCache::job_key(seeded), base_key);
  DecodeJob reseeded = seeded;
  reseeded.rng_seed = 8;
  EXPECT_NE(ResultCache::job_key(reseeded), ResultCache::job_key(seeded));

  // Deadline outcomes depend on the clock: never cacheable.
  DecodeJob with_deadline = base;
  with_deadline.deadline_seconds = 0.5;
  EXPECT_FALSE(ResultCache::job_key(with_deadline).has_value());

  DecodeJob other_instance = sample_job(4, nullptr);
  EXPECT_NE(ResultCache::job_key(other_instance), base_key);

  // Jobs without a canonical form are not cacheable.
  DecodeJob prebuilt = base;
  prebuilt.instance = base.spec->to_instance();
  prebuilt.spec.reset();
  EXPECT_FALSE(ResultCache::job_key(prebuilt).has_value());
  DecodeJob lazy = base;
  lazy.spec.reset();
  lazy.build = [](ThreadPool&) { return InstanceBundle{}; };
  EXPECT_FALSE(ResultCache::job_key(lazy).has_value());
  const auto owned = make_decoder("mn");
  DecodeJob overridden = base;
  overridden.decoder_override = owned.get();
  EXPECT_FALSE(ResultCache::job_key(overridden).has_value());
}

TEST(ResultCache, LruEvictionAndCounters) {
  ResultCache cache(2);
  DecodeReport report;
  report.decoder_name = "mn";
  cache.insert("a", report);
  cache.insert("b", report);
  EXPECT_TRUE(cache.lookup("a").has_value());   // a becomes most-recent
  cache.insert("c", report);                    // evicts b
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.75);

  DecodeReport failed;
  failed.error = "boom";
  cache.insert("d", failed);  // failures never stick
  EXPECT_FALSE(cache.lookup("d").has_value());

  cache.clear();
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(BatchEngine, CacheHitsReproduceLiveReports) {
  ThreadPool pool(2);
  std::vector<std::uint32_t> truth;
  std::vector<DecodeJob> jobs;
  for (std::size_t j = 0; j < 4; ++j) {
    jobs.push_back(sample_job(400 + j, &truth));
    jobs.back().truth_support = truth;
  }
  const auto live = BatchEngine(pool).run(jobs);

  ResultCache cache(16);
  EngineOptions options;
  options.cache = &cache;
  const BatchEngine cached_engine(pool, options);
  const auto cold = cached_engine.run(jobs);
  const auto warm = cached_engine.run(jobs);
  EXPECT_EQ(cache.stats().hits, jobs.size());
  EXPECT_EQ(cache.stats().insertions, jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const auto* reports : {&cold, &warm}) {
      EXPECT_EQ((*reports)[j].support, live[j].support);
      EXPECT_EQ((*reports)[j].consistent, live[j].consistent);
      EXPECT_EQ((*reports)[j].scored, live[j].scored);
      EXPECT_EQ((*reports)[j].exact, live[j].exact);
      EXPECT_EQ((*reports)[j].overlap, live[j].overlap);
      EXPECT_EQ((*reports)[j].decoder_name, live[j].decoder_name);
      EXPECT_EQ((*reports)[j].index, j);
    }
  }
}

TEST(Registry, GtDecodersRejectChannelMismatches) {
  ThreadPool pool(1);
  std::vector<std::uint32_t> truth;
  // Threshold-2 outcomes: binary decoders would silently drop true
  // positives, and a differently-labeled threshold decoder would
  // misinterpret the bits -- both must be contract errors.
  const DecodeJob threshold_backed =
      gt_job(41, "gt:binary", ChannelKind::Threshold, 2, &truth);
  const auto threshold_instance = threshold_backed.spec->to_instance();
  EXPECT_THROW(
      (void)make_decoder("gt:binary")->decode(*threshold_instance, 4, pool),
      ContractError);
  EXPECT_THROW(
      (void)make_decoder("gt:comp")->decode(*threshold_instance, 4, pool),
      ContractError);
  EXPECT_THROW(
      (void)make_decoder("gt:threshold:3")->decode(*threshold_instance, 4, pool),
      ContractError);
  EXPECT_NO_THROW(
      (void)make_decoder("gt:threshold:2")->decode(*threshold_instance, 4, pool));

  const DecodeJob binary_backed =
      gt_job(42, "gt:binary", ChannelKind::Binary, 1, &truth);
  const auto binary_instance = binary_backed.spec->to_instance();
  EXPECT_THROW(
      (void)make_decoder("gt:threshold:2")->decode(*binary_instance, 4, pool),
      ContractError);
  // Binary outcomes are exactly threshold-1 outcomes.
  EXPECT_NO_THROW(
      (void)make_decoder("gt:threshold:1")->decode(*binary_instance, 4, pool));

  // Through the engine the mismatch surfaces as a per-job error report.
  DecodeJob mismatched = threshold_backed;
  const DecodeReport report = BatchEngine(pool).run_one(mismatched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("gt:threshold"), std::string::npos);
}

TEST(ServeSession, GtDecodersServeEndToEnd) {
  // The acceptance path: gt:binary and gt:threshold:<T> requests flow
  // through the same serve loop as everything else and recover the truth
  // on their native channels.
  std::vector<std::uint32_t> binary_truth, threshold_truth;
  std::stringstream requests;
  DecodeJob binary =
      gt_job(31, "gt:binary", ChannelKind::Binary, 1, &binary_truth);
  binary.truth_support = binary_truth;
  save_job(requests, binary);
  DecodeJob threshold =
      gt_job(32, "gt:threshold:2", ChannelKind::Threshold, 2, &threshold_truth);
  threshold.truth_support = threshold_truth;
  save_job(requests, threshold);

  ThreadPool pool(2);
  ResultCache cache(8);
  EngineOptions options;
  options.cache = &cache;
  std::stringstream responses;
  EXPECT_EQ(serve(requests, responses, BatchEngine(pool, options)), 2u);

  const auto first = load_report(responses);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok()) << first->error;
  EXPECT_EQ(first->decoder_name, "gt-dd");
  EXPECT_TRUE(first->consistent);
  EXPECT_TRUE(first->exact);
  EXPECT_EQ(first->support, binary_truth);

  const auto second = load_report(responses);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->ok()) << second->error;
  EXPECT_EQ(second->decoder_name, "gt-threshold-2");
  EXPECT_TRUE(second->exact);
  EXPECT_EQ(second->support, threshold_truth);
}

TEST(ServeSession, CachedRepeatServesIdenticalFrames) {
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(77, &truth);
  job.truth_support = truth;

  ThreadPool pool(2);
  ResultCache cache(8);
  EngineOptions options;
  options.cache = &cache;
  const BatchEngine engine(pool, options);

  const auto serve_once = [&] {
    std::stringstream requests;
    save_job(requests, job);
    std::stringstream responses;
    (void)serve(requests, responses, engine);
    return responses.str();
  };
  const std::string cold = serve_once();
  const std::string warm = serve_once();
  EXPECT_EQ(cache.stats().hits, 1u);
  // Frames are identical line for line except the wall-time field.
  std::istringstream cold_lines(cold), warm_lines(warm);
  std::string cold_line, warm_line;
  while (std::getline(cold_lines, cold_line)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(warm_lines, warm_line)));
    if (cold_line.rfind("seconds ", 0) == 0) {
      EXPECT_EQ(warm_line.rfind("seconds ", 0), 0u);
      continue;
    }
    EXPECT_EQ(cold_line, warm_line);
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(warm_lines, warm_line)));
}

TEST(ServeSession, EndToEndRoundTrip) {
  // The full serve path: requests in, engine, responses out -- exactly
  // what `pooled_cli serve` runs.
  std::vector<std::uint32_t> truth;
  std::stringstream requests;
  DecodeJob scored = sample_job(21, &truth);
  scored.truth_support = truth;
  save_job(requests, scored);
  save_job(requests, sample_job(22, nullptr, "peeling"));
  DecodeJob broken = sample_job(23, nullptr);
  broken.decoder = "nope";
  save_job(requests, broken);

  ThreadPool pool(2);
  std::stringstream responses;
  EXPECT_EQ(serve(requests, responses, BatchEngine(pool, windowed(2))), 3u);

  std::vector<DecodeReport> reports;
  while (auto report = load_report(responses)) reports.push_back(std::move(*report));
  ASSERT_EQ(reports.size(), 3u);
  for (std::size_t j = 0; j < reports.size(); ++j) EXPECT_EQ(reports[j].index, j);
  EXPECT_TRUE(reports[0].ok());
  EXPECT_TRUE(reports[0].scored);
  EXPECT_TRUE(reports[1].ok());
  EXPECT_EQ(reports[1].decoder_name, "peeling");
  EXPECT_FALSE(reports[2].ok());

  // Chunked serving matches one-shot serving job for job.
  ThreadPool pool1(1);
  std::stringstream requests_again;
  save_job(requests_again, scored);
  std::stringstream responses_again;
  (void)serve(requests_again, responses_again, BatchEngine(pool1));
  const auto again = load_report(responses_again);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->support, reports[0].support);
  EXPECT_EQ(again->exact, reports[0].exact);
}

// ---- decode API v2: noise, adaptive decoding, protocol v2 fields -------

TEST(DecodeV2, NoiseIsADecodeOptionNotAnInstanceProperty) {
  ThreadPool pool(2);
  std::vector<std::uint32_t> truth;
  DecodeJob clean = sample_job(61, &truth);
  clean.truth_support = truth;
  DecodeJob noisy = clean;
  noisy.noise = NoiseModel::symmetric(0.5, 3);

  const BatchEngine engine(pool);
  const DecodeReport clean_report = engine.run_one(clean);
  const DecodeReport noisy_report = engine.run_one(noisy);
  ASSERT_TRUE(clean_report.ok()) << clean_report.error;
  ASSERT_TRUE(noisy_report.ok()) << noisy_report.error;
  // The archived spec is untouched; only the decoded copy was perturbed.
  EXPECT_EQ(clean.spec->y, noisy.spec->y);
  // The clean decode explains its observations; the noisy one is checked
  // against the perturbed y the decoder actually saw.
  EXPECT_TRUE(clean_report.consistent);
  // Same n/k shape either way.
  EXPECT_EQ(noisy_report.n, clean_report.n);
  EXPECT_EQ(noisy_report.k, clean_report.k);

  // Determinism: the same noise model reproduces the same report.
  const DecodeReport replay = engine.run_one(noisy);
  EXPECT_EQ(replay.support, noisy_report.support);
  EXPECT_EQ(replay.consistent, noisy_report.consistent);
}

TEST(DecodeV2, CacheSeparatesNoisyFromNoiselessDecodes) {
  ThreadPool pool(2);
  DecodeJob clean = sample_job(62, nullptr);
  DecodeJob noisy = clean;
  noisy.noise = NoiseModel::symmetric(0.4, 9);

  ResultCache cache(16);
  EngineOptions options;
  options.cache = &cache;
  const BatchEngine engine(pool, options);
  const DecodeReport clean_cold = engine.run_one(clean);
  const DecodeReport noisy_cold = engine.run_one(noisy);
  // Two distinct entries: the noisy decode never aliases the clean one.
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  const DecodeReport clean_warm = engine.run_one(clean);
  const DecodeReport noisy_warm = engine.run_one(noisy);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(clean_warm.support, clean_cold.support);
  EXPECT_EQ(noisy_warm.support, noisy_cold.support);
  EXPECT_EQ(clean_warm.consistent, clean_cold.consistent);
  EXPECT_EQ(noisy_warm.consistent, noisy_cold.consistent);
}

TEST(DecodeV2, CacheSeparatesAdaptiveCaps) {
  ThreadPool pool(2);
  DecodeJob free_run = sample_job(63, nullptr, "adaptive:mn:L=16");
  DecodeJob capped = free_run;
  capped.rounds = 1;

  ResultCache cache(16);
  EngineOptions options;
  options.cache = &cache;
  const BatchEngine engine(pool, options);
  const DecodeReport a = engine.run_one(free_run);
  const DecodeReport b = engine.run_one(capped);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(cache.stats().insertions, 2u);  // distinct keys, no aliasing
  EXPECT_EQ(b.rounds, 1u);
  EXPECT_EQ(b.stop == StopReason::RoundLimit || b.stop == StopReason::Converged,
            true);
  EXPECT_GE(a.rounds, 1u);
}

TEST(DecodeV2, AdaptiveDecodesThroughEngineWithDiagnostics) {
  ThreadPool pool(2);
  std::vector<std::uint32_t> truth;
  // A comfortable budget: adaptive stopping should converge early.
  DecodeJob job = sample_job(64, &truth, "adaptive:mn:L=16", /*n=*/300,
                             /*k=*/5, /*m=*/280);
  job.truth_support = truth;
  const DecodeReport report = BatchEngine(pool).run_one(job);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.decoder_name, "adaptive-mn-L16");
  EXPECT_EQ(report.stop, StopReason::Converged);
  EXPECT_TRUE(report.consistent);
  EXPECT_TRUE(report.exact);
  EXPECT_GE(report.rounds, 1u);
  EXPECT_EQ(report.queries, std::min<std::uint64_t>(280u, report.rounds * 16u));
  // Early stopping must actually save queries at this budget.
  EXPECT_LT(report.queries, 280u);
}

TEST(DecodeV2, AdaptiveHonorsBudgetAndRoundCaps) {
  ThreadPool pool(1);
  DecodeJob job = sample_job(65, nullptr, "adaptive:mn:L=16");
  job.budget = 32;  // too few queries to explain the data
  const DecodeReport budgeted = BatchEngine(pool).run_one(job);
  ASSERT_TRUE(budgeted.ok()) << budgeted.error;
  EXPECT_LE(budgeted.queries, 32u);
  EXPECT_EQ(budgeted.stop, StopReason::Exhausted);

  DecodeJob round_capped = sample_job(65, nullptr, "adaptive:mn:L=16");
  round_capped.rounds = 2;
  const DecodeReport capped = BatchEngine(pool).run_one(round_capped);
  ASSERT_TRUE(capped.ok()) << capped.error;
  EXPECT_LE(capped.rounds, 2u);
  EXPECT_LE(capped.queries, 32u);
}

TEST(DecodeV2, AdaptiveStopsOnDeadlineAndCancellation) {
  ThreadPool pool(1);
  const DecodeJob job = sample_job(66, nullptr);
  const auto instance = job.spec->to_instance();
  const auto adaptive = make_decoder("adaptive:mn:L=4");

  DecodeContext expired(job.k, pool);
  expired.deadline_seconds = 0.0;  // already past
  const DecodeOutcome timed_out = adaptive->decode(*instance, expired);
  EXPECT_EQ(timed_out.stop, StopReason::Deadline);
  EXPECT_EQ(timed_out.queries, 0u);
  EXPECT_EQ(timed_out.rounds, 0u);  // no round actually ran

  std::atomic<bool> cancel{true};
  DecodeContext cancelled(job.k, pool);
  cancelled.cancel = &cancel;
  const DecodeOutcome aborted = adaptive->decode(*instance, cancelled);
  EXPECT_EQ(aborted.stop, StopReason::Cancelled);
  EXPECT_EQ(aborted.rounds, 0u);
}

namespace {

/// Sink that records every round callback.
struct RecordingSink final : DecodeStatsSink {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> rounds;
  void on_round(std::uint32_t round, std::uint64_t queries_so_far) override {
    rounds.emplace_back(round, queries_so_far);
  }
};

}  // namespace

TEST(DecodeV2, StatsSinkObservesEveryRound) {
  ThreadPool pool(1);
  const DecodeJob job = sample_job(67, nullptr);
  const auto instance = job.spec->to_instance();
  const auto adaptive = make_decoder("adaptive:mn:L=32");
  RecordingSink sink;
  DecodeContext context(job.k, pool);
  context.stats = &sink;
  const DecodeOutcome outcome = adaptive->decode(*instance, context);
  ASSERT_EQ(sink.rounds.size(), outcome.rounds);
  for (std::size_t r = 0; r < sink.rounds.size(); ++r) {
    EXPECT_EQ(sink.rounds[r].first, r + 1);
    if (r > 0) {
      EXPECT_GT(sink.rounds[r].second, sink.rounds[r - 1].second);
    }
  }
  EXPECT_EQ(sink.rounds.back().second, outcome.queries);
}

TEST(ProtocolV2, JobRoundTripPreservesDecodeOptions) {
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(68, &truth, "adaptive:mn:L=16");
  job.truth_support = truth;
  job.noise = NoiseModel::gaussian(1.5, 42);
  job.rounds = 12;
  job.budget = 4096;
  job.deadline_seconds = 0.25;
  job.rng_seed = 9181;
  std::stringstream buffer;
  save_job(buffer, job);
  EXPECT_EQ(buffer.str().rfind("pooled-job v2", 0), 0u);
  const auto loaded = load_job(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->decoder, "adaptive:mn:L=16");
  EXPECT_EQ(loaded->noise, job.noise);
  EXPECT_EQ(loaded->rounds, 12u);
  EXPECT_EQ(loaded->budget, 4096u);
  EXPECT_EQ(loaded->rng_seed, 9181u);
  ASSERT_TRUE(loaded->deadline_seconds.has_value());
  EXPECT_DOUBLE_EQ(*loaded->deadline_seconds, 0.25);
  ASSERT_TRUE(loaded->truth_support.has_value());
  EXPECT_EQ(*loaded->truth_support, truth);
}

TEST(ProtocolV2, DefaultOptionsSerializeCompactly) {
  // A job with no v2 options writes no v2 option lines, so the frame
  // differs from v1 only in its version token.
  std::stringstream buffer;
  save_job(buffer, sample_job(69, nullptr));
  const std::string frame = buffer.str();
  EXPECT_EQ(frame.find("noise"), std::string::npos);
  EXPECT_EQ(frame.find("deadline-ms"), std::string::npos);
  EXPECT_EQ(frame.find("rounds"), std::string::npos);
  EXPECT_EQ(frame.find("budget"), std::string::npos);
}

TEST(ProtocolV2, ReportRoundTripCarriesDiagnostics) {
  DecodeReport report;
  report.index = 7;
  report.decoder_name = "adaptive-mn-L16";
  report.n = 300;
  report.k = 5;
  report.support = {1, 2, 3, 4, 250};
  report.consistent = true;
  report.rounds = 9;
  report.queries = 144;
  report.stop = StopReason::Converged;
  std::stringstream buffer;
  save_report(buffer, report);
  EXPECT_EQ(buffer.str().rfind("pooled-result v2", 0), 0u);
  const auto loaded = load_report(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->rounds, 9u);
  EXPECT_EQ(loaded->queries, 144u);
  EXPECT_EQ(loaded->stop, StopReason::Converged);
}

TEST(ProtocolV2, V1FramesRejectV2Fields) {
  for (const char* field : {"noise sym 0.1 1", "deadline-ms 100", "rounds 3",
                            "budget 64", "seed 7"}) {
    std::stringstream frame(std::string("pooled-job v1\nk 3\n") + field + "\n");
    EXPECT_THROW((void)load_job(frame), ContractError) << field;
  }
  std::stringstream result(
      "pooled-result v1\njob 0\nstatus ok\nrounds 2\nend\n");
  EXPECT_THROW((void)load_report(result), ContractError);
}

TEST(ProtocolV2, UnknownVersionsStillFailLoudly) {
  std::stringstream job("pooled-job v3\nk 3\n");
  EXPECT_THROW((void)load_job(job), ContractError);
  std::stringstream result("pooled-result v999\njob 0\n");
  EXPECT_THROW((void)load_report(result), ContractError);
}

TEST(ProtocolV2, SaveJobErrorsNameTheJobAndDecoder) {
  DecodeJob prebuilt = sample_job(70, nullptr, "peeling");
  prebuilt.instance = prebuilt.spec->to_instance();
  prebuilt.spec.reset();
  std::stringstream buffer;
  try {
    save_job(buffer, prebuilt, /*index=*/17);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("#17"), std::string::npos) << what;
    EXPECT_NE(what.find("peeling"), std::string::npos) << what;
  }
}

TEST(DecodeV2, RngSeedReachesStochasticDecodersThroughTheEngine) {
  // The ROADMAP bug: DecodeContext::rng_seed existed but every caller
  // dropped it. Through the engine a seeded job must decode
  // deterministically, and a different seed must change the guess.
  ThreadPool pool(2);
  DecodeJob job = sample_job(81, nullptr, "random");
  job.rng_seed = 7;
  const BatchEngine engine(pool);
  const DecodeReport first = engine.run_one(job);
  const DecodeReport replay = engine.run_one(job);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.support, replay.support);

  DecodeJob reseeded = job;
  reseeded.rng_seed = 8;
  const DecodeReport other = engine.run_one(reseeded);
  EXPECT_NE(other.support, first.support);

  // And the seed survives the wire: a protocol round trip decodes to the
  // same support as the in-process job.
  std::stringstream buffer;
  save_job(buffer, job);
  const auto loaded = load_job(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(engine.run_one(*loaded).support, first.support);
}

TEST(DecodeV2, CacheNeverAliasesSeededAndUnseededDecodes) {
  ThreadPool pool(1);
  DecodeJob unseeded = sample_job(82, nullptr, "random");
  DecodeJob seeded = unseeded;
  seeded.rng_seed = 7;

  ResultCache cache(16);
  EngineOptions options;
  options.cache = &cache;
  const BatchEngine engine(pool, options);
  const DecodeReport unseeded_cold = engine.run_one(unseeded);
  const DecodeReport seeded_cold = engine.run_one(seeded);
  EXPECT_EQ(cache.stats().insertions, 2u);  // two keys, no aliasing
  const DecodeReport seeded_warm = engine.run_one(seeded);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(seeded_warm.support, seeded_cold.support);
  EXPECT_NE(seeded_cold.support, unseeded_cold.support);
}

TEST(DecodeV2, CancelledDecodesAreNeverCached) {
  // A cancelled stop is not the job's canonical result; replaying it
  // from the cache would freeze the truncated estimate forever.
  ThreadPool pool(1);
  DecodeJob job = sample_job(83, nullptr, "adaptive:mn:L=16");
  std::atomic<bool> cancel{true};
  job.cancel = &cancel;

  ResultCache cache(16);
  EngineOptions options;
  options.cache = &cache;
  const BatchEngine engine(pool, options);
  const DecodeReport cancelled = engine.run_one(job);
  ASSERT_TRUE(cancelled.ok()) << cancelled.error;
  EXPECT_EQ(cancelled.stop, StopReason::Cancelled);
  EXPECT_EQ(cache.stats().insertions, 0u);

  // Once the token clears, the real decode runs and is cached.
  cancel.store(false);
  const DecodeReport live = engine.run_one(job);
  EXPECT_NE(live.stop, StopReason::Cancelled);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ServeSession, ProgressStreamTagsRoundsWithGlobalIndices) {
  // serve --progress: one line per adaptive round, tagged with the same
  // stream-global job index the result frame carries.
  std::stringstream requests;
  save_job(requests, sample_job(84, nullptr, "adaptive:mn:L=16"));
  save_job(requests, sample_job(85, nullptr, "adaptive:mn:L=16"));

  ThreadPool pool(1);
  std::ostringstream progress_lines;
  ProgressStream progress(progress_lines);
  std::stringstream responses;
  ServeSessionOptions options;
  options.progress = &progress;
  EXPECT_EQ(serve(requests, responses, BatchEngine(pool, windowed(1)), options),
            2u);
  const std::string text = progress_lines.str();
  EXPECT_NE(text.find("progress job=0 round=1 queries=16"), std::string::npos)
      << text;
  EXPECT_NE(text.find("progress job=1 round=1 queries=16"), std::string::npos)
      << text;
}

TEST(ServeSession, AdaptiveServesWithRoundsAndQueriesInTheFrame) {
  // The acceptance path: adaptive:mn:L=16 resolves from the registry,
  // decodes through the serve loop, and its result frame reports
  // rounds/queries.
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(71, &truth, "adaptive:mn:L=16", /*n=*/300,
                             /*k=*/5, /*m=*/280);
  job.truth_support = truth;
  std::stringstream requests;
  save_job(requests, job);

  ThreadPool pool(2);
  std::stringstream responses;
  EXPECT_EQ(serve(requests, responses, BatchEngine(pool)), 1u);
  const std::string text = responses.str();
  EXPECT_NE(text.find("rounds "), std::string::npos);
  EXPECT_NE(text.find("queries "), std::string::npos);
  EXPECT_NE(text.find("stop converged"), std::string::npos);

  std::istringstream reparse(text);
  const auto report = load_report(reparse);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->ok()) << report->error;
  EXPECT_EQ(report->decoder_name, "adaptive-mn-L16");
  EXPECT_GE(report->rounds, 1u);
  EXPECT_GT(report->queries, 0u);
  EXPECT_LT(report->queries, 280u);  // early stopping saved queries
  EXPECT_TRUE(report->exact);
}

TEST(ServeSession, TraceSpansCoverConsistencyAndWrite) {
  // The post-decode consistency pass and the flush of the result window
  // are stages of their own, so a span accounts for the whole job.
  std::stringstream requests;
  save_job(requests, sample_job(91, nullptr));
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  std::ostringstream log;
  TraceRecorder recorder(log);
  ServeSessionOptions options;
  options.trace = &recorder;
  std::stringstream responses;
  EXPECT_EQ(serve(requests, responses, engine, options), 1u);
  const std::string served_span = log.str();
  for (const char* stage :
       {"\"parse\":", "\"queue\":", "\"build\":", "\"decode\":",
        "\"consistency\":", "\"serialize\":", "\"write\":"}) {
    EXPECT_NE(served_span.find(stage), std::string::npos)
        << stage << " in " << served_span;
  }

  // A job that skips the check never reaches the stage, so it is omitted.
  DecodeJob unchecked = sample_job(92, nullptr);
  unchecked.check_consistency = false;
  {
    TraceSpan span(recorder, 0, 1);
    unchecked.trace = &span;
    EXPECT_TRUE(engine.run_one(unchecked).ok());
  }
  const std::string unchecked_span = log.str().substr(served_span.size());
  EXPECT_NE(unchecked_span.find("\"decode\":"), std::string::npos)
      << unchecked_span;
  EXPECT_EQ(unchecked_span.find("\"consistency\":"), std::string::npos)
      << unchecked_span;
}

}  // namespace
}  // namespace pooled
