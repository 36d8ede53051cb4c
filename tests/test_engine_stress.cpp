// BatchEngine stress battery (ctest label: "stress"): a mixed batch --
// every decoder family, all three channels, deliberate duplicates and one
// poison job -- swept across pool sizes {1,2,8} x in-flight windows
// {1,4,unbounded} x result-cache {off,on}. Submission-order reports must
// stay identical to one-at-a-time sequential decodes in every
// deterministic field; the cached pass must also hit on the second run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "binarygt/binary_decoders.hpp"
#include "core/instance.hpp"
#include "core/serialize.hpp"
#include "engine/batch_engine.hpp"
#include "engine/result_cache.hpp"
#include "kernels/kernel_set.hpp"
#include "parallel/thread_pool.hpp"
#include "thresholdgt/threshold_decoder.hpp"

namespace pooled {
namespace {

constexpr std::uint32_t kN = 200;
constexpr std::uint32_t kK = 5;
constexpr std::uint32_t kM = 160;

DecodeJob channel_job(std::uint64_t seed, const std::string& decoder,
                      ChannelKind channel, std::uint32_t threshold,
                      ThreadPool& pool) {
  DesignParams params;
  params.n = kN;
  params.seed = seed;
  if (channel == ChannelKind::Binary) params.gamma = optimal_gt_gamma(kN, kK);
  if (channel == ChannelKind::Threshold) {
    params.gamma = threshold_gt_gamma(kN, kK, threshold);
  }
  const Signal truth = Signal::random(kN, kK, seed ^ 0xABCD);
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, kM, truth, pool,
                           channel, threshold);
  job.decoder = decoder;
  job.k = kK;
  job.truth_support.emplace(truth.support().begin(), truth.support().end());
  return job;
}

std::vector<DecodeJob> stress_jobs(ThreadPool& pool) {
  const std::vector<std::string> quantitative = {
      "mn",  "mn:multi-edge", "peeling",   "iht",
      "fista", "omp",         "random:17", "gt:threshold:2"};
  std::vector<DecodeJob> jobs;
  std::uint64_t seed = 1000;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& spec : quantitative) {
      jobs.push_back(
          channel_job(seed++, spec, ChannelKind::Quantitative, 1, pool));
    }
    jobs.push_back(channel_job(seed++, "gt:binary", ChannelKind::Binary, 1, pool));
    jobs.push_back(channel_job(seed++, "gt:comp", ChannelKind::Binary, 1, pool));
    jobs.push_back(
        channel_job(seed++, "gt:threshold:2", ChannelKind::Threshold, 2, pool));
  }
  // Duplicates: same spec+decoder+k submitted again, so a cache-enabled
  // run gets intra-batch repeats (and possibly concurrent same-key
  // misses, which the cache must absorb).
  jobs.push_back(jobs[0]);
  jobs.push_back(jobs[3]);
  jobs.push_back(jobs[8]);
  // Poison job: failures must stay positional and must never be cached.
  DecodeJob poison = jobs[1];
  poison.decoder = "no-such-decoder";
  jobs.push_back(poison);
  return jobs;
}

void expect_same_report(const DecodeReport& actual, const DecodeReport& expected,
                        const std::string& context) {
  EXPECT_EQ(actual.error.empty(), expected.error.empty()) << context;
  EXPECT_EQ(actual.decoder_name, expected.decoder_name) << context;
  EXPECT_EQ(actual.n, expected.n) << context;
  EXPECT_EQ(actual.k, expected.k) << context;
  EXPECT_EQ(actual.support, expected.support) << context;
  EXPECT_EQ(actual.consistent, expected.consistent) << context;
  EXPECT_EQ(actual.scored, expected.scored) << context;
  EXPECT_EQ(actual.exact, expected.exact) << context;
  EXPECT_EQ(actual.overlap, expected.overlap) << context;
}

TEST(BatchEngineStress, AllPoolsWindowsAndCacheModesMatchSequential) {
  ThreadPool build_pool(2);
  const std::vector<DecodeJob> jobs = stress_jobs(build_pool);

  // Sequential ground truth: each job decoded alone on a width-1 pool.
  ThreadPool sequential_pool(1);
  const BatchEngine sequential(sequential_pool);
  std::vector<DecodeReport> expected;
  expected.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    expected.push_back(sequential.run_one(jobs[j], j));
  }

  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (std::size_t window : {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
      for (const bool with_cache : {false, true}) {
        ResultCache cache(64);
        EngineOptions options;
        options.max_in_flight = window;
        options.cache = with_cache ? &cache : nullptr;
        const BatchEngine engine(pool, options);
        const std::string context_base = "threads=" + std::to_string(threads) +
                                         " window=" + std::to_string(window) +
                                         " cache=" + (with_cache ? "on" : "off");

        const int passes = with_cache ? 2 : 1;  // pass 2 serves from cache
        for (int pass = 0; pass < passes; ++pass) {
          const auto reports = engine.run(jobs);
          ASSERT_EQ(reports.size(), jobs.size());
          for (std::size_t j = 0; j < jobs.size(); ++j) {
            EXPECT_EQ(reports[j].index, j);
            expect_same_report(reports[j], expected[j],
                               context_base + " pass=" + std::to_string(pass) +
                                   " job=" + std::to_string(j));
          }
        }
        if (with_cache) {
          const CacheStats stats = cache.stats();
          // Second pass alone has jobs.size()-1 cacheable repeats (the
          // poison job never caches), plus the intra-batch duplicates.
          EXPECT_GE(stats.hits, jobs.size() - 1) << context_base;
          EXPECT_EQ(stats.size, stats.insertions) << context_base;
          EXPECT_EQ(stats.evictions, 0u) << context_base;
        }
      }
    }
  }
}

TEST(BatchEngineStress, ScalarKernelsMatchDispatchedReports) {
  // The same mixed batch decoded under POOLED_KERNELS=scalar semantics
  // (forced in-process) must produce byte-identical reports to the
  // dispatched SIMD kernels -- the engine-level half of the differential
  // guarantee in tests/test_kernels.cpp. CI additionally runs this whole
  // binary under POOLED_KERNELS=scalar, exercising the env override.
  ThreadPool build_pool(2);
  const std::vector<DecodeJob> jobs = stress_jobs(build_pool);
  ThreadPool pool(4);
  const BatchEngine engine(pool);

  const KernelSet& dispatched = active_kernels();
  const auto run_with = [&](const KernelSet& kernels) {
    const KernelSet& previous = set_active_kernels(kernels);
    auto reports = engine.run(jobs);
    set_active_kernels(previous);
    return reports;
  };
  const auto scalar_reports = run_with(*kernels_for(KernelIsa::Scalar));
  const auto dispatched_reports = run_with(dispatched);
  ASSERT_EQ(scalar_reports.size(), dispatched_reports.size());
  for (std::size_t j = 0; j < scalar_reports.size(); ++j) {
    expect_same_report(dispatched_reports[j], scalar_reports[j],
                       std::string("kernels=") +
                           kernel_isa_name(dispatched.isa) +
                           " job=" + std::to_string(j));
  }
}

TEST(BatchEngineStress, EvictionKeepsReportsCorrectUnderCapacityPressure) {
  ThreadPool pool(4);
  const std::vector<DecodeJob> jobs = stress_jobs(pool);
  const BatchEngine uncached(pool);
  const auto expected = uncached.run(jobs);

  ResultCache cache(3);  // far smaller than the distinct-job universe
  EngineOptions options;
  options.cache = &cache;
  const BatchEngine engine(pool, options);
  for (int pass = 0; pass < 3; ++pass) {
    const auto reports = engine.run(jobs);
    ASSERT_EQ(reports.size(), expected.size());
    for (std::size_t j = 0; j < reports.size(); ++j) {
      expect_same_report(reports[j], expected[j],
                         "evicting pass=" + std::to_string(pass) +
                             " job=" + std::to_string(j));
    }
  }
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.size, 3u);
}

}  // namespace
}  // namespace pooled
