// Protocol v1 -> v2 compatibility against golden fixtures.
//
// tests/data/golden_v1_requests.txt and golden_v1_responses.txt were
// produced by the PR-2 binary (protocol v1) and checked in verbatim:
// three jobs -- mn and gt:binary scored against their truths, plus an
// unscored peeling job -- and the exact result frames v1 serving wrote
// for them. The tests pin the compatibility contract: a v1 stream loads
// with v1 semantics (no noise, no caps), decodes to byte-identical
// supports, and mixes freely with v2 frames in one serve stream.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/serve_session.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(POOLED_TEST_DATA_DIR) + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream is(fixture_path(name));
  EXPECT_TRUE(static_cast<bool>(is)) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

std::vector<DecodeJob> load_all_jobs(std::istream& is) {
  std::vector<DecodeJob> jobs;
  while (auto job = load_job(is)) jobs.push_back(std::move(*job));
  return jobs;
}

std::vector<DecodeReport> load_all_reports(std::istream& is) {
  std::vector<DecodeReport> reports;
  while (auto report = load_report(is)) reports.push_back(std::move(*report));
  return reports;
}

/// Serves `requests` through one stdin-style session; returns the
/// engine's serve.jobs_served count.
std::uint64_t serve(std::istream& requests, std::ostream& responses,
                    const BatchEngine& engine) {
  EXPECT_TRUE(ServeSession(requests, responses, engine).run());
  return serve_snapshot(engine).counter_value("serve.jobs_served");
}

TEST(ProtocolCompat, GoldenV1RequestsLoadWithV1Semantics) {
  std::istringstream stream(read_fixture("golden_v1_requests.txt"));
  const auto jobs = load_all_jobs(stream);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].decoder, "mn");
  EXPECT_EQ(jobs[1].decoder, "gt:binary");
  EXPECT_EQ(jobs[2].decoder, "peeling");
  for (const DecodeJob& job : jobs) {
    EXPECT_EQ(job.k, 4u);
    ASSERT_TRUE(job.spec.has_value());
    // v1 carries no decode options: everything defaults.
    EXPECT_FALSE(job.noise.enabled());
    EXPECT_EQ(job.rounds, 0u);
    EXPECT_EQ(job.budget, 0u);
    EXPECT_FALSE(job.deadline_seconds.has_value());
  }
  EXPECT_TRUE(jobs[0].truth_support.has_value());
  EXPECT_TRUE(jobs[1].truth_support.has_value());
  EXPECT_FALSE(jobs[2].truth_support.has_value());
}

TEST(ProtocolCompat, GoldenV1ResponsesLoadWithDefaultDiagnostics) {
  std::istringstream stream(read_fixture("golden_v1_responses.txt"));
  const auto reports = load_all_reports(stream);
  ASSERT_EQ(reports.size(), 3u);
  for (const DecodeReport& report : reports) {
    EXPECT_TRUE(report.ok()) << report.error;
    // v1 frames have no diagnostics: the defaults stand in.
    EXPECT_EQ(report.rounds, 1u);
    EXPECT_EQ(report.queries, 0u);
    EXPECT_EQ(report.stop, StopReason::Completed);
  }
  EXPECT_EQ(reports[0].decoder_name, "mn");
  EXPECT_EQ(reports[1].decoder_name, "gt-dd");
  EXPECT_EQ(reports[2].decoder_name, "peeling");
}

TEST(ProtocolCompat, GoldenV1JobsDecodeByteIdentically) {
  // Serving the archived v1 requests must reproduce the archived v1
  // results field for field (seconds excepted -- it is wall time).
  std::istringstream requests(read_fixture("golden_v1_requests.txt"));
  ThreadPool pool(1);
  std::stringstream responses;
  EXPECT_EQ(serve(requests, responses, BatchEngine(pool)), 3u);
  const auto now = load_all_reports(responses);

  std::istringstream golden_stream(read_fixture("golden_v1_responses.txt"));
  const auto golden = load_all_reports(golden_stream);
  ASSERT_EQ(now.size(), golden.size());
  for (std::size_t j = 0; j < golden.size(); ++j) {
    EXPECT_TRUE(now[j].ok()) << now[j].error;
    EXPECT_EQ(now[j].index, golden[j].index);
    EXPECT_EQ(now[j].decoder_name, golden[j].decoder_name);
    EXPECT_EQ(now[j].n, golden[j].n);
    EXPECT_EQ(now[j].k, golden[j].k);
    EXPECT_EQ(now[j].support, golden[j].support) << "job " << j;
    EXPECT_EQ(now[j].consistent, golden[j].consistent);
    EXPECT_EQ(now[j].scored, golden[j].scored);
    EXPECT_EQ(now[j].exact, golden[j].exact);
    EXPECT_EQ(now[j].overlap, golden[j].overlap);
  }
}

TEST(ProtocolCompat, MixedV1AndV2StreamsServeTogether) {
  // A v2 client and an archived v1 batch share one connection: frames of
  // both versions interleave on the request stream.
  std::string mixed = read_fixture("golden_v1_requests.txt");
  {
    std::istringstream v1(mixed);
    auto jobs = load_all_jobs(v1);
    DecodeJob v2_job = jobs[0];          // same instance, v2 options
    v2_job.decoder = "adaptive:mn:L=8";  // round-based, reports trajectory
    std::ostringstream tail;
    save_job(tail, v2_job);
    mixed += tail.str();
  }
  std::istringstream requests(mixed);
  ThreadPool pool(2);
  std::stringstream responses;
  EXPECT_EQ(serve(requests, responses, BatchEngine(pool)), 4u);
  const auto reports = load_all_reports(responses);
  ASSERT_EQ(reports.size(), 4u);
  for (std::size_t j = 0; j < reports.size(); ++j) {
    EXPECT_TRUE(reports[j].ok()) << reports[j].error;
    EXPECT_EQ(reports[j].index, j);
  }
  // The v1 mn job and the v2 adaptive job decode the same instance; both
  // recover the same support, the adaptive one with a real trajectory.
  EXPECT_EQ(reports[3].support, reports[0].support);
  EXPECT_GE(reports[3].rounds, 1u);
  EXPECT_GT(reports[3].queries, 0u);
}

TEST(ProtocolCompat, RoundTrippedV1JobsReserializeAsV2) {
  // Loading a v1 frame and saving it again upgrades the wire format
  // without changing the job's meaning.
  std::istringstream stream(read_fixture("golden_v1_requests.txt"));
  const auto jobs = load_all_jobs(stream);
  std::stringstream reserialized;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    save_job(reserialized, jobs[j], j);
  }
  const std::string text = reserialized.str();
  EXPECT_NE(text.find("pooled-job v2"), std::string::npos);
  EXPECT_EQ(text.find("pooled-job v1"), std::string::npos);
  std::istringstream reparse(text);
  const auto again = load_all_jobs(reparse);
  ASSERT_EQ(again.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(again[j].decoder, jobs[j].decoder);
    EXPECT_EQ(again[j].k, jobs[j].k);
    EXPECT_EQ(again[j].spec->y, jobs[j].spec->y);
    EXPECT_EQ(again[j].truth_support, jobs[j].truth_support);
  }
}

// ---- golden v2 fixtures: the writer format is pinned byte for byte ----
//
// tests/data/golden_v2_requests.txt carries every v2 job option at once
// (noise + deadline-ms + rounds + budget + seed) plus a seed-only job;
// golden_v2_responses.txt carries a full-diagnostics frame and an error
// frame. load -> save must reproduce the files exactly: any drift in
// field order, spelling, or float formatting breaks archived streams.

TEST(ProtocolCompat, GoldenV2RequestsLoadWithEveryOption) {
  std::istringstream stream(read_fixture("golden_v2_requests.txt"));
  const auto jobs = load_all_jobs(stream);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].decoder, "adaptive:mn:L=8");
  EXPECT_EQ(jobs[0].k, 4u);
  ASSERT_TRUE(jobs[0].truth_support.has_value());
  EXPECT_TRUE(jobs[0].noise.enabled());
  EXPECT_DOUBLE_EQ(jobs[0].noise.level, 0.05);
  EXPECT_EQ(jobs[0].noise.seed, 7u);
  ASSERT_TRUE(jobs[0].deadline_seconds.has_value());
  EXPECT_DOUBLE_EQ(*jobs[0].deadline_seconds, 0.25);
  EXPECT_EQ(jobs[0].rounds, 12u);
  EXPECT_EQ(jobs[0].budget, 96u);
  EXPECT_EQ(jobs[0].rng_seed, 9181u);

  EXPECT_EQ(jobs[1].decoder, "random");
  EXPECT_EQ(jobs[1].rng_seed, 42u);
  EXPECT_FALSE(jobs[1].noise.enabled());
  EXPECT_FALSE(jobs[1].deadline_seconds.has_value());
}

TEST(ProtocolCompat, GoldenV2RequestsReserializeByteIdentically) {
  const std::string golden = read_fixture("golden_v2_requests.txt");
  std::istringstream stream(golden);
  const auto jobs = load_all_jobs(stream);
  ASSERT_EQ(jobs.size(), 2u);
  std::ostringstream reserialized;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    save_job(reserialized, jobs[j], j);
  }
  EXPECT_EQ(reserialized.str(), golden);
}

TEST(ProtocolCompat, GoldenV2ResponsesReserializeByteIdentically) {
  const std::string golden = read_fixture("golden_v2_responses.txt");
  std::istringstream stream(golden);
  const auto reports = load_all_reports(stream);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(reports[0].rounds, 3u);
  EXPECT_EQ(reports[0].queries, 24u);
  EXPECT_EQ(reports[0].stop, StopReason::Converged);
  EXPECT_DOUBLE_EQ(reports[0].seconds, 0.001953125);
  EXPECT_FALSE(reports[1].ok());
  EXPECT_NE(reports[1].error.find("unknown decoder spec"), std::string::npos);
  std::ostringstream reserialized;
  for (const DecodeReport& report : reports) save_report(reserialized, report);
  EXPECT_EQ(reserialized.str(), golden);
}

// ---- v2 stats exchange: the observability frame is pinned too ---------
//
// tests/data/golden_v2_stats.txt carries one snapshot with every metric
// kind (counters, gauges with peaks, a label, histograms) using dyadic
// doubles, so load -> save must reproduce the file byte for byte.

TEST(ProtocolCompat, GoldenV2StatsReserializeByteIdentically) {
  const std::string golden = read_fixture("golden_v2_stats.txt");
  std::istringstream stream(golden);
  const auto snapshot = load_stats_snapshot(stream);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->counter_value("serve.jobs_served"), 128u);
  EXPECT_EQ(snapshot->counter_value("serve.write_failures"), 1u);
  EXPECT_EQ(snapshot->gauge_value("serve.connections_active"), 2);
  const MetricValue* queue = snapshot->find("serve.queue_depth");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->peak, 17);
  const MetricValue* job_seconds = snapshot->find("serve.job_seconds");
  ASSERT_NE(job_seconds, nullptr);
  EXPECT_EQ(job_seconds->hist.count, 128u);
  EXPECT_DOUBLE_EQ(job_seconds->hist.p99, 0.25);
  EXPECT_EQ(snapshot->find("build.kernels")->label, "avx2");

  std::ostringstream reserialized;
  save_stats_snapshot(reserialized, *snapshot);
  EXPECT_EQ(reserialized.str(), golden);
  EXPECT_FALSE(load_stats_snapshot(stream).has_value());  // clean EOF
}

TEST(ProtocolCompat, StatsRequestFrameRoundTripsThroughLoadRequest) {
  std::ostringstream request;
  save_stats_request(request);
  EXPECT_EQ(request.str(), "pooled-stats v2\nend\n");

  std::istringstream stream(request.str());
  const auto parsed = load_request(stream);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::holds_alternative<StatsRequest>(*parsed));
  EXPECT_FALSE(load_request(stream).has_value());  // clean EOF

  // load_job stays the job-only reader: a stats frame is a hard error
  // there, not a silently-skipped message.
  std::istringstream job_only(request.str());
  EXPECT_THROW((void)load_job(job_only), ContractError);
}

TEST(ProtocolCompat, StatsFramesRequireProtocolV2) {
  std::istringstream v1("pooled-stats v1\nend\n");
  EXPECT_THROW((void)load_request(v1), ContractError);
}

TEST(ProtocolCompat, GoldenDrainRequestRoundTripsByteIdentical) {
  const std::string golden = read_fixture("golden_v2_drain_request.txt");
  std::ostringstream request;
  save_drain_request(request);
  EXPECT_EQ(request.str(), golden);

  std::istringstream stream(golden);
  const auto parsed = load_request(stream);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::holds_alternative<DrainRequest>(*parsed));
  EXPECT_FALSE(load_request(stream).has_value());  // clean EOF

  // load_job stays the job-only reader: a drain frame is a hard error
  // there, same as stats.
  std::istringstream job_only(golden);
  EXPECT_THROW((void)load_job(job_only), ContractError);
}

TEST(ProtocolCompat, GoldenDrainSummaryRoundTripsByteIdentical) {
  const std::string golden = read_fixture("golden_v2_drain_summary.txt");
  std::istringstream stream(golden);
  const std::optional<DrainSummary> summary = load_drain_summary(stream);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->jobs_served, 128u);
  EXPECT_EQ(summary->cache_entries, 28u);
  EXPECT_TRUE(summary->snapshot_written);
  EXPECT_EQ(summary->write_failures, 1u);
  EXPECT_FALSE(load_drain_summary(stream).has_value());  // clean EOF

  std::ostringstream reserialized;
  save_drain_summary(reserialized, *summary);
  EXPECT_EQ(reserialized.str(), golden);

  // The response reader dispatches the same bytes to the summary arm.
  std::istringstream as_response(golden);
  const auto response = load_response(as_response);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(std::holds_alternative<DrainSummary>(*response));
}

TEST(ProtocolCompat, DrainFramesRequireProtocolV2) {
  std::istringstream request_v1("pooled-drain v1\nend\n");
  EXPECT_THROW((void)load_request(request_v1), ContractError);
  std::istringstream summary_v1(
      "pooled-drain-result v1\nstatus ok\njobs-served 0\ncache-entries 0\n"
      "snapshot-written 0\nwrite-failures 0\nend\n");
  EXPECT_THROW((void)load_drain_summary(summary_v1), ContractError);
}

}  // namespace
}  // namespace pooled
