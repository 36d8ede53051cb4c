// Robustness battery for the engine wire protocol: malformed frames must
// produce clean ContractErrors (or a clean end-of-stream), never crashes,
// hangs, or giant allocations. The deterministic fuzz-style sweeps
// (truncation at every byte offset, per-byte corruption, garbage
// streams) run through fuzz/harness_protocol.cpp -- the same entry point
// the libFuzzer binary drives -- so they also get the round-trip
// fixed-point property for free; the hand-written malformed frames those
// sweeps grew out of now live as corpus seeds under
// fuzz/corpora/protocol/, which this suite replays. Targeted cases that
// assert *rejection* (not just survival) stay as explicit EXPECT_THROWs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "core/serialize.hpp"
#include "engine/protocol.hpp"
#include "engine/registry.hpp"
#include "engine/serve_session.hpp"
#include "harnesses.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

DecodeJob sample_job(std::uint64_t seed = 5) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = 60;
  params.seed = seed;
  const Signal truth = Signal::random(60, 3, seed ^ 0xF0);
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, 40, truth, pool);
  job.decoder = "mn";
  job.k = 3;
  job.truth_support.emplace(truth.support().begin(), truth.support().end());
  return job;
}

std::string serialized_job(std::uint64_t seed = 5) {
  std::ostringstream os;
  save_job(os, sample_job(seed));
  return os.str();
}

std::string serialized_report() {
  DecodeReport report;
  report.index = 3;
  report.decoder_name = "mn";
  report.n = 60;
  report.k = 3;
  report.support = {1, 17, 42};
  report.consistent = true;
  report.scored = true;
  report.overlap = 1.0 / 3.0;
  report.seconds = 0.5;
  std::ostringstream os;
  save_report(os, report);
  return os.str();
}

/// Feeds bytes to the protocol fuzz harness: every loader must either
/// parse, report clean end-of-stream, or throw ContractError, and every
/// successful parse must be a serialization fixed point. Anything else
/// (std::bad_alloc, segfault, hang, unstable bytes) aborts the suite.
void survive(const std::string& bytes) {
  (void)fuzz::fuzz_protocol(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                            bytes.size());
}

/// xorshift64 so the "random" garbage is identical on every run.
std::uint64_t next_rng(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

TEST(ProtocolRobustness, JobSurvivesTruncationAtEveryByte) {
  const std::string frame = serialized_job();
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    survive(frame.substr(0, cut));
  }
}

TEST(ProtocolRobustness, ReportSurvivesTruncationAtEveryByte) {
  const std::string frame = serialized_report();
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    survive(frame.substr(0, cut));
  }
}

TEST(ProtocolRobustness, JobSurvivesSingleByteCorruption) {
  const std::string frame = serialized_job();
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    for (char garbage : {'\0', 'z', '9', '-', '\n'}) {
      std::string mutated = frame;
      mutated[pos] = garbage;
      survive(mutated);
    }
  }
}

TEST(ProtocolRobustness, ReportSurvivesSingleByteCorruption) {
  const std::string frame = serialized_report();
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    std::string mutated = frame;
    mutated[pos] = '!';
    survive(mutated);
  }
}

TEST(ProtocolRobustness, GarbageStreamsNeverCrash) {
  std::uint64_t rng = 0x5EED;
  for (int round = 0; round < 200; ++round) {
    const std::size_t length = next_rng(rng) % 300;
    std::string garbage;
    garbage.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(next_rng(rng) % 256));
    }
    survive(garbage);
  }
}

TEST(ProtocolRobustness, CorpusSeedsReplayThroughTheHarness) {
  // The checked-in protocol corpus (golden-fixture splits plus the
  // hand-written malformed frames this suite used to inline) must stay
  // green through the harness; fuzz-found regressions are pinned by
  // committing their minimized entry here.
  const std::filesystem::path corpus =
      std::filesystem::path(POOLED_FUZZ_CORPUS_DIR) / "protocol";
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << entry.path();
    std::ostringstream bytes;
    bytes << in.rdbuf();
    SCOPED_TRACE(entry.path().string());
    survive(bytes.str());
    ++entries;
  }
  EXPECT_GE(entries, 30u);  // the corpus must not silently vanish
}

TEST(ProtocolRobustness, MissingEndTerminatorIsARejectionNotAHang) {
  std::string frame = serialized_job();
  const auto end_pos = frame.rfind("end\n");
  ASSERT_NE(end_pos, std::string::npos);
  frame.erase(end_pos);
  std::istringstream is(frame);
  EXPECT_THROW((void)load_job(is), ContractError);

  std::string report_frame = serialized_report();
  const auto report_end = report_frame.rfind("end\n");
  ASSERT_NE(report_end, std::string::npos);
  report_frame.erase(report_end);
  std::istringstream report_is(report_frame);
  EXPECT_THROW((void)load_report(report_is), ContractError);
}

TEST(ProtocolRobustness, OversizedMClaimFailsWithoutGiantAllocation) {
  // A header claiming 4 billion results must fail on the m limit itself
  // (limits::kMaxResults), not attempt a ~16 GB allocation.
  std::istringstream is(
      "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n"
      "m 4000000000\ny 1 2 3\n");
  EXPECT_THROW((void)load_instance(is), ContractError);
}

TEST(ProtocolRobustness, OversizedNumericFieldsAreRejected) {
  {
    std::istringstream is("pooled-job v1\nk 99999999999999999999\n");
    EXPECT_THROW((void)load_job(is), ContractError);
  }
  {
    std::istringstream is(
        "pooled-instance v1\ndesign random-regular\nn 99999999999999999999\n");
    EXPECT_THROW((void)load_instance(is), ContractError);
  }
}

TEST(ProtocolRobustness, RejectsOneBitChannelWithCountResults) {
  // Channel/value mismatches surface when the instance is rebuilt.
  std::istringstream is(
      "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n"
      "channel binary\nm 2\ny 3 1\n");
  const InstanceSpec spec = load_instance(is);
  EXPECT_THROW((void)spec.to_instance(), ContractError);
}

TEST(ProtocolRobustness, ServeStreamRejectsGarbageWithoutServingJunk) {
  ThreadPool pool(1);
  const BatchEngine engine(pool);
  std::istringstream requests("total nonsense\nnot a frame\n");
  std::stringstream responses;
  EXPECT_FALSE(ServeSession(requests, responses, engine).run());
  // The only frame is the stream's final protocol error.
  const auto report = load_report(responses);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->index, 0u);
  EXPECT_NE(report->error.find("protocol error"), std::string::npos)
      << report->error;
  EXPECT_FALSE(load_report(responses).has_value());
}

TEST(ProtocolRobustness, ServeStreamServesValidPrefixThenRejects) {
  ThreadPool pool(1);
  const BatchEngine engine(pool);
  std::istringstream requests(serialized_job() + "pooled-job v1\ngarbage 1\n");
  std::stringstream responses;
  EXPECT_FALSE(ServeSession(requests, responses, engine).run());
  const auto report = load_report(responses);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->ok()) << report->error;
  const auto failure = load_report(responses);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->index, 1u);
  EXPECT_EQ(failure->error.rfind("protocol error: ", 0), 0u) << failure->error;
  EXPECT_NE(failure->error.find("unknown job field 'garbage'"),
            std::string::npos)
      << failure->error;
  EXPECT_FALSE(load_report(responses).has_value());
}

TEST(ProtocolRobustness, BlankLinesAndWhitespaceFramingAreTolerated) {
  const std::string frame = "\n\n" + serialized_job() + "\n\n" + serialized_job(6);
  std::istringstream is(frame);
  EXPECT_TRUE(load_job(is).has_value());
  EXPECT_TRUE(load_job(is).has_value());
  EXPECT_FALSE(load_job(is).has_value());
}

}  // namespace
}  // namespace pooled
