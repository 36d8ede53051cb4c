// The centralized protocol size limits (engine/protocol.hpp,
// namespace pooled::limits): every bound must reject over-limit input
// with a ContractError *before* committing resources -- no giant
// allocation, no unbounded accumulation, no infinite deadline -- and
// must not bite legitimate frames anywhere near realistic sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "core/serialize.hpp"
#include "engine/protocol.hpp"
#include "engine/serve_server.hpp"
#include "engine/serve_session.hpp"
#include "engine/socket_transport.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

std::string tiny_job_frame() {
  // One `end` line: the embedded instance block's terminator closes the
  // whole job frame (see load_job_body).
  return
      "pooled-job v1\ndecoder mn\nk 3\ninstance\n"
      "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n"
      "gamma 5\np 0.5\nm 2\ny 1 2\nend\n";
}

TEST(ProtocolLimits, ResultLimitIsTheCoreSerializeConstant) {
  // engine/protocol.hpp re-exports the core constant so the m guard in
  // core/serialize.cpp and the documented protocol limit cannot drift.
  EXPECT_EQ(limits::kMaxResults, kMaxInstanceResults);
}

TEST(ProtocolLimits, OverlongLineIsRejectedNotBuffered) {
  std::string frame = "pooled-job v1\ndecoder ";
  frame.append(limits::kMaxLineBytes + 10, 'a');
  frame += "\nend\n";
  std::istringstream is(frame);
  try {
    (void)load_job(is);
    FAIL() << "overlong line was accepted";
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what()).find("byte limit"), std::string::npos);
  }
}

TEST(ProtocolLimits, MClaimAboveLimitIsRejectedEvenWithDataPresent) {
  // The guard fires on the claimed m itself, not on missing data: a
  // frame that really does carry y values still gets rejected.
  std::ostringstream frame;
  frame << "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n"
        << "m " << (static_cast<std::uint64_t>(limits::kMaxResults) + 1)
        << "\ny";
  for (int i = 0; i < 64; ++i) frame << " 1";
  frame << "\nend\n";
  std::istringstream is(frame.str());
  try {
    (void)load_instance(is);
    FAIL() << "over-limit m claim was accepted";
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what()).find("exceeds the limit"),
              std::string::npos);
  }
}

TEST(ProtocolLimits, TruthSupportEntriesAreCapped) {
  // A truth line with more entries than any instance can legally have
  // (limits::kMaxSupportEntries) stops accumulating and rejects.
  std::ostringstream frame;
  frame << "pooled-job v1\ndecoder mn\nk 3\ntruth";
  for (std::size_t i = 0; i <= limits::kMaxSupportEntries; ++i) {
    frame << ' ' << (i % 1000);
  }
  frame << "\nend\n";
  std::istringstream is(frame.str());
  EXPECT_THROW((void)load_job(is), ContractError);
}

TEST(ProtocolLimits, InstanceBlockAccumulationIsBounded) {
  // Each embedded line is under the line limit, but the block as a whole
  // must not buffer past kMaxInstanceBlockBytes while hunting for `end`.
  std::ostringstream frame;
  frame << "pooled-job v1\ndecoder mn\nk 3\ninstance\n"
        << "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n";
  const std::string filler(1 << 16, 'x');
  std::size_t written = 0;
  while (written <= limits::kMaxInstanceBlockBytes) {
    frame << filler << '\n';
    written += filler.size() + 1;
  }
  frame << "end\nend\n";
  std::istringstream is(frame.str());
  try {
    (void)load_job(is);
    FAIL() << "unbounded instance block was accepted";
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what()).find("instance block"),
              std::string::npos);
  }
}

TEST(ProtocolLimits, NonFiniteDeadlinesAreRejected) {
  for (const char* deadline : {"inf", "-inf", "nan", "1e999"}) {
    std::istringstream is(std::string("pooled-job v2\ndecoder mn\nk 3\n"
                                      "deadline-ms ") +
                          deadline + "\nend\n");
    EXPECT_THROW((void)load_job(is), ContractError) << deadline;
  }
  // A finite deadline stays accepted.
  std::istringstream is(
      "pooled-job v2\ndecoder mn\nk 3\ndeadline-ms 1500\ninstance\n"
      "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n"
      "gamma 5\np 0.5\nm 2\ny 1 2\nend\n");
  const auto job = load_job(is);
  ASSERT_TRUE(job.has_value());
  ASSERT_TRUE(job->deadline_seconds.has_value());
  EXPECT_DOUBLE_EQ(*job->deadline_seconds, 1.5);
}

/// A slow head job (a deadline-capped noisy adaptive decode whose OMP
/// inner re-decodes the whole prefix every round) and then more tiny
/// frames than two clamped windows hold: while the head job decodes, the
/// reader parses ahead until the queue bound stops it.
std::string clamp_probe_stream(std::size_t tiny_frames) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = 600;
  params.seed = 43;
  DecodeJob head;
  head.spec = simulate_spec(DesignKind::RandomRegular, params, 600,
                            Signal::random(600, 6, 43), pool);
  head.decoder = "adaptive:omp:L=1";
  head.k = 6;
  head.noise = NoiseModel::symmetric(0.3, 11);
  head.deadline_seconds = 0.3;
  std::ostringstream stream;
  save_job(stream, head);
  for (std::size_t i = 0; i < tiny_frames; ++i) stream << tiny_job_frame();
  return stream.str();
}

TEST(ProtocolLimits, ServeStreamClampsTheJobWindow) {
  // An absurd engine window is clamped to kMaxJobsPerWindow on both
  // transports instead of letting one stream park every parsed frame:
  // the parsed-job queue never holds more than two clamped windows, and
  // every frame is still served.
  const std::size_t jobs = 2 * limits::kMaxJobsPerWindow + 64;
  const std::string requests = clamp_probe_stream(jobs - 1);
  EngineOptions unbounded;
  unbounded.max_in_flight = std::numeric_limits<std::size_t>::max();
  const auto check = [&](const BatchEngine& engine, std::istream& responses) {
    std::size_t reports = 0;
    while (const auto report = load_report(responses)) {
      EXPECT_EQ(report->index, reports);
      ++reports;
    }
    EXPECT_EQ(reports, jobs);
    const MetricsSnapshot snapshot = serve_snapshot(engine);
    EXPECT_EQ(snapshot.counter_value("serve.jobs_served"), jobs);
    const MetricValue* depth = snapshot.find("serve.queue_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_LE(depth->peak,
              static_cast<std::int64_t>(2 * limits::kMaxJobsPerWindow));
  };
  {
    ThreadPool pool(2);
    const BatchEngine engine(pool, unbounded);
    std::istringstream in(requests);
    std::stringstream out;
    EXPECT_TRUE(ServeSession(in, out, engine).run());
    check(engine, out);
  }
  {
    ThreadPool pool(2);
    const BatchEngine engine(pool, unbounded);
    ServeServer server(
        ListenSocket::bind_and_listen(SocketAddress::parse("127.0.0.1:0")),
        engine);
    server.start();
    SocketStream client(Socket::dial(server.address()));
    std::thread writer([&] {
      client.out() << requests;
      client.out().flush();
      client.socket().shutdown_write();
    });
    check(engine, client.in());
    writer.join();
    server.stop();
  }
}

TEST(ProtocolLimits, RealisticFramesAreNowhereNearTheLimits) {
  // Sanity guard on the limit values themselves: a maximal legitimate y
  // row (kMaxResults ten-digit values) must fit in one line.
  EXPECT_GE(limits::kMaxLineBytes,
            static_cast<std::size_t>(limits::kMaxResults) * 11 + 4);
  EXPECT_GT(limits::kMaxInstanceBlockBytes, limits::kMaxLineBytes);
  EXPECT_GE(limits::kMaxJobsPerWindow, std::size_t{1024});
}

}  // namespace
}  // namespace pooled
