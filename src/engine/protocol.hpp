// Request/response text protocol for the decoding engine (v2).
//
// Layered on core/serialize: a request embeds the standard instance
// format, so anything `pooled_cli simulate` writes can be wrapped into a
// job. Both directions are newline-delimited and `end`-framed, so many
// messages concatenate into one stream (file, pipe, or socket later).
//
// Request:                         Response:
//   pooled-job v2                    pooled-result v2
//   decoder adaptive:mn:L=16         job 0
//   k 16                             status ok
//   truth 3 17 42    (optional)      decoder adaptive-mn-L16
//   noise sym 0.05 7 (optional)      n 1000
//   deadline-ms 250  (optional)      k 16
//   rounds 32        (optional)      seconds 0.00123
//   budget 4096      (optional)      consistent 1
//   seed 9181        (optional)      rounds 3
//   instance                         queries 48
//   pooled-instance v1               stop converged
//   design random-regular            support 3 17 42
//   ...                              exact 1       (only when truth given)
//   y 12 9 14                        overlap 1     (only when truth given)
//   end                              end
//
// Writers emit v2; readers accept v1 frames (the PR-2 format) unchanged:
// a v1 job decodes exactly as before (no noise, no caps) and a v1 result
// defaults the diagnostics (rounds 1, queries 0, stop completed). The
// v2-only fields are rejected inside a v1 frame -- an archived v1 stream
// either parses with v1 semantics or fails loudly, never half-and-half.
//
// A failed job reports `status error <message>` and omits the result
// fields.
//
// v2 also defines an out-of-band `stats` exchange (observability):
//
//   Request:            Response:
//     pooled-stats v2     pooled-stats-result v2
//     end                 status ok
//                         counter serve.jobs_served 128
//                         gauge serve.queue_depth 3 peak 17
//                         label build.kernels avx2
//                         hist serve.job_seconds count 128 sum ... p99 ...
//                         end
//
// The body is one metric per line in the obs/metrics.hpp wire format,
// and the snapshot round-trips byte-for-byte (doubles at precision 17).
// Servers answer a stats frame immediately, out of band of the job
// pipeline: it never consumes a job index.
//
// v2 also defines the graceful-shutdown `drain` exchange (rolling
// restarts):
//
//   Request:            Response:
//     pooled-drain v2     pooled-drain-result v2
//     end                 status ok
//                         jobs-served 128
//                         cache-entries 37
//                         snapshot-written 1
//                         write-failures 0
//                         end
//
// A drain tells the server: stop accepting new jobs, finish every
// in-flight window, snapshot the result cache to disk, answer with this
// summary, and exit cleanly. Like stats frames, drain frames are
// v2-only -- a v1 stream cannot half-understand a shutdown request.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <variant>

#include "core/serialize.hpp"
#include "engine/batch_engine.hpp"
#include "obs/metrics.hpp"
#include "support/thread_annotations.hpp"

namespace pooled {

/// Size limits every wire parser enforces, named in one place so the
/// server, the fuzz harnesses, and the documentation agree on what
/// "oversized" means. Frames over these limits are rejected with a
/// ContractError before the parser commits memory to them.
namespace limits {

/// Longest single protocol line. The dominating legitimate line is an
/// instance's `y` row: kMaxResults values of up to 10 digits plus
/// separators (~12 MiB), so 16 MiB leaves headroom while still bounding
/// what one line can make the reader buffer.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 24;

/// Most query results (`m`) one instance may carry -- the same constant
/// core/serialize.cpp enforces when loading the embedded instance block,
/// re-exported so protocol-level code names one authority.
inline constexpr std::uint32_t kMaxResults = kMaxInstanceResults;

/// Most entries a `truth` or `support` line may list. A support is a
/// subset of an instance's columns, and instances are bounded elsewhere;
/// anything above this is an attack, not an experiment.
inline constexpr std::size_t kMaxSupportEntries = std::size_t{1} << 20;

/// Total bytes of an embedded `instance` block inside a job frame
/// (header lines plus the y row), bounding what load_job buffers for
/// one frame: kMaxLineBytes for the y row plus slack for the rest.
inline constexpr std::size_t kMaxInstanceBlockBytes =
    kMaxLineBytes + (std::size_t{1} << 16);

/// Most jobs a serve window may buffer before decoding. ServeSession
/// clamps its window to this on every transport, so a misconfigured (or
/// hostile) window cannot make the server hold unbounded
/// parsed-but-unscheduled jobs.
inline constexpr std::size_t kMaxJobsPerWindow = 4096;

}  // namespace limits

/// Thread-safe per-round progress reporting for serve mode: one stream
/// shared by every in-flight job, each job writing lines tagged with its
/// global index ("progress job=3 round=2 queries=32"). Socket
/// connections additionally tag the connection ("progress conn=2 job=0
/// ..."), since each connection numbers its jobs from zero.
/// `pooled_cli serve --progress` points one at stderr so long adaptive
/// decodes are observable while the result frame is still pending.
class ProgressStream {
 public:
  explicit ProgressStream(std::ostream& os) : os_(os) {}

  /// `connection` 0 = untagged (stdin serve).
  void emit(std::uint64_t connection, std::size_t job_index,
            std::uint32_t round, std::uint64_t queries);

  /// Sink tagging every round callback with one job's global index (and
  /// its connection, under the socket server). Value type so a session
  /// can hold one per job of a window; the ProgressStream must outlive
  /// it.
  class JobSink final : public DecodeStatsSink {
   public:
    JobSink(ProgressStream& owner, std::uint64_t connection,
            std::size_t job_index)
        : owner_(&owner), connection_(connection), job_index_(job_index) {}
    void on_round(std::uint32_t round, std::uint64_t queries_so_far) override {
      owner_->emit(connection_, job_index_, round, queries_so_far);
    }

   private:
    ProgressStream* owner_;
    std::uint64_t connection_;
    std::size_t job_index_;
  };

  [[nodiscard]] JobSink connection_sink(std::uint64_t connection,
                                        std::size_t job_index) {
    return JobSink(*this, connection, job_index);
  }

 private:
  AnnotatedMutex mutex_;  ///< one progress line at a time
  std::ostream& os_;  ///< writes serialize on mutex_ (annotation-free:
                      ///< a reference cannot be PT_GUARDED_BY)
};

/// Writes one request. Only spec-backed jobs serialize (prebuilt or
/// lazily-built instances and decoder overrides have no textual form);
/// throws ContractError naming the job's decoder (and `index`, when the
/// caller supplies its position in the batch) otherwise.
void save_job(std::ostream& os, const DecodeJob& job,
              std::optional<std::size_t> index = std::nullopt);

/// Reads the next request; std::nullopt at (clean) end of stream.
/// Throws ContractError on malformed input.
std::optional<DecodeJob> load_job(std::istream& is);

/// Writes one response frame.
void save_report(std::ostream& os, const DecodeReport& report);

/// Reads the next response; std::nullopt at (clean) end of stream.
std::optional<DecodeReport> load_report(std::istream& is);

/// A `pooled-stats` request frame: "send me a metrics snapshot". No
/// payload; the frame is just the header plus `end`.
struct StatsRequest {};

/// A `pooled-drain` request frame: "stop accepting jobs, finish what is
/// in flight, snapshot the cache, answer a summary, exit". No payload.
struct DrainRequest {};

/// The `pooled-drain-result` answer: what the server flushed before
/// shutting down. The shard router reads one to decide a drained shard
/// parked cleanly (vs died), and operators read it to know the hot set
/// reached disk.
struct DrainSummary {
  std::uint64_t jobs_served = 0;     ///< result frames delivered, lifetime
  std::uint64_t cache_entries = 0;   ///< entries in the final snapshot
  bool snapshot_written = false;     ///< the final snapshot reached disk
  std::uint64_t write_failures = 0;  ///< frames lost to dead peers, lifetime
};

/// Anything a client may send on a serve connection.
using ServeRequest = std::variant<DecodeJob, StatsRequest, DrainRequest>;

/// Anything a server may send back on a serve connection: result frames
/// in job order, stats-result / drain-result frames out of band between
/// them.
using ServeResponse = std::variant<DecodeReport, MetricsSnapshot, DrainSummary>;

/// Reads the next response of either kind; std::nullopt at (clean) end
/// of stream. Throws ContractError on malformed input. The shard
/// router's per-shard readers need this: a stats probe's answer may
/// arrive interleaved anywhere between result frames.
std::optional<ServeResponse> load_response(std::istream& is);

/// Reads the next request of either kind; std::nullopt at (clean) end of
/// stream. Throws ContractError on malformed input. `load_job` remains
/// the job-only reader (it rejects stats frames).
std::optional<ServeRequest> load_request(std::istream& is);

/// Writes a `pooled-stats` request frame.
void save_stats_request(std::ostream& os);

/// Writes a `pooled-drain` request frame.
void save_drain_request(std::ostream& os);

/// Writes a `pooled-drain-result` frame. Every field is always emitted,
/// so the frame is byte-stable for a given summary.
void save_drain_summary(std::ostream& os, const DrainSummary& summary);

/// Reads the next `pooled-drain-result` frame; std::nullopt at (clean)
/// end of stream. Throws ContractError on malformed input.
std::optional<DrainSummary> load_drain_summary(std::istream& is);

/// Bounded line read shared by every wire parser: rejects a line the
/// moment it crosses limits::kMaxLineBytes instead of buffering it
/// whole. Matches std::getline's stream-state contract (failbit at end
/// of stream). Exposed so sibling grammars (engine/cache_store) enforce
/// the same bound.
bool read_bounded_line(std::istream& is, std::string& line);

/// Writes a `pooled-stats-result` frame carrying `snapshot`, one metric
/// per line (see obs/metrics.hpp for the line grammar).
void save_stats_snapshot(std::ostream& os, const MetricsSnapshot& snapshot);

/// Reads the next `pooled-stats-result` frame; std::nullopt at (clean)
/// end of stream. Throws ContractError on malformed input.
std::optional<MetricsSnapshot> load_stats_snapshot(std::istream& is);

}  // namespace pooled
