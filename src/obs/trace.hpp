// Per-job pipeline spans, logged as JSONL.
//
// A TraceSpan follows one DecodeJob through the serve pipeline and
// timestamps the stages the architecture already separates:
//
//   parse -> queue -> cache-lookup -> build -> decode -> consistency
//         -> serialize -> write
//
// The reader thread creates the span when it parses the request frame,
// the handler attaches it to the job (DecodeJob::trace) so
// engine::execute can time the cache/build/decode/consistency stages,
// and the writer finishes it after the result frame goes out. `write`
// is the flush of the window holding the job onto the peer, not the
// formatting into a buffer (that is `serialize`). A span doubles as a
// DecodeStatsSink: it captures the inner decoder's round/query
// trajectory without stealing the slot from an existing sink (the
// progress stream chains behind it).
//
// TraceRecorder serializes finished spans to one JSON object per line:
//
//   {"ts_us":1234,"conn":1,"job":0,"decoder":"mn","ok":true,
//    "stop":"converged","rounds":3,"queries":48,"cache_hit":false,
//    "stages_us":{"parse":12,"queue":3,"cache-lookup":1,"build":95,
//                 "decode":5210,"consistency":1730,"serialize":44,
//                 "write":21}}
//
// `ts_us` is microseconds since the recorder was opened (one steady
// clock for the whole file, so spans sort and diff cleanly). Stages a
// job never reached are omitted; `rounds`/`queries` are the values the
// final on_round reported, or the outcome's totals when set_outcome ran.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/decoder.hpp"
#include "support/thread_annotations.hpp"
#include "support/timer.hpp"

namespace pooled {

/// Pipeline stages a span can time, in pipeline order.
enum class TraceStage : std::uint8_t {
  Parse,
  Queue,
  CacheLookup,
  Build,
  Decode,
  Consistency,
  Serialize,
  Write,
};
inline constexpr unsigned kTraceStages = 8;

/// Stable JSONL key for a stage ("parse", "queue", "cache-lookup", ...).
[[nodiscard]] const char* trace_stage_name(TraceStage stage);

class TraceSpan;

/// Sink for finished spans: serializes each to one JSONL line under a
/// mutex (spans finish on reader/handler threads concurrently) and
/// flushes, so a trace file is complete up to the last finished job even
/// if the process dies mid-serve.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::ostream& out) : out_(&out) {}

  /// Microseconds since the recorder was constructed (span timestamps).
  [[nodiscard]] std::uint64_t now_us() const;

 private:
  friend class TraceSpan;
  void emit(const TraceSpan& span);

  /// Spans finish on reader/handler threads concurrently; only the
  /// stream write needs the mutex (lines are assembled lock-free).
  std::ostream* out_ POOLED_PT_GUARDED_BY(mutex_);
  AnnotatedMutex mutex_;
  Timer epoch_;
};

/// One job's trip through the pipeline. Not thread-safe by itself, but
/// the pipeline hands it between threads with happens-before edges (the
/// queue mutex), which is the only concurrency it sees.
class TraceSpan final : public DecodeStatsSink {
 public:
  TraceSpan(TraceRecorder& recorder, std::uint64_t connection,
            std::uint64_t job_index)
      : recorder_(&recorder), connection_(connection), job_index_(job_index) {}
  ~TraceSpan() override { finish(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Records `seconds` against a stage (accumulates on repeat calls, so
  /// serialize can be timed per report frame).
  void stage(TraceStage stage, double seconds);

  /// Queue residency bracket: enqueued when the reader hands the job
  /// over, dequeued when the handler picks it up.
  void mark_enqueued() { queue_timer_.reset(); queued_ = true; }
  void mark_dequeued();

  void set_cache_hit(bool hit) { cache_hit_ = hit; }

  /// Outcome facts, passed as plain fields (obs does not depend on the
  /// engine's report types).
  void set_outcome(const std::string& decoder, bool ok,
                   const std::string& stop, std::uint32_t rounds,
                   std::uint64_t queries);

  /// Next sink in the chain; on_round forwards to it after recording.
  void set_chain(DecodeStatsSink* chain) { chain_ = chain; }

  /// DecodeStatsSink: tracks the inner decoder's trajectory.
  void on_round(std::uint32_t round, std::uint64_t queries_so_far) override;

  /// Emits the span (idempotent; the destructor calls it too).
  void finish();

 private:
  friend class TraceRecorder;

  TraceRecorder* recorder_;
  std::uint64_t connection_;
  std::uint64_t job_index_;
  std::array<double, kTraceStages> stage_seconds_{};
  std::array<bool, kTraceStages> stage_seen_{};
  Timer queue_timer_;
  bool queued_ = false;
  bool cache_hit_ = false;
  bool has_outcome_ = false;
  bool ok_ = false;
  std::string decoder_;
  std::string stop_;
  std::uint32_t rounds_ = 0;
  std::uint64_t queries_ = 0;
  DecodeStatsSink* chain_ = nullptr;
  bool finished_ = false;
};

}  // namespace pooled
