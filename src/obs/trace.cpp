#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace pooled {

const char* trace_stage_name(TraceStage stage) {
  switch (stage) {
    case TraceStage::Parse: return "parse";
    case TraceStage::Queue: return "queue";
    case TraceStage::CacheLookup: return "cache-lookup";
    case TraceStage::Build: return "build";
    case TraceStage::Decode: return "decode";
    case TraceStage::Consistency: return "consistency";
    case TraceStage::Serialize: return "serialize";
    case TraceStage::Write: return "write";
  }
  return "?";
}

std::uint64_t TraceRecorder::now_us() const {
  return static_cast<std::uint64_t>(std::llround(epoch_.seconds() * 1e6));
}

namespace {

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::uint64_t to_us(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

}  // namespace

void TraceRecorder::emit(const TraceSpan& span) {
  // The line is assembled outside the lock; only the write is serialized.
  std::string line = "{\"ts_us\":" + std::to_string(now_us());
  line += ",\"conn\":" + std::to_string(span.connection_);
  line += ",\"job\":" + std::to_string(span.job_index_);
  if (span.has_outcome_) {
    line += ",\"decoder\":";
    append_json_string(line, span.decoder_);
    line += span.ok_ ? ",\"ok\":true" : ",\"ok\":false";
    line += ",\"stop\":";
    append_json_string(line, span.stop_);
  }
  if (span.rounds_ > 0 || span.queries_ > 0) {
    line += ",\"rounds\":" + std::to_string(span.rounds_);
    line += ",\"queries\":" + std::to_string(span.queries_);
  }
  line += span.cache_hit_ ? ",\"cache_hit\":true" : ",\"cache_hit\":false";
  line += ",\"stages_us\":{";
  bool first = true;
  for (unsigned s = 0; s < kTraceStages; ++s) {
    if (!span.stage_seen_[s]) continue;
    if (!first) line += ',';
    first = false;
    line += '"';
    line += trace_stage_name(static_cast<TraceStage>(s));
    line += "\":" + std::to_string(to_us(span.stage_seconds_[s]));
  }
  line += "}}\n";

  const LockGuard lock(mutex_);
  (*out_) << line;
  out_->flush();
}

void TraceSpan::stage(TraceStage stage, double seconds) {
  const auto index = static_cast<unsigned>(stage);
  stage_seconds_[index] += seconds;
  stage_seen_[index] = true;
}

void TraceSpan::mark_dequeued() {
  if (!queued_) return;
  stage(TraceStage::Queue, queue_timer_.seconds());
  queued_ = false;
}

void TraceSpan::set_outcome(const std::string& decoder, bool ok,
                            const std::string& stop, std::uint32_t rounds,
                            std::uint64_t queries) {
  has_outcome_ = true;
  decoder_ = decoder;
  ok_ = ok;
  stop_ = stop;
  rounds_ = rounds;
  queries_ = queries;
}

void TraceSpan::on_round(std::uint32_t round, std::uint64_t queries_so_far) {
  // set_outcome overwrites these with the authoritative totals later;
  // keeping them here covers decoders that die mid-flight.
  rounds_ = round;
  queries_ = queries_so_far;
  if (chain_ != nullptr) chain_->on_round(round, queries_so_far);
}

void TraceSpan::finish() {
  if (finished_) return;
  finished_ = true;
  mark_dequeued();  // a span finished while "queued" charges the wait
  recorder_->emit(*this);
}

}  // namespace pooled
