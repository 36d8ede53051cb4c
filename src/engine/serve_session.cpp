#include "engine/serve_session.hpp"

#include <algorithm>
#include <exception>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "engine/result_cache.hpp"
#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace pooled {

ServeMetrics::ServeMetrics(MetricsRegistry& registry)
    : connections_accepted(registry.counter("serve.connections_accepted")),
      connections_active(registry.gauge("serve.connections_active")),
      connections_reaped(registry.counter("serve.connections_reaped")),
      connections_errored(registry.counter("serve.connections_errored")),
      jobs_served(registry.counter("serve.jobs_served")),
      jobs_cancelled(registry.counter("serve.jobs_cancelled")),
      jobs_failed(registry.counter("serve.jobs_failed")),
      write_failures(registry.counter("serve.write_failures")),
      queue_depth(registry.gauge("serve.queue_depth")),
      job_seconds(registry.histogram("serve.job_seconds")),
      drain_requests(registry.counter("drain.requests")),
      draining(registry.gauge("drain.draining")) {}

ServeSession::ServeSession(std::istream& in, std::ostream& out,
                           const BatchEngine& engine,
                           ServeSessionOptions options, SessionHost* host,
                           std::uint64_t serial)
    : in_(in),
      out_(out),
      engine_(engine),
      options_(std::move(options)),
      host_(host),
      serial_(serial),
      // Bounds parsed-but-unscheduled jobs: a misconfigured (or hostile)
      // window cannot make the session buffer an unbounded backlog.
      window_(std::min(engine.window(), limits::kMaxJobsPerWindow)),
      metrics_(engine.metrics()) {}

void ServeSession::cancel() {
  {
    // Under the queue lock, so a waiter cannot test the token and then
    // sleep through this wakeup.
    const LockGuard lock(queue_mutex_);
    cancel_.store(true);
  }
  queue_cv_.notify_all();
}

bool ServeSession::reader_finished() {
  const LockGuard lock(queue_mutex_);
  return reader_done_;
}

bool ServeSession::write(std::size_t frames,
                         const std::function<void(std::ostream&)>& body) {
  try {
    const LockGuard lock(write_mutex_);
    body(out_);
    out_.flush();
    POOLED_REQUIRE(static_cast<bool>(out_), "serve stream write failed");
    return true;
  } catch (const std::exception&) {
    metrics_.write_failures.add(frames);
    cancel();
    return false;
  }
}

void ServeSession::read_requests() {
  const std::size_t queue_cap = 2 * window_;
  try {
    while (!cancel_.load()) {
      const Timer parse_timer;
      std::optional<ServeRequest> request = load_request(in_);
      if (!request) {
        // A clean end of input means "no more requests": run() finishes
        // the queue and answers. A transport error means the peer is
        // gone -- decoding its queued jobs would spend engine time on
        // frames nobody can read.
        if (host_ != nullptr && host_->read_errno() != 0 &&
            !cancel_.load()) {
          metrics_.connections_errored.add();
          cancel_.store(true);
        }
        break;
      }
      if (std::holds_alternative<StatsRequest>(*request)) {
        // Answered here, out of band of the job pipeline: a stats probe
        // must not wait behind a window of decodes (that latency is
        // exactly what it is trying to observe).
        const MetricsSnapshot snapshot = serve_snapshot(engine_);
        const auto answer = [&](std::ostream& os) {
          save_stats_snapshot(os, snapshot);
        };
        if (!write(1, answer)) break;
        continue;
      }
      if (std::holds_alternative<DrainRequest>(*request)) {
        // This stream owns the drain: it is owed the summary once its
        // queue has drained, so the reader stops here.
        metrics_.drain_requests.add();
        {
          const LockGuard lock(queue_mutex_);
          drain_owed_ = true;
        }
        if (host_ != nullptr) host_->begin_drain();
        break;
      }
      DecodeJob job = std::get<DecodeJob>(std::move(*request));
      std::unique_ptr<TraceSpan> span;
      if (options_.trace != nullptr) {
        span = std::make_unique<TraceSpan>(*options_.trace, serial_,
                                           jobs_parsed_);
        span->stage(TraceStage::Parse, parse_timer.seconds());
        job.trace = span.get();
      }
      ++jobs_parsed_;
      LockGuard lock(queue_mutex_);
      // Explicit wait loop (not the predicate overload): the condition
      // reads `queue_`, which the analysis can only check when the read
      // is visibly under the lock, not inside a lambda.
      while (queue_.size() >= queue_cap && !cancel_.load()) {
        queue_cv_.wait(lock);
      }
      if (cancel_.load()) break;
      if (span != nullptr) span->mark_enqueued();
      queue_.push_back(std::move(job));
      spans_.push_back(std::move(span));
      // The depth gauge moves under the queue lock on both ends, so it
      // always reads a real depth: never negative, never above the bound.
      metrics_.queue_depth.add(1);
      lock.unlock();
      queue_cv_.notify_all();
    }
  } catch (const std::exception& e) {
    // Framing is lost after a parse error; run() reports it as the
    // stream's final frame. A cancelled stream's read errors are teardown
    // noise, not protocol errors -- and a frame truncated by a transport
    // error is the transport's fault, not the client's, so it counts as
    // an errored connection, not a protocol violation.
    const LockGuard lock(queue_mutex_);
    if (!cancel_.load()) {
      if (host_ != nullptr && host_->read_errno() != 0) {
        metrics_.connections_errored.add();
        cancel_.store(true);
      } else {
        parse_error_ = e.what();
      }
    }
  }
  {
    const LockGuard lock(queue_mutex_);
    reader_done_ = true;
  }
  queue_cv_.notify_all();
}

bool ServeSession::run() {
  std::thread reader([this] { read_requests(); });
  std::size_t served = 0;
  while (true) {
    std::vector<DecodeJob> jobs;
    std::vector<std::unique_ptr<TraceSpan>> spans;  // parallel to jobs
    bool drained = false;
    {
      LockGuard lock(queue_mutex_);
      while (queue_.empty() && !reader_done_ && !cancel_.load()) {
        queue_cv_.wait(lock);
      }
      if (cancel_.load()) break;
      POOLED_DCHECK(queue_.size() == spans_.size(),
                    "span queue must stay parallel to the job queue");
      while (!queue_.empty() && jobs.size() < window_) {
        jobs.push_back(std::move(queue_.front()));
        queue_.pop_front();
        spans.push_back(std::move(spans_.front()));
        spans_.pop_front();
      }
      metrics_.queue_depth.add(-static_cast<std::int64_t>(jobs.size()));
      drained = queue_.empty() && reader_done_;
    }
    queue_cv_.notify_all();  // the reader may be waiting on space
    if (!jobs.empty()) {
      // The window decodes while the reader keeps parsing ahead. Every
      // job shares the stream's cancel token; progress sinks carry the
      // stream-global index the result frame will use.
      std::vector<ProgressStream::JobSink> sinks;
      sinks.reserve(jobs.size());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].cancel = &cancel_;
        DecodeStatsSink* sink = nullptr;
        if (options_.progress != nullptr) {
          sinks.push_back(
              options_.progress->connection_sink(serial_, served + j));
          sink = &sinks.back();
        }
        if (spans[j] != nullptr) {
          spans[j]->mark_dequeued();
          // The span observes the decoder's rounds and forwards them, so
          // tracing never silences --progress.
          spans[j]->set_chain(sink);
          jobs[j].stats = spans[j].get();
        } else {
          jobs[j].stats = sink;
        }
      }
      std::vector<DecodeReport> reports = engine_.run(jobs);
      // Account the window before touching the stream: cancelled/failed
      // counts and latencies describe the decode, not the delivery.
      for (DecodeReport& report : reports) {
        report.index += served;
        if (report.stop == StopReason::Cancelled) {
          metrics_.jobs_cancelled.add();
        }
        if (!report.ok()) metrics_.jobs_failed.add();
        metrics_.job_seconds.record(report.seconds);
      }
      // Delivery is all-or-nothing per window: a failed write leaves the
      // frame boundary unknown, so nothing after it can be salvaged.
      const bool delivered = write(reports.size(), [&](std::ostream& os) {
        for (std::size_t j = 0; j < reports.size(); ++j) {
          const Timer serialize_timer;
          save_report(os, reports[j]);
          if (spans[j] != nullptr) {
            spans[j]->stage(TraceStage::Serialize, serialize_timer.seconds());
          }
        }
        const Timer write_timer;
        os.flush();
        const double write_seconds = write_timer.seconds();
        for (const std::unique_ptr<TraceSpan>& span : spans) {
          if (span != nullptr) span->stage(TraceStage::Write, write_seconds);
        }
      });
      if (delivered) metrics_.jobs_served.add(reports.size());
      served += jobs.size();
      spans.clear();  // emits the JSONL trace lines
      if (!delivered) break;
    }
    if (drained) break;
  }
  std::string parse_error;
  bool drain_owed = false;
  {
    const LockGuard lock(queue_mutex_);
    parse_error = parse_error_;
    drain_owed = drain_owed_;
  }
  if (!parse_error.empty() && !cancel_.load()) {
    // A malformed frame ends the stream with one final error frame so the
    // client learns why its later requests were never answered.
    DecodeReport failure;
    failure.index = served;
    failure.error = "protocol error: " + parse_error;
    metrics_.jobs_failed.add();
    (void)write(1, [&](std::ostream& os) { save_report(os, failure); });
  }
  bool summary_sent = false;
  if (drain_owed && !cancel_.load()) {
    // The summary promises every in-flight job was answered.
    if (host_ != nullptr) host_->wait_for_quiesce();
    DrainSummary summary;
    summary.jobs_served = metrics_.jobs_served.value();
    if (options_.on_drain) options_.on_drain(summary);
    summary.write_failures = metrics_.write_failures.value();
    summary_sent =
        write(1, [&](std::ostream& os) { save_drain_summary(os, summary); });
  }
  if (host_ != nullptr) host_->shutdown(summary_sent);
  reader.join();
  {
    // Jobs still queued at teardown (cancel path) never decode; settle
    // the depth gauge and emit their spans as-is.
    const LockGuard lock(queue_mutex_);
    metrics_.queue_depth.add(-static_cast<std::int64_t>(queue_.size()));
    queue_.clear();
    spans_.clear();
  }
  return parse_error.empty();
}

MetricsSnapshot serve_snapshot(const BatchEngine& engine) {
  MetricsSnapshot snapshot = engine.metrics().snapshot();
  auto& values = snapshot.values;
  if (const ResultCache* cache = engine.result_cache()) {
    const CacheStats stats = cache->stats();
    values.push_back(MetricValue::of_counter("cache.hits", stats.hits));
    values.push_back(MetricValue::of_counter("cache.misses", stats.misses));
    values.push_back(
        MetricValue::of_counter("cache.insertions", stats.insertions));
    values.push_back(
        MetricValue::of_counter("cache.evictions", stats.evictions));
    values.push_back(MetricValue::of_counter("cache.snapshot_writes",
                                             stats.snapshot_writes));
    values.push_back(MetricValue::of_counter("cache.snapshot_restores",
                                             stats.snapshot_restores));
    values.push_back(MetricValue::of_counter("cache.snapshot_rejected",
                                             stats.snapshot_rejected));
    const auto size = static_cast<std::int64_t>(stats.size);
    const auto capacity = static_cast<std::int64_t>(stats.capacity);
    values.push_back(MetricValue::of_gauge("cache.size", size, size));
    values.push_back(
        MetricValue::of_gauge("cache.capacity", capacity, capacity));
  }
  const ArenaStats arena = arena_stats();
  values.push_back(MetricValue::of_gauge(
      "arena.live_bytes", static_cast<std::int64_t>(arena.live_bytes),
      static_cast<std::int64_t>(arena.peak_bytes)));
  values.push_back(MetricValue::of_label(
      "build.kernels", kernel_isa_name(active_kernels().isa)));
  return snapshot;
}

}  // namespace pooled
