#include "engine/batch_engine.hpp"

#include <algorithm>
#include <exception>

#include "core/decoder.hpp"
#include "core/metrics.hpp"
#include "core/noise.hpp"
#include "engine/registry.hpp"
#include "engine/result_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace pooled {

namespace {

DecodeReport execute(const DecodeJob& job, std::size_t index, ThreadPool& pool,
                     ResultCache* cache,
                     const BatchEngine::MetricHandles& metrics) {
  const Timer timer;

  // Cache consult happens before the instance is even rebuilt: the key is
  // a content digest of the job's spec, so a hit skips construction and
  // decode both.
  std::optional<std::string> cache_key;
  if (cache != nullptr) {
    const Timer lookup_timer;
    cache_key = ResultCache::job_key(job);
    std::optional<DecodeReport> cached;
    if (cache_key) cached = cache->lookup(*cache_key);
    if (job.trace != nullptr) {
      job.trace->stage(TraceStage::CacheLookup, lookup_timer.seconds());
      job.trace->set_cache_hit(cached.has_value());
    }
    if (cached) {
      cached->index = index;
      cached->seconds = timer.seconds();
      metrics.jobs_completed.add();
      if (job.trace != nullptr) {
        job.trace->set_outcome(cached->decoder_name, true,
                               stop_reason_name(cached->stop), cached->rounds,
                               cached->queries);
      }
      return *cached;
    }
  }

  DecodeReport report;
  report.index = index;
  report.k = job.k;

  const Timer build_timer;
  InstanceBundle bundle;
  if (job.instance) {
    bundle.instance = job.instance;
  } else if (job.build) {
    bundle = job.build(pool);
  } else {
    POOLED_REQUIRE(job.spec.has_value(), "decode job has no instance source");
    bundle.instance = job.spec->to_instance();
  }
  POOLED_REQUIRE(bundle.instance != nullptr, "decode job produced a null instance");
  if (job.truth_support) bundle.truth_support = job.truth_support;

  std::shared_ptr<const Decoder> owned;
  const Decoder* decoder = job.decoder_override;
  if (decoder == nullptr) {
    owned = make_decoder(job.decoder);
    decoder = owned.get();
  }

  // Noise is a decode option: the archived observables stay clean and a
  // perturbed copy is decoded (and consistency-checked) instead.
  bundle.instance = with_noise(std::move(bundle.instance), job.noise);
  const double build_seconds = build_timer.seconds();
  metrics.build_seconds.record(build_seconds);
  if (job.trace != nullptr) job.trace->stage(TraceStage::Build, build_seconds);

  DecodeContext context(job.k, pool);
  context.noise = job.noise;
  context.max_rounds = job.rounds;
  context.query_budget = job.budget;
  context.deadline_seconds = job.deadline_seconds;
  context.rng_seed = job.rng_seed;
  context.cancel = job.cancel;
  context.stats = job.stats;

  const StreamedInstance& instance = *bundle.instance;
  report.decoder_name = decoder->name();
  report.n = instance.n();
  const Timer decode_timer;
  DecodeOutcome outcome = decoder->decode(instance, context);
  const double decode_seconds = decode_timer.seconds();
  metrics.decode_seconds.record(decode_seconds);
  if (job.trace != nullptr) job.trace->stage(TraceStage::Decode, decode_seconds);
  const Signal& estimate = outcome.estimate;
  report.support.assign(estimate.support().begin(), estimate.support().end());
  if (job.check_consistency) {
    const Timer consistency_timer;
    report.consistent = instance.is_consistent(estimate);
    const double consistency_seconds = consistency_timer.seconds();
    metrics.consistency_seconds.record(consistency_seconds);
    if (job.trace != nullptr) {
      job.trace->stage(TraceStage::Consistency, consistency_seconds);
    }
  }
  report.rounds = outcome.rounds;
  report.queries = outcome.queries;
  report.stop = outcome.stop;
  if (bundle.truth_support) {
    const Signal truth(instance.n(), *bundle.truth_support);
    report.scored = true;
    report.exact = exact_recovery(estimate, truth);
    report.overlap = overlap_fraction(estimate, truth);
  }
  report.seconds = timer.seconds();
  metrics.jobs_completed.add();
  if (job.trace != nullptr) {
    job.trace->set_outcome(report.decoder_name, true,
                           stop_reason_name(report.stop), report.rounds,
                           report.queries);
  }
  // A cancelled (or clock-bound) stop is not the job's canonical result;
  // caching it would replay the truncated decode forever.
  const bool partial = report.stop == StopReason::Cancelled ||
                       report.stop == StopReason::Deadline;
  if (cache != nullptr && cache_key && !partial) cache->insert(*cache_key, report);
  return report;
}

DecodeReport failure_report(const DecodeJob& job, std::size_t index,
                            std::exception_ptr error,
                            const BatchEngine::MetricHandles& metrics) {
  DecodeReport report;
  report.index = index;
  report.k = job.k;
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::exception& e) {
    report.error = e.what();
  } catch (...) {
    report.error = "unknown error";
  }
  if (report.error.empty()) report.error = "unknown error";
  metrics.jobs_failed.add();
  if (job.trace != nullptr) {
    job.trace->set_outcome(job.decoder, false, "error", 0, 0);
  }
  return report;
}

}  // namespace

BatchEngine::BatchEngine(ThreadPool& pool, EngineOptions options)
    : pool_(pool),
      options_(options),
      handles_{metrics_.counter("engine.jobs_completed"),
               metrics_.counter("engine.jobs_failed"),
               metrics_.histogram("engine.build_seconds"),
               metrics_.histogram("engine.decode_seconds"),
               metrics_.histogram("engine.consistency_seconds")} {}

std::size_t BatchEngine::window() const {
  return options_.max_in_flight > 0 ? options_.max_in_flight
                                    : std::size_t{4} * pool_.size();
}

DecodeReport BatchEngine::run_one(const DecodeJob& job, std::size_t index) const {
  if (!options_.capture_errors) {
    return execute(job, index, pool_, options_.cache, handles_);
  }
  try {
    return execute(job, index, pool_, options_.cache, handles_);
  } catch (...) {
    return failure_report(job, index, std::current_exception(), handles_);
  }
}

std::vector<DecodeReport> BatchEngine::run(const std::vector<DecodeJob>& jobs) const {
  std::vector<DecodeReport> reports(jobs.size());
  if (jobs.empty()) return reports;
  // Unbounded: one batch, dynamic load balancing, no barriers. Bounded:
  // windows of max_in_flight with a barrier between them. Either way
  // each slot writes only its own submission index, so report order is
  // deterministic by construction. Exceptions never escape into pool
  // workers -- they are captured per slot and either folded into the
  // report or rethrown (in submission order) after the window drains.
  const std::size_t window_size =
      options_.max_in_flight > 0 ? options_.max_in_flight : jobs.size();
  for (std::size_t offset = 0; offset < jobs.size(); offset += window_size) {
    const std::size_t count = std::min(window_size, jobs.size() - offset);
    std::vector<std::exception_ptr> failures(count);
    pool_.run_tasks(count, [&](std::size_t slot) {
      const std::size_t index = offset + slot;
      try {
        reports[index] =
            execute(jobs[index], index, pool_, options_.cache, handles_);
      } catch (...) {
        if (options_.capture_errors) {
          reports[index] = failure_report(jobs[index], index,
                                          std::current_exception(), handles_);
        } else {
          failures[slot] = std::current_exception();
        }
      }
    });
    for (const std::exception_ptr& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
  }
  return reports;
}

}  // namespace pooled
