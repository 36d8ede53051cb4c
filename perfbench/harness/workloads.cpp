// Workload shapes, seeded inputs, and job schedules.
#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/decoder.hpp"
#include "core/thresholds.hpp"
#include "engine/protocol.hpp"
#include "engine/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/splitmix64.hpp"

namespace perfbench {

namespace {

constexpr double kTheta = 0.3;
constexpr double kBudget = 1.4;  // m = 1.4 * m_MN(finite), the simulate default

void size_instances(Workload& w, std::uint32_t n) {
  w.n = n;
  w.k = pooled::thresholds::k_of(n, kTheta);
  w.m = static_cast<std::uint32_t>(
      kBudget * pooled::thresholds::m_mn_finite(n, std::max<std::uint32_t>(w.k, 2)));
}

}  // namespace

Workload make_workload(const std::string& name, bool smoke, unsigned cores) {
  Workload w;
  w.name = name;
  if (name == "mn-paper") {
    // The paper's one-shot decode at scale: 4 closed-loop clients, one
    // job each in flight, every job a real decode (cache off).
    size_instances(w, smoke ? 2000 : 10000);
    w.decoder = "mn";
    w.connections = std::min(4u, std::max(cores, 1u));
    w.distinct = smoke ? 8 : 256;
    w.replay_samples = smoke ? 4 : 6;
  } else if (name == "small-mixed") {
    // Cheap decodes behind the protocol and the cache: two pipelined
    // connections, half the jobs on a hot set that stays cached, half on
    // a fresh cycle longer than the cache so each one misses.
    size_instances(w, smoke ? 300 : 1000);
    w.decoder = "mn";
    w.connections = std::min(2u, std::max(cores / 2, 1u));
    w.outstanding = 8;
    w.cache = smoke ? 16 : 1024;
    w.hot = smoke ? 4 : 64;
    // A fresh instance recurs after distinct-1 other fresh ones plus the
    // hot set, more distinct keys than the cache holds: always a miss.
    w.distinct = w.cache - w.hot + 64;
    w.replay_samples = smoke ? 4 : 24;
  } else if (name == "adaptive-rounds") {
    // The same decode layer used round by round: one client, L=16.
    size_instances(w, smoke ? 2000 : 10000);
    w.decoder = "adaptive:mn:L=16";
    w.distinct = smoke ? 4 : 128;
    // Adaptive cost varies by instance; two warm-up jobs per set-up
    // steady both the server and setup_s.
    w.warmup_per_connection = 2;
    w.replay_samples = smoke ? 2 : 3;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed, pooled::ThreadPool& pool) {
  const std::size_t count = w.hot + w.distinct;
  Inputs inputs;
  inputs.specs.resize(count);
  inputs.truth.resize(count);
  inputs.reference.resize(count);
  inputs.frames.resize(count);
  const auto decoder = pooled::make_decoder(w.decoder);
  // One instance per task; the decodes inside run inline on that lane.
  pool.run_tasks(count, [&](std::size_t i) {
    const std::uint64_t key = pooled::splitmix64_mix(seed * 0x9E3779B97F4A7C15ull + i);
    const pooled::Signal truth = pooled::Signal::random(w.n, w.k, key);
    pooled::DesignParams params;
    params.n = w.n;
    params.seed = key + 1;
    pooled::InstanceSpec spec = pooled::simulate_spec(
        pooled::DesignKind::RandomRegular, params, w.m, truth, pool);
    const auto instance = spec.to_instance();
    const pooled::DecodeOutcome outcome =
        decoder->decode(*instance, pooled::DecodeContext(w.k, pool));
    inputs.reference[i].assign(outcome.estimate.support().begin(),
                               outcome.estimate.support().end());
    inputs.truth[i].assign(truth.support().begin(), truth.support().end());

    pooled::DecodeJob job;
    job.spec = std::move(spec);
    job.decoder = w.decoder;
    job.k = w.k;
    job.truth_support = inputs.truth[i];
    std::ostringstream frame;
    pooled::save_job(frame, job);
    inputs.frames[i] = frame.str();
    inputs.specs[i] = std::move(*job.spec);
  });
  return inputs;
}

Schedule::Schedule(const Workload& workload, std::uint64_t seed)
    : workload_(&workload), seed_(seed), order_(workload.distinct) {
  std::iota(order_.begin(), order_.end(), workload.hot);
  pooled::SplitMix64 rng(seed ^ 0x5EED5C4EDu);
  std::shuffle(order_.begin(), order_.end(), rng);
}

std::size_t Schedule::instance(std::uint64_t job) const {
  if (workload_->hot == 0) return order_[job % order_.size()];
  // Even jobs hit the hot set (seeded pick), odd jobs walk the fresh cycle.
  if (job % 2 == 0) {
    return pooled::splitmix64_mix(seed_ + job) % workload_->hot;
  }
  return order_[(job / 2) % order_.size()];
}

std::vector<std::size_t> Schedule::warmup(unsigned connection, unsigned round) const {
  std::vector<std::size_t> jobs;
  if (workload_->hot > 0) {
    // Warm the cache with the whole hot set, spread over the connections.
    for (std::size_t i = connection; i < workload_->hot; i += workload_->connections) {
      jobs.push_back(i);
    }
    return jobs;
  }
  const std::size_t per_round = workload_->warmup_per_connection * workload_->connections;
  for (std::size_t j = 0; j < workload_->warmup_per_connection; ++j) {
    const std::size_t slot = round * per_round + j * workload_->connections + connection;
    jobs.push_back(order_[order_.size() - 1 - slot % order_.size()]);
  }
  return jobs;
}

}  // namespace perfbench
