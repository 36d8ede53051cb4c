#include "core/instance.hpp"

#include <array>
#include <atomic>
#include <random>
#include <utility>

#include "kernels/decode_arena.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/philox.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

/// Sums the candidate's values over one query's raw draws (multi-edges
/// contribute once per occurrence, exactly as the query method does).
std::uint32_t pooled_sum(const Signal& candidate,
                         const std::vector<std::uint32_t>& members) {
  std::uint32_t sum = 0;
  for (std::uint32_t entry : members) sum += candidate.value(entry);
  return sum;
}

// Per-channel pooled observations of is_consistent (the channel switch
// is hoisted to its per-decode level). Each loop stops as soon as the
// outcome is decided: the quantitative scan once the partial sum exceeds
// the observed target (sums only grow), the OR channel at the first
// one-entry, the threshold channel once the count reaches T.

std::uint32_t observe_quantitative(const Signal& candidate,
                                   const std::vector<std::uint32_t>& members,
                                   std::uint32_t cap) {
  std::uint32_t sum = 0;
  for (std::uint32_t entry : members) {
    sum += candidate.value(entry);
    if (sum > cap) break;
  }
  return sum;
}

std::uint32_t observe_binary(const Signal& candidate,
                             const std::vector<std::uint32_t>& members) {
  for (std::uint32_t entry : members) {
    if (candidate.is_one(entry)) return 1;
  }
  return 0;
}

std::uint32_t observe_threshold(const Signal& candidate,
                                const std::vector<std::uint32_t>& members,
                                std::uint32_t threshold) {
  std::uint32_t sum = 0;
  for (std::uint32_t entry : members) {
    sum += candidate.value(entry);
    if (sum >= threshold) return 1;
  }
  return 0;
}

}  // namespace

bool StreamedInstance::is_consistent(const Signal& candidate) const {
  POOLED_REQUIRE(candidate.n() == n(), "candidate length mismatch");
  // The exact pass starts after the fingerprinted prefix.
  std::uint32_t first = 0;
  if (const auto print = fingerprint()) {
    // Freivalds: r·(Ax) = Σ_{i∈S} fp_i against r·y, both mod 2^64.
    std::uint64_t sum = 0;
    for (std::uint32_t entry : candidate.support()) sum += print->entries[entry];
    if (sum != print->target) return false;
    first = print->queries;
  }
  const auto& y = results();
  DecodeArena& arena = DecodeArena::local();
  std::vector<std::uint32_t>& members = arena.members();
  switch (channel()) {
    case ChannelKind::Quantitative:
      for (std::uint32_t q = first; q < m(); ++q) {
        query_members(q, members);
        // Capping at the target makes overshooting pools exit early.
        if (observe_quantitative(candidate, members, y[q]) != y[q]) return false;
      }
      return true;
    case ChannelKind::Binary:
      for (std::uint32_t q = first; q < m(); ++q) {
        query_members(q, members);
        if (observe_binary(candidate, members) != y[q]) return false;
      }
      return true;
    case ChannelKind::Threshold: {
      const std::uint32_t t = channel_threshold();
      for (std::uint32_t q = first; q < m(); ++q) {
        query_members(q, members);
        if (observe_threshold(candidate, members, t) != y[q]) return false;
      }
      return true;
    }
  }
  return true;
}

std::uint64_t StreamedInstance::total_result() const {
  std::uint64_t total = 0;
  for (std::uint32_t value : results()) total += value;
  return total;
}

// ---------------------------------------------------------------------------
// StreamedInstance

StreamedInstance::StreamedInstance(std::shared_ptr<const PoolingDesign> design,
                                   std::uint32_t m, std::vector<std::uint32_t> y,
                                   ChannelKind channel, std::uint32_t threshold)
    : design_(std::move(design)),
      m_(m),
      y_(std::move(y)),
      channel_(channel),
      threshold_(threshold) {
  POOLED_REQUIRE(design_ != nullptr, "streamed instance needs a design");
  POOLED_REQUIRE(y_.size() == m_, "result vector length must equal query count");
  POOLED_REQUIRE(threshold_ >= 1, "channel threshold must be >= 1");
  if (channel_ != ChannelKind::Quantitative) {
    for (std::uint32_t value : y_) {
      POOLED_REQUIRE(value <= 1, "one-bit channel results must be 0/1");
    }
  }
}

void StreamedInstance::query_members(std::uint32_t query,
                                     std::vector<std::uint32_t>& out) const {
  POOLED_REQUIRE(query < m_, "query index out of range");
  design_->query_members(query, out);
}

std::shared_ptr<const QueryFingerprint> StreamedInstance::fingerprint() const {
  const LockGuard lock(fingerprint_mutex_);
  return fingerprint_;
}

void StreamedInstance::publish_fingerprint(QueryFingerprint print) const {
  POOLED_REQUIRE(channel_ == ChannelKind::Quantitative,
                 "only the quantitative channel is linear");
  POOLED_REQUIRE(print.queries <= m_ && print.entries.size() == n(),
                 "fingerprint does not fit the instance");
  auto fresh = std::make_shared<const QueryFingerprint>(std::move(print));
  // The replaced print dies outside the lock, once no job reads it.
  std::shared_ptr<const QueryFingerprint> replaced;
  const LockGuard lock(fingerprint_mutex_);
  if (fingerprint_ == nullptr || fresh->queries > fingerprint_->queries) {
    replaced = std::exchange(fingerprint_, std::move(fresh));
  }
}

namespace {

/// The per-process key of the fingerprint weights. Drawn from the OS, not
/// from a seed: a client that knew it could pick results that collide.
const std::array<std::uint32_t, 2>& fingerprint_key() {
  static const std::array<std::uint32_t, 2> key = [] {
    std::random_device device;
    return std::array<std::uint32_t, 2>{device(), device()};
  }();
  return key;
}

/// Domain tag in the weights' Philox counters.
constexpr std::uint32_t kFingerprintTag = 0x46505257u;  // "FPRW"

}  // namespace

std::uint64_t fingerprint_weight(std::uint32_t query) {
  // One Philox block at counter {q, tag}.
  const auto block = philox4x32({query, 0, kFingerprintTag, 0}, fingerprint_key());
  return (std::uint64_t{block[1]} << 32) | block[0];
}

void StreamedInstance::entry_stats_into(ThreadPool& pool, EntryStats& stats,
                                        CountMode mode) const {
  const std::uint32_t num = n();
  // As many lanes as POOLED_ARENA_BUDGET_MB admits, at least one.
  const unsigned lanes = DecodeArena::record_lanes(pool.size(), num);
  // Only the quantitative channel is linear; a pass records the
  // fingerprint while none of all m queries is published, later ones
  // fold a zero weight.
  const auto published = fingerprint();
  const bool record = channel_ == ChannelKind::Quantitative &&
                      (published == nullptr || published->queries < m_);
  std::atomic<std::uint64_t> target{0};
  // Per-lane private records (no atomics, no per-chunk allocation): each
  // executing thread folds its queries into its lane's block, one cache
  // line per draw; the blocks are merged afterwards. Integer accumulation
  // makes the result independent of lane count and chunking.
  LanePartials& partials = DecodeArena::local().lane_partials(lanes, num);
  const auto fold = [&](std::size_t lo, std::size_t hi) {
    EntryRecord* records = partials.acquire(ThreadPool::current_lane());
    std::vector<std::uint32_t>& members = DecodeArena::local().members();
    std::uint64_t chunk_target = 0;
    for (std::size_t q = lo; q < hi; ++q) {
      const auto query = static_cast<std::uint32_t>(q);
      design_->query_members(query, members);
      const std::uint64_t weight = record ? fingerprint_weight(query) : 0;
      chunk_target += weight * y_[q];
      // Epochs are query+1: nonzero, and unique within this pass's
      // zeroed records, so first occurrences are detected in O(1).
      accumulate_query(mode, members.data(), members.size(), query + 1, y_[q],
                       weight, RecordLayout{records});
    }
    target.fetch_add(chunk_target, std::memory_order_relaxed);
  };
  if (lanes < pool.size()) {
    // Fewer blocks than the pool is wide: one task per block, so at most
    // `lanes` distinct lane ids claim one.
    pool.run_tasks(lanes, [&](std::size_t share) {
      fold(m_ * share / lanes, m_ * (share + 1) / lanes);
    });
  } else {
    parallel_for_chunked(pool, 0, m_, 1, fold);
  }
  if (!record) {
    partials.merge_into(stats, mode);
    return;
  }
  QueryFingerprint print;
  print.entries.resize(num);
  partials.merge_into(stats, mode, print.entries.data());
  print.target = target.load(std::memory_order_relaxed);
  print.queries = m_;
  publish_fingerprint(std::move(print));
}

const PackedPools* StreamedInstance::packed_pools(ThreadPool* pool) const {
  std::call_once(packed_once_, [&] { packed_ = pack_pools(*design_, m_, pool); });
  return packed_.get();
}

// ---------------------------------------------------------------------------
// Teacher-side construction

std::vector<std::uint32_t> simulate_queries(const PoolingDesign& design,
                                            std::uint32_t m, const Signal& truth,
                                            ThreadPool& pool, ChannelKind channel,
                                            std::uint32_t threshold) {
  POOLED_REQUIRE(design.num_entries() == truth.n(), "design/signal length mismatch");
  std::vector<std::uint32_t> y(m);
  parallel_for_chunked(pool, 0, m, 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t>& members = DecodeArena::local().members();
    for (std::size_t q = lo; q < hi; ++q) {
      design.query_members(static_cast<std::uint32_t>(q), members);
      y[q] = apply_channel(pooled_sum(truth, members), channel, threshold);
    }
  });
  return y;
}

std::unique_ptr<StreamedInstance> make_streamed_instance(
    std::shared_ptr<const PoolingDesign> design, std::uint32_t m,
    const Signal& truth, ThreadPool& pool, ChannelKind channel,
    std::uint32_t threshold) {
  POOLED_REQUIRE(design != nullptr, "streamed instance needs a design");
  auto y = simulate_queries(*design, m, truth, pool, channel, threshold);
  // As in make_spec, T exists only on the threshold channel.
  return std::make_unique<StreamedInstance>(
      std::move(design), m, std::move(y), channel,
      channel == ChannelKind::Threshold ? threshold : 1);
}

}  // namespace pooled
