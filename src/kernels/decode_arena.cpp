#include "kernels/decode_arena.hpp"

#include <algorithm>
#include <cstring>

#include "support/assert.hpp"
#include "support/env.hpp"

namespace pooled {

namespace {

constexpr std::size_t kAlign = 64;

constexpr std::size_t round_up(std::size_t bytes) {
  return (bytes + (kAlign - 1)) & ~(kAlign - 1);
}

/// Bytes per lane of a block of `entries` records.
constexpr std::size_t lane_stride_bytes(std::size_t entries,
                                        std::size_t record_bytes = sizeof(EntryRecord)) {
  return round_up(entries * record_bytes);
}

std::size_t arena_budget_bytes() {
  static const std::size_t budget = env_budget_bytes("POOLED_ARENA_BUDGET_MB", 1024);
  return budget;
}

std::atomic<std::uint64_t> g_arena_live{0};
std::atomic<std::uint64_t> g_arena_peak{0};

}  // namespace

void arena_account_alloc(std::size_t bytes) {
  const std::uint64_t live =
      g_arena_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = g_arena_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_arena_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void arena_account_free(std::size_t bytes) {
  if (bytes > 0) g_arena_live.fetch_sub(bytes, std::memory_order_relaxed);
}

ArenaStats arena_stats() {
  ArenaStats stats;
  stats.live_bytes = g_arena_live.load(std::memory_order_relaxed);
  stats.peak_bytes = g_arena_peak.load(std::memory_order_relaxed);
  return stats;
}

LanePartials::~LanePartials() { arena_account_free(block_bytes_); }

void LanePartials::reset(unsigned slots, std::size_t entries) {
  const std::size_t stride = lane_stride_bytes(entries);
  const std::size_t need = stride * slots + kAlign;
  if (need > block_bytes_) {
    block_ = std::make_unique<std::byte[]>(need);
    arena_account_free(block_bytes_);
    arena_account_alloc(need);
    block_bytes_ = need;
  }
  if (slots > owner_capacity_) {
    owners_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    owner_capacity_ = slots;
  }
  for (unsigned s = 0; s < slots; ++s) {
    owners_[s].store(0, std::memory_order_relaxed);
  }
  entries_ = entries;
  lane_stride_ = stride;
  slot_count_ = slots;
}

EntryRecord* LanePartials::slot_records(unsigned slot) const {
  auto base = reinterpret_cast<std::uintptr_t>(block_.get());
  base = (base + (kAlign - 1)) & ~std::uintptr_t{kAlign - 1};
  return reinterpret_cast<EntryRecord*>(base + lane_stride_ * slot);
}

EntryRecord* LanePartials::acquire(unsigned lane_id) {
  const std::uint64_t token = static_cast<std::uint64_t>(lane_id) + 1;
  for (unsigned s = 0; s < slot_count_; ++s) {
    std::uint64_t seen = owners_[s].load(std::memory_order_acquire);
    if (seen == token) return slot_records(s);
    if (seen == 0 && owners_[s].compare_exchange_strong(
                         seen, token, std::memory_order_acq_rel)) {
      EntryRecord* records = slot_records(s);
      std::memset(records, 0, lane_stride_);
      return records;
    }
    // Claimed by another lane (before or during our CAS); keep scanning.
  }
  POOLED_REQUIRE(false, "more concurrent lanes than partial slots");
  return nullptr;
}

void LanePartials::merge_into(EntryStats& out, CountMode mode,
                              std::uint64_t* fingerprint) const {
  out.resize(entries_, mode);
  bool add = false;
  for (unsigned s = 0; s < slot_count_; ++s) {
    if (owners_[s].load(std::memory_order_acquire) == 0) continue;
    fold_records(slot_records(s), entries_, mode, add, out, fingerprint);
    add = true;
  }
  if (!add) {  // m == 0: no lane ever claimed; regrow the pair as zeros
    out.resize(0, mode);
    out.resize(entries_, mode);
    if (fingerprint != nullptr) std::fill_n(fingerprint, entries_, 0);
  }
}

namespace {

template <typename Count>
void fold_pair(const EntryRecord* records, std::size_t n, bool add,
               std::uint64_t* sum, Count* count) {
  if (add) {
    for (std::size_t i = 0; i < n; ++i) {
      sum[i] += records[i].sum;
      count[i] += static_cast<Count>(records[i].count);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      sum[i] = records[i].sum;
      count[i] = static_cast<Count>(records[i].count);
    }
  }
}

}  // namespace

void fold_records(const EntryRecord* records, std::size_t n, CountMode mode,
                  bool add, EntryStats& out, std::uint64_t* fingerprint) {
  if (mode == CountMode::Distinct) {
    fold_pair(records, n, add, out.psi.data(), out.delta_star.data());
  } else {
    fold_pair(records, n, add, out.psi_multi.data(), out.delta.data());
  }
  if (fingerprint == nullptr) return;
  for (std::size_t i = 0; i < n; ++i) {
    fingerprint[i] = (add ? fingerprint[i] : 0) + records[i].fp;
  }
}

DecodeArena& DecodeArena::local() {
  thread_local DecodeArena arena;
  return arena;
}

unsigned lanes_within_budget(std::size_t budget_bytes, unsigned lanes,
                             std::size_t entries, std::size_t record_bytes) {
  const std::size_t stride = lane_stride_bytes(entries, record_bytes);
  if (stride == 0) return lanes;
  return static_cast<unsigned>(
      std::clamp<std::size_t>(budget_bytes / stride, 1, lanes));
}

unsigned DecodeArena::record_lanes(unsigned lanes, std::size_t entries) {
  return lanes_within_budget(arena_budget_bytes(), lanes, entries);
}

unsigned DecodeArena::delta_blocks(unsigned lanes, std::size_t entries) {
  return lanes_within_budget(arena_budget_bytes(), lanes, entries,
                             sizeof(DeltaRecord));
}

EntryStats& DecodeArena::accumulator_stats(std::size_t n, CountMode mode) {
  EntryStats& stats = accumulator_stats_.stats;
  stats.resize(n, mode);
  const std::size_t bytes =
      (stats.psi.capacity() + stats.psi_multi.capacity() + stats.delta.capacity()) *
          sizeof(std::uint64_t) +
      stats.delta_star.capacity() * sizeof(std::uint32_t);
  arena_account_free(accumulator_stats_.bytes);
  arena_account_alloc(bytes);
  accumulator_stats_.bytes = bytes;
  return stats;
}

LanePartials& DecodeArena::lane_partials(unsigned lanes, std::size_t entries) {
  partials_.reset(lanes, entries);
  return partials_;
}

}  // namespace pooled
