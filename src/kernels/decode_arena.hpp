// Per-thread decode scratch: aligned buffers that grow once and are
// reused for every subsequent decode, replacing the per-call / per-chunk
// std::vector allocations in the hot paths (entry statistics, scoring,
// full-sort ranking, consistency scans, the adaptive accumulator and the
// rounds it folds ahead).
//
// Thread-affinity contract
// ------------------------
// `DecodeArena::local()` returns the calling OS thread's arena. ThreadPool
// workers are long-lived, so after the first decode at a given problem
// size every buffer is warm and the steady state allocates nothing. Two
// rules keep this safe:
//
//  1. A slot is scratch for ONE live use at a time: acquire it, use it,
//     and stop referencing it before anything on the same thread can
//     acquire the same slot again (in particular, never hold a slot
//     across a nested parallel_for that might use it inline).
//  2. Lane-partial blocks (one EntryRecord per entry per lane, see
//     kernels/entry_record.hpp) are allocated by the *calling* thread but
//     written by pool workers, indexed by `ThreadPool::current_lane()`.
//     run_tasks returns only once no worker is left inside the caller's
//     batch, which is what makes that hand-off safe (workers move on to
//     other callers' batches, never back into a finished one); the slot
//     map tolerates foreign lane ids (a worker of a wider pool driving a
//     narrower one inline). Delta blocks (one DeltaRecord per
//     entry per round that IncrementalMn folds ahead, past the first)
//     follow the same hand-off, one block per task; each executing lane
//     keeps the first-occurrence marks of its task in its *own* arena.
//
// Memory is bounded by the largest decode a thread has run:
// 32 bytes/entry/lane for the record block, 32 bytes/entry for the
// adaptive accumulator's records plus 12 (20 for the multi-edge pair) for
// its statistics, 16 bytes/entry for each round past the first of one
// fold-ahead batch (at most three), 4 bytes/entry for a lane's marks, plus
// the score and ranking vectors. POOLED_ARENA_BUDGET_MB (default
// 1024) caps the lane-partial block by capping its lane count, and the
// delta blocks by capping the rounds one batch folds ahead, never below
// one: a pass whose pool is wider than the budget admits runs on fewer
// lanes, and an adaptive decode folds fewer rounds ahead (one means the
// serial fold, with no delta block at all), with the same results.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/instance.hpp"
#include "kernels/entry_record.hpp"

namespace pooled {

/// Process-wide arena accounting: bytes currently held by decode-arena
/// buffers across every thread, plus the high-water mark. The arenas are
/// thread-local and effectively grow-only, so `live_bytes` is the steady
/// working-set cost of the pool and `peak_bytes` answers "how big did
/// the largest decode get" for the observability snapshot.
struct ArenaStats {
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
};
[[nodiscard]] ArenaStats arena_stats();

/// Accounting hooks used by the arena's buffers (relaxed atomics; a
/// free of 0 bytes is a no-op).
void arena_account_alloc(std::size_t bytes);
void arena_account_free(std::size_t bytes);

/// Sums one lane's records into the pair of `out` that `mode` names (each
/// array at least `n` long) and, when `fingerprint` is not null, their fp
/// into fingerprint[0, n): overwrites when `add` is false, adds
/// otherwise. The one record -> EntryStats transpose; LanePartials::
/// merge_into and IncrementalMn both go through it.
void fold_records(const EntryRecord* records, std::size_t n, CountMode mode,
                  bool add, EntryStats& out, std::uint64_t* fingerprint = nullptr);

/// Lanes of a `lanes`-wide pass whose blocks of `entries` records of
/// `record_bytes` each fit `budget_bytes`: clamp(budget / lane stride, 1,
/// lanes), the stride being one 64-byte-rounded block.
[[nodiscard]] unsigned lanes_within_budget(
    std::size_t budget_bytes, unsigned lanes, std::size_t entries,
    std::size_t record_bytes = sizeof(EntryRecord));

/// Lane-indexed record blocks for one entry-statistics pass.
/// Slots are claimed lock-free on first acquire and zeroed exactly once
/// per pass, so a pass that only ever runs on one lane (the batch-engine
/// case: nested parallelism executes inline) pays for one lane's memset,
/// not pool.size() of them.
class LanePartials {
 public:
  ~LanePartials();

  /// The lane's records, zeroed on this pass's first acquire (so queries
  /// fold with epoch = query + 1). `lane_id` is
  /// ThreadPool::current_lane() of the executing thread; ids need not be
  /// dense or bounded by the slot count -- only the number of *distinct*
  /// ids in one pass is: a pass with as many slots as its pool is wide
  /// may run any number of tasks, a narrower one at most one per slot.
  [[nodiscard]] EntryRecord* acquire(unsigned lane_id);

  /// `mode`'s pair of `out` (resized to the pass's entry count, the other
  /// pair emptied) = the sum of every lane claimed during this pass, and
  /// likewise fingerprint[0, entries) when it is not null; all zero when
  /// no lane was claimed (m == 0). Call after the pass's barrier.
  void merge_into(EntryStats& out, CountMode mode,
                  std::uint64_t* fingerprint = nullptr) const;

 private:
  friend class DecodeArena;
  void reset(unsigned slots, std::size_t entries);
  [[nodiscard]] EntryRecord* slot_records(unsigned slot) const;

  std::unique_ptr<std::byte[]> block_;
  std::size_t block_bytes_ = 0;
  std::size_t entries_ = 0;
  std::size_t lane_stride_ = 0;  // bytes per lane, 64-byte multiple
  unsigned slot_count_ = 0;
  unsigned owner_capacity_ = 0;
  // slot -> lane id + 1 (0 = free); atomics because pool workers race to
  // claim slots within one pass.
  std::unique_ptr<std::atomic<std::uint64_t>[]> owners_;
};

class DecodeArena {
 public:
  /// The calling thread's arena.
  static DecodeArena& local();

  /// lanes_within_budget under the POOLED_ARENA_BUDGET_MB budget
  /// (default 1024, read once per process).
  static unsigned record_lanes(unsigned lanes, std::size_t entries);

  /// The same for delta blocks of `entries` DeltaRecords: how many rounds
  /// one batch of a `lanes`-wide pool may fold ahead.
  static unsigned delta_blocks(unsigned lanes, std::size_t entries);

  // -- named scratch slots (see the affinity contract above) -------------
  double* scores(std::size_t n) { return scores_.ensure(n); }
  std::uint32_t* order(std::size_t n) { return order_.ensure(n); }
  std::uint32_t* marks(std::size_t n) { return marks_.ensure(n); }
  std::uint64_t* words_a(std::size_t n) { return words_a_.ensure(n); }
  std::uint64_t* words_b(std::size_t n) { return words_b_.ensure(n); }
  std::vector<std::uint32_t>& members() { return members_; }
  EntryStats& stats() { return stats_; }

  /// Lane record blocks for one entry-statistics pass (resets the slot
  /// map; the returned reference is valid until the next call on this
  /// thread).
  LanePartials& lane_partials(unsigned lanes, std::size_t entries);

  /// `n` records for the adaptive accumulator on this thread
  /// (IncrementalMn), contents undefined.
  EntryRecord* accumulator_records(std::size_t n) {
    return accumulator_records_.ensure(n);
  }

  /// The statistics that accumulator scores from: `mode`'s pair sized to
  /// `n` entries, the other pair emptied, contents undefined. Capacity
  /// only grows, and it counts in arena_stats().
  EntryStats& accumulator_stats(std::size_t n, CountMode mode);

  /// `count` DeltaRecords for one fold-ahead batch, contents undefined.
  /// Each call starts a new claim: delta_claim() changes, so a holder of
  /// an earlier claim can tell that its blocks are gone.
  DeltaRecord* deltas(std::size_t count) {
    ++delta_claim_;
    return deltas_.ensure(count);
  }
  [[nodiscard]] std::uint64_t delta_claim() const { return delta_claim_; }

 private:
  template <typename T>
  class Buffer {
   public:
    ~Buffer() { arena_account_free(bytes_); }

    T* ensure(std::size_t count) {
      if (count > capacity_) {
        const std::size_t need = count * sizeof(T) + 63;
        data_ = std::make_unique<std::byte[]>(need);
        arena_account_free(bytes_);
        arena_account_alloc(need);
        bytes_ = need;
        capacity_ = count;
        void* raw = data_.get();
        aligned_ = reinterpret_cast<T*>(
            (reinterpret_cast<std::uintptr_t>(raw) + 63) & ~std::uintptr_t{63});
      }
      return aligned_;
    }

   private:
    std::unique_ptr<std::byte[]> data_;
    T* aligned_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t bytes_ = 0;
  };

  /// EntryStats whose capacity counts in arena_stats().
  struct CountedStats {
    ~CountedStats() { arena_account_free(bytes); }
    EntryStats stats;
    std::size_t bytes = 0;
  };

  Buffer<double> scores_;
  Buffer<std::uint32_t> order_;
  Buffer<std::uint32_t> marks_;
  Buffer<DeltaRecord> deltas_;
  std::uint64_t delta_claim_ = 0;
  Buffer<std::uint64_t> words_a_;
  Buffer<std::uint64_t> words_b_;
  std::vector<std::uint32_t> members_;
  EntryStats stats_;
  LanePartials partials_;
  Buffer<EntryRecord> accumulator_records_;
  CountedStats accumulator_stats_;
};

}  // namespace pooled
