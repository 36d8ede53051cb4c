// One entry's partial statistics in one accumulation lane, and the fold
// of a query's draws into them.
//
// A streamed decode folds every one of its m*Γ membership draws into the
// record of the drawn entry. Keeping everything a draw updates in one
// 32-byte record means a draw touches one cache line (records are
// 32-byte aligned inside 64-byte aligned lane blocks, so none straddles a
// line). The score decides what a pass counts (CountMode): first
// occurrences for Ψ/Δ*, or every draw for the multi-edge ablation's
// Ψ_multi/Δ. Every draw also adds its query's fingerprint weight r_q
// (fingerprint_weight), so a quantitative instance can check Ax = y in
// O(k) afterwards (see QueryFingerprint in core/instance.hpp). Two folds
// pass r_q: StreamedInstance's pass while it records a fingerprint (0
// once one is published), and IncrementalMn for every query it folds.
// LanePartials in kernels/decode_arena.hpp transposes the records into
// the EntryStats pair the mode names once per pass.
//
// The fold has one body over two layouts: EntryRecord blocks (the
// one-shot pass's lanes and IncrementalMn's records) and the 16-byte
// DeltaRecord blocks that IncrementalMn folds rounds ahead into, whose
// first-occurrence marks live apart, in the executing lane's arena.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/instance.hpp"

namespace pooled {

struct alignas(32) EntryRecord {
  std::uint64_t sum;    ///< Ψ (Distinct) or Ψ_multi (EveryDraw)
  std::uint64_t fp;     ///< Σ r_q over every draw of the entry, wrapping
  std::uint64_t count;  ///< Δ* (Distinct) or Δ (EveryDraw)
  std::uint32_t mark;   ///< epoch of the last query that drew the entry (Distinct)
};
static_assert(sizeof(EntryRecord) == 32, "one record is half a cache line");

/// One entry's sums over one block of queries, folded ahead of the
/// statistics they are later added to. 32-bit sums are exact only while
/// the block's Σ y_q (Distinct) or Σ y_q·draws and Σ draws (EveryDraw)
/// stay below 2^32; IncrementalMn folds a block past that serially.
struct DeltaRecord {
  std::uint64_t fp;
  std::uint32_t sum;
  std::uint32_t count;
};
static_assert(sizeof(DeltaRecord) == 16, "a delta is a quarter cache line");

/// Where a fold writes: one EntryRecord per entry, mark included.
struct RecordLayout {
  EntryRecord* records;

  [[nodiscard]] EntryRecord& record(std::uint32_t entry) const {
    return records[entry];
  }
  [[nodiscard]] std::uint32_t& mark(std::uint32_t entry) const {
    return records[entry].mark;
  }
};

/// Where a fold writes: a DeltaRecord block plus the executing lane's
/// marks (null when every draw counts).
struct DeltaLayout {
  DeltaRecord* deltas;
  std::uint32_t* marks;

  [[nodiscard]] DeltaRecord& record(std::uint32_t entry) const {
    return deltas[entry];
  }
  [[nodiscard]] std::uint32_t& mark(std::uint32_t entry) const {
    return marks[entry];
  }
};

/// Folds one query's raw membership draws (duplicates included) into
/// `out`, adding `weight` (the query's r_q, or 0) to every draw's fp.
/// Distinct: `epoch` must be unique to this query among the folds into
/// these marks and nonzero, the mark of a zeroed entry (queries fold with
/// epoch = their position + 1); only first occurrences add `yq` and 1,
/// and the first-occurrence test is a 0/1 mask, not a branch, so
/// repeated draws never mispredict. EveryDraw: every occurrence adds them
/// and `epoch` is unused.
template <CountMode Mode, typename Layout>
inline void accumulate_query(const std::uint32_t* members, std::size_t count,
                             std::uint32_t epoch, std::uint64_t yq,
                             std::uint64_t weight, const Layout& out) {
  // Field by field through one record reference: written as one layout
  // call per draw, GCC 12 fused sum and fp into a 128-bit add, 12% slower
  // where the records sit in L1 (n = 10^3).
  for (std::size_t j = 0; j < count; ++j) {
    auto& record = out.record(members[j]);
    if constexpr (Mode == CountMode::Distinct) {
      std::uint32_t& mark = out.mark(members[j]);
      const std::uint64_t first = mark != epoch ? 1u : 0u;
      mark = epoch;
      record.sum += yq & (std::uint64_t{0} - first);
      record.count += first;
    } else {
      record.sum += yq;
      record.count += 1;
    }
    record.fp += weight;
  }
}

/// accumulate_query with the mode chosen at run time (once per query).
template <typename Layout>
inline void accumulate_query(CountMode mode, const std::uint32_t* members,
                             std::size_t count, std::uint32_t epoch,
                             std::uint64_t yq, std::uint64_t weight,
                             const Layout& out) {
  if (mode == CountMode::Distinct) {
    accumulate_query<CountMode::Distinct>(members, count, epoch, yq, weight, out);
  } else {
    accumulate_query<CountMode::EveryDraw>(members, count, epoch, yq, weight, out);
  }
}

}  // namespace pooled
