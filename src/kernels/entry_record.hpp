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

/// Folds one query's raw membership draws (duplicates included) into
/// `records`, adding `weight` (the query's r_q, or 0) to every draw's fp.
/// Distinct: `epoch` must be unique to this query among the folds into
/// these records and nonzero, the mark of a zeroed record (queries fold
/// with epoch = query + 1); only first occurrences add `yq` and 1, and
/// the first-occurrence test is a 0/1 mask, not a branch, so repeated
/// draws never mispredict. EveryDraw: every occurrence adds them and
/// `epoch` is unused.
template <CountMode Mode>
inline void accumulate_query(const std::uint32_t* members, std::size_t count,
                             std::uint32_t epoch, std::uint64_t yq,
                             std::uint64_t weight, EntryRecord* records) {
  for (std::size_t j = 0; j < count; ++j) {
    EntryRecord& record = records[members[j]];
    if constexpr (Mode == CountMode::Distinct) {
      const std::uint64_t first = record.mark != epoch ? 1u : 0u;
      record.mark = epoch;
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
inline void accumulate_query(CountMode mode, const std::uint32_t* members,
                             std::size_t count, std::uint32_t epoch,
                             std::uint64_t yq, std::uint64_t weight,
                             EntryRecord* records) {
  if (mode == CountMode::Distinct) {
    accumulate_query<CountMode::Distinct>(members, count, epoch, yq, weight,
                                          records);
  } else {
    accumulate_query<CountMode::EveryDraw>(members, count, epoch, yq, weight,
                                           records);
  }
}

}  // namespace pooled
