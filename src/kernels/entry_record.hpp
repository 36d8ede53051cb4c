// One entry's partial statistics in one accumulation lane, and the fold
// of a query's draws into them.
//
// A streamed decode folds every one of its m*Γ membership draws into the
// record of the drawn entry. Keeping the four EntryStats fields and the
// epoch mark of an entry together in one 32-byte record means a draw
// touches one cache line (records are 32-byte aligned inside 64-byte
// aligned lane blocks, so none straddles a line). LanePartials in
// kernels/decode_arena.hpp transposes the records into EntryStats' four
// arrays once per pass.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pooled {

struct alignas(32) EntryRecord {
  std::uint64_t psi;         ///< Σ y over distinct queries containing the entry
  std::uint64_t psi_multi;   ///< Σ multiplicity * y
  std::uint64_t delta;       ///< draws with multiplicity
  std::uint32_t delta_star;  ///< distinct queries containing the entry
  std::uint32_t mark;        ///< epoch of the last query that drew the entry
};
static_assert(sizeof(EntryRecord) == 32, "one record is half a cache line");

/// Folds one query's raw membership draws (duplicates included) into
/// `records`. `epoch` must be unique to this query among the folds into
/// these records and nonzero, the mark of a zeroed record (queries fold
/// with epoch = query + 1): first occurrences bump psi/delta_star, every
/// occurrence bumps psi_multi/delta. The first-occurrence test is a 0/1
/// mask, not a branch, so repeated draws never mispredict.
inline void accumulate_query(const std::uint32_t* members, std::size_t count,
                             std::uint32_t epoch, std::uint64_t yq,
                             EntryRecord* records) {
  for (std::size_t j = 0; j < count; ++j) {
    EntryRecord& record = records[members[j]];
    const std::uint32_t first = record.mark != epoch ? 1u : 0u;
    record.mark = epoch;
    record.psi += yq & (std::uint64_t{0} - first);
    record.delta_star += first;
    record.psi_multi += yq;
    record.delta += 1;
  }
}

}  // namespace pooled
