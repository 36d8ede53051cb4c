// Bit-packed pool membership: one bit per (query, entry), 64 entries per
// word. The binary group-testing decoders (COMP, DD) only care about
// *distinct* membership, which a bitmap represents natively -- multi-edge
// duplicates collapse, and whole 64-entry blocks are combined or counted
// per instruction by the popcount kernels.
//
// Building the pack regenerates every query from the design once (the
// same cost a single scalar decode pass pays); afterwards every decode
// pass over the pools is pure word arithmetic. A StreamedInstance builds
// its pack once, on first use (StreamedInstance::packed_pools).
// POOLED_PACK_BUDGET_MB (default 512) caps the m x ceil(n/64) x 8B
// footprint; COMP/DD fall back to their member-scan paths when packing
// is declined.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "design/design.hpp"

namespace pooled {

class ThreadPool;

struct PackedPools {
  std::uint32_t n = 0;
  std::uint32_t m = 0;
  std::size_t words = 0;  ///< words per query row = ceil(n / 64)

  /// Row-major masks, m rows of `words` words; bits past n are zero.
  std::vector<std::uint64_t> bits;

  [[nodiscard]] const std::uint64_t* row(std::uint32_t query) const {
    return bits.data() + static_cast<std::size_t>(query) * words;
  }
};

/// Packs the first m pools of `design`; parallel over queries when `pool`
/// is non-null. Returns nullptr when the footprint exceeds the
/// POOLED_PACK_BUDGET_MB budget.
std::unique_ptr<PackedPools> pack_pools(const PoolingDesign& design,
                                        std::uint32_t m, ThreadPool* pool);

}  // namespace pooled
