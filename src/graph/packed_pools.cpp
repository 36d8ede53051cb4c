#include "graph/packed_pools.hpp"

#include "kernels/decode_arena.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/env.hpp"

namespace pooled {

std::unique_ptr<PackedPools> pack_pools(const PoolingDesign& design,
                                        std::uint32_t m, ThreadPool* pool) {
  static const std::size_t budget = env_budget_bytes("POOLED_PACK_BUDGET_MB", 512);
  const std::uint32_t n = design.num_entries();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  if (words != 0 && static_cast<std::size_t>(m) > budget / (words * 8)) {
    return nullptr;
  }
  auto packed = std::make_unique<PackedPools>();
  packed->n = n;
  packed->m = m;
  packed->words = words;
  packed->bits.assign(static_cast<std::size_t>(m) * words, 0);
  std::uint64_t* bits = packed->bits.data();
  const auto pack_range = [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t>& members = DecodeArena::local().members();
    for (std::size_t q = lo; q < hi; ++q) {
      design.query_members(static_cast<std::uint32_t>(q), members);
      std::uint64_t* row = bits + q * words;
      for (std::uint32_t entry : members) {
        row[entry >> 6] |= std::uint64_t{1} << (entry & 63);
      }
    }
  };
  if (pool != nullptr) {
    parallel_for_chunked(*pool, 0, m, 1, pack_range);
  } else {
    pack_range(0, m);
  }
  return packed;
}

}  // namespace pooled
