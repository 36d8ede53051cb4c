#include "binarygt/binary_decoders.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "support/assert.hpp"

namespace pooled {

std::uint64_t optimal_gt_gamma(std::uint32_t n, std::uint32_t k) {
  POOLED_REQUIRE(n > 0 && k > 0, "optimal_gt_gamma needs n, k > 0");
  const double gamma =
      std::log(2.0) * static_cast<double>(n) / static_cast<double>(k);
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::llround(gamma)),
                                   1, n);
}

namespace {

/// COMP/DD reason "negative test => every member is a zero", which is
/// only sound when a positive outcome means >= 1 defective. A threshold-T
/// instance's negative pools may still contain up to T-1 defectives, so
/// reinterpreting them would silently drop true positives -- reject
/// instead.
void require_or_channel(const StreamedInstance& instance) {
  POOLED_REQUIRE(instance.channel() != ChannelKind::Threshold,
                 "gt:binary/gt:comp cannot decode a threshold-channel "
                 "instance (negative tests may still contain defectives); "
                 "use gt:threshold:<T>");
}

// ---------------------------------------------------------------------------
// Member-scan fallback (used only when the bit-pack is over budget)

/// Marks every entry that appears in a negative test (definite zeros).
std::vector<std::uint8_t> definite_zero_mask(const StreamedInstance& instance) {
  std::vector<std::uint8_t> zero(instance.n(), 0);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < instance.m(); ++q) {
    if (instance.results()[q] != 0) continue;
    instance.query_members(q, members);
    for (std::uint32_t entry : members) zero[entry] = 1;
  }
  return zero;
}

std::uint32_t count_set(const std::vector<std::uint8_t>& mask) {
  std::uint32_t count = 0;
  for (std::uint8_t bit : mask) count += bit;
  return count;
}

BinaryDecodeResult decode_comp_scan(const StreamedInstance& instance) {
  const auto zero = definite_zero_mask(instance);
  std::vector<std::uint32_t> support;
  for (std::uint32_t i = 0; i < instance.n(); ++i) {
    if (!zero[i]) support.push_back(i);
  }
  return BinaryDecodeResult{Signal(instance.n(), support), count_set(zero),
                            static_cast<std::uint32_t>(support.size())};
}

BinaryDecodeResult decode_dd_scan(const StreamedInstance& instance) {
  const auto zero = definite_zero_mask(instance);
  // A candidate (non-disqualified entry) is definitely defective if it is
  // the only candidate of some positive test.
  std::vector<std::uint8_t> definite(instance.n(), 0);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < instance.m(); ++q) {
    if (instance.results()[q] == 0) continue;
    instance.query_members(q, members);
    std::uint32_t candidate = 0;
    std::uint32_t candidates = 0;
    for (std::uint32_t entry : members) {
      if (zero[entry]) continue;
      if (candidates == 0) {
        candidate = entry;
        candidates = 1;
      } else if (entry != candidate) {  // multi-edge duplicates count once
        candidates = 2;
        break;
      }
    }
    if (candidates == 1) definite[candidate] = 1;
  }
  std::vector<std::uint32_t> support;
  for (std::uint32_t i = 0; i < instance.n(); ++i) {
    if (definite[i]) support.push_back(i);
  }
  return BinaryDecodeResult{Signal(instance.n(), support), count_set(zero),
                            static_cast<std::uint32_t>(support.size())};
}

// ---------------------------------------------------------------------------
// Bit-packed paths: whole 64-entry blocks per instruction

/// OR of all negative pools into the arena's word buffer.
std::uint64_t* packed_zero_mask(const StreamedInstance& instance,
                                const PackedPools& packed,
                                const KernelSet& kernels) {
  std::uint64_t* zero = DecodeArena::local().words_a(packed.words);
  std::memset(zero, 0, packed.words * sizeof(std::uint64_t));
  for (std::uint32_t q = 0; q < instance.m(); ++q) {
    if (instance.results()[q] != 0) continue;
    kernels.or_words(zero, packed.row(q), packed.words);
  }
  return zero;
}

/// Ascending indices of the *cleared* bits below n.
std::vector<std::uint32_t> cleared_indices(const std::uint64_t* mask,
                                           std::uint32_t n, std::size_t words) {
  std::vector<std::uint32_t> out;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t cleared = ~mask[w];
    if (w == words - 1 && (n & 63) != 0) {
      cleared &= (std::uint64_t{1} << (n & 63)) - 1;  // drop padding bits
    }
    while (cleared != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(cleared));
      out.push_back(static_cast<std::uint32_t>(w * 64 + bit));
      cleared &= cleared - 1;
    }
  }
  return out;
}

/// Ascending indices of the *set* bits (padding is never set).
std::vector<std::uint32_t> set_indices(const std::uint64_t* mask,
                                       std::size_t words) {
  std::vector<std::uint32_t> out;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t set = mask[w];
    while (set != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(set));
      out.push_back(static_cast<std::uint32_t>(w * 64 + bit));
      set &= set - 1;
    }
  }
  return out;
}

BinaryDecodeResult decode_comp_packed(const StreamedInstance& instance,
                                      const PackedPools& packed) {
  const KernelSet& kernels = active_kernels();
  const std::uint64_t* zero = packed_zero_mask(instance, packed, kernels);
  const auto zeros =
      static_cast<std::uint32_t>(kernels.popcount_words(zero, packed.words));
  std::vector<std::uint32_t> support =
      cleared_indices(zero, instance.n(), packed.words);
  const auto ones = static_cast<std::uint32_t>(support.size());
  return BinaryDecodeResult{Signal(instance.n(), std::move(support)), zeros,
                            ones};
}

BinaryDecodeResult decode_dd_packed(const StreamedInstance& instance,
                                    const PackedPools& packed) {
  const KernelSet& kernels = active_kernels();
  DecodeArena& arena = DecodeArena::local();
  const std::uint64_t* zero = packed_zero_mask(instance, packed, kernels);
  const auto zeros =
      static_cast<std::uint32_t>(kernels.popcount_words(zero, packed.words));
  std::uint64_t* definite = arena.words_b(packed.words);
  std::memset(definite, 0, packed.words * sizeof(std::uint64_t));
  for (std::uint32_t q = 0; q < instance.m(); ++q) {
    if (instance.results()[q] == 0) continue;
    const std::uint64_t* row = packed.row(q);
    // Distinct candidates of the pool = popcount(row & ~zero); a positive
    // test with exactly one candidate proves it defective.
    if (kernels.andnot_popcount(row, zero, packed.words) == 1) {
      for (std::size_t w = 0; w < packed.words; ++w) {
        const std::uint64_t candidate = row[w] & ~zero[w];
        if (candidate != 0) {
          definite[w] |= candidate;
          break;
        }
      }
    }
  }
  std::vector<std::uint32_t> support = set_indices(definite, packed.words);
  const auto ones = static_cast<std::uint32_t>(support.size());
  return BinaryDecodeResult{Signal(instance.n(), std::move(support)), zeros,
                            ones};
}

}  // namespace

BinaryDecodeResult decode_comp(const StreamedInstance& instance,
                               ThreadPool* pool) {
  require_or_channel(instance);
  if (const PackedPools* packed = instance.packed_pools(pool)) {
    return decode_comp_packed(instance, *packed);
  }
  return decode_comp_scan(instance);
}

BinaryDecodeResult decode_dd(const StreamedInstance& instance, ThreadPool* pool) {
  require_or_channel(instance);
  if (const PackedPools* packed = instance.packed_pools(pool)) {
    return decode_dd_packed(instance, *packed);
  }
  return decode_dd_scan(instance);
}

DecodeOutcome BinaryGtDecoder::decode(const StreamedInstance& instance,
                                      const DecodeContext& context) const {
  // The context only supplies the pool that parallelizes the one-time
  // pool bit-pack.
  ThreadPool* pool = &context.thread_pool();
  BinaryDecodeResult result = rule_ == Rule::Dd ? decode_dd(instance, pool)
                                                : decode_comp(instance, pool);
  return one_shot_outcome(std::move(result.estimate), instance, instance.n());
}

std::string BinaryGtDecoder::name() const {
  return rule_ == Rule::Dd ? "gt-dd" : "gt-comp";
}

}  // namespace pooled
