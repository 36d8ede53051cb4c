// Runtime-dispatched decode kernels.
//
// Every decode in the system bottoms out in a handful of tight loops:
// evaluating the four MN score variants over per-entry statistics,
// regenerating a query's draws from the Philox stream, and word-at-a-time
// operations on bit-packed pool masks for the one-bit channels. This
// header names those loops as a `KernelSet` of function pointers with two
// implementations: the portable scalar reference and AVX2 (x86-64),
// selected once at startup by CPUID-style feature detection. Two loops
// are not slots, because one portable body serves every ISA: folding the
// draws into the statistics (a scatter, accumulate_query in
// kernels/entry_record.hpp) and the top-k selection over the n scores
// (one scan, select_top_k_into below).
//
// Contract: every variant is *bit-identical* to the scalar reference --
// same IEEE-754 operations in the same per-element order (the library
// builds with -ffp-contract=off so no variant, scalar included, fuses a
// multiply-subtract), same integer sums, same tie-breaks. The
// differential suite (tests/test_kernels.cpp) asserts this on every ISA
// the host can run.
//
// Override for testing/benching: set POOLED_KERNELS=scalar|avx2|auto
// before the first decode, or call set_active_kernels() in-process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pooled {

enum class KernelIsa : std::uint8_t { Scalar, Avx2 };

/// Stable lowercase name ("scalar", "avx2").
[[nodiscard]] const char* kernel_isa_name(KernelIsa isa);

struct KernelSet {
  KernelIsa isa = KernelIsa::Scalar;

  // -- MN score evaluation (one slot per MnScore variant) ---------------
  // All ranges are [lo, hi) so parallel_for chunks can call directly.
  // Conversions u64/u32 -> double are exact round-to-nearest (the AVX2
  // variant uses the split-high/low magic-constant form, which rounds
  // identically to a scalar static_cast for the full integer range).

  /// out[i] = psi[i] - delta_star[i] * center  (CentralizedPsi; the
  /// threshold-GT decoder reuses it with center = mean outcome).
  void (*score_centered)(const std::uint64_t* psi, const std::uint32_t* delta_star,
                         std::size_t lo, std::size_t hi, double center,
                         double* out);
  /// out[i] = psi[i]  (RawPsi).
  void (*score_raw)(const std::uint64_t* psi, std::size_t lo, std::size_t hi,
                    double* out);
  /// out[i] = delta_star[i] == 0 ? 0 : psi[i] / delta_star[i]  (NormalizedPsi).
  void (*score_normalized)(const std::uint64_t* psi, const std::uint32_t* delta_star,
                           std::size_t lo, std::size_t hi, double* out);
  /// out[i] = psi_multi[i] - delta[i] * center  (MultiEdgePsi).
  void (*score_multiedge)(const std::uint64_t* psi_multi, const std::uint64_t* delta,
                          std::size_t lo, std::size_t hi, double center,
                          double* out);

  // -- query regeneration ------------------------------------------------

  /// `count` uniform draws from [0, n) with replacement, bit-identical to
  /// PhiloxStream(seed, stream) + sample_with_replacement: the Philox
  /// 4x32-10 outputs of blocks 0,1,... are consumed 32 bits at a time in
  /// order and Lemire-mapped with rejection below `threshold`
  /// (= (2^32 - n) % n, precomputed by the caller). `key` is the
  /// splitmix64-mixed seed, `stream` the splitmix64-mixed stream id.
  void (*sample_u32)(std::uint32_t key0, std::uint32_t key1, std::uint64_t stream,
                     std::uint32_t n, std::uint32_t threshold, std::size_t count,
                     std::uint32_t* out);

  // -- bit-packed pool masks (64 entries per word) -----------------------

  /// dst[w] |= src[w].
  void (*or_words)(std::uint64_t* dst, const std::uint64_t* src, std::size_t words);
  /// popcount over a.
  std::uint64_t (*popcount_words)(const std::uint64_t* a, std::size_t words);
  /// popcount(a & ~mask).
  std::uint64_t (*andnot_popcount)(const std::uint64_t* a, const std::uint64_t* mask,
                                   std::size_t words);
  /// popcount(a & b).
  std::uint64_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words);
};

/// The set chosen at startup (best available ISA, or the POOLED_KERNELS
/// override). Cheap to call; fetch once per kernel-heavy region.
[[nodiscard]] const KernelSet& active_kernels();

/// The named variant, or nullptr when this build/CPU cannot run it.
[[nodiscard]] const KernelSet* kernels_for(KernelIsa isa);

/// Every variant runnable on this host (scalar always included). The
/// differential tests iterate this.
[[nodiscard]] std::vector<KernelIsa> available_kernel_isas();

/// Replaces the active set (tests/benches compare variants in-process);
/// returns the previously active set. Do not call concurrently with
/// decodes.
const KernelSet& set_active_kernels(const KernelSet& set);

/// Exact deterministic top-k under (score desc, index asc): the k <= n
/// best indices, ascending, into out[0, k). One scan keeps the k best so
/// far in a heap in `out` (worst on top); a later index enters only by
/// scoring strictly higher than that worst, so ties keep the lower index.
/// O(n) plus O(log k) per entry that enters, O(n log k) at worst
/// (ascending scores). Scores must be NaN-free.
void select_top_k_into(const double* scores, std::size_t n, std::uint32_t k,
                       std::uint32_t* out);

}  // namespace pooled
