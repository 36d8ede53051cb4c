// A pooled-data instance: the observable data (G, y) handed to the
// student in the teacher-student model.
//
// StreamedInstance keeps only (design, m, y) and regenerates any query
// from the design's keyed Philox stream: O(n + m) memory, where the
// graph itself has ~m*n/2 edges at paper scale. Every decoder reads this
// one class; the baselines that need matrix access build a CsrMatrix
// from it (linalg/csr_matrix.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/signal.hpp"
#include "design/design.hpp"
#include "graph/packed_pools.hpp"
#include "support/thread_annotations.hpp"

namespace pooled {

class ThreadPool;

/// Output channel a query's pooled sum is observed through (§I.D / §VI):
/// the quantitative channel reports the sum itself, the group-testing
/// channels collapse it to one bit.
enum class ChannelKind : std::uint8_t {
  Quantitative,  ///< y = Σ σ_i over the pool (the paper's main model)
  Binary,        ///< y = 1{Σ ≥ 1} (OR channel, binary group testing)
  Threshold,     ///< y = 1{Σ ≥ T} (threshold group testing)
};

/// Observed value of a pooled sum under the channel.
[[nodiscard]] constexpr std::uint32_t apply_channel(std::uint32_t sum,
                                                    ChannelKind channel,
                                                    std::uint32_t threshold) {
  switch (channel) {
    case ChannelKind::Quantitative:
      return sum;
    case ChannelKind::Binary:
      return sum >= 1 ? 1 : 0;
    case ChannelKind::Threshold:
      return sum >= threshold ? 1 : 0;
  }
  return sum;
}

/// What an entry-statistics pass counts, and so which pair of EntryStats
/// arrays it fills. The score decides (MnDecoder::count_mode): every score
/// but the multi-edge ablation reads the Distinct pair.
enum class CountMode : std::uint8_t {
  Distinct,   ///< first occurrences per query: psi (Ψ) and delta_star (Δ*)
  EveryDraw,  ///< every draw, multi-edges included: psi_multi and delta (Δ)
};

/// Per-entry aggregates used by the MN decoder (paper notation):
///   psi[i]        Ψ_i  = sum of y_a over *distinct* queries containing i
///   psi_multi[i]  = sum of multiplicity_ia * y_a (multi-edge-weighted, for
///                   the score ablation)
///   delta[i]      Δ_i  = membership count with multiplicity
///   delta_star[i] Δ*_i = number of distinct queries containing i
/// A pass fills the pair its CountMode names and leaves the other pair
/// empty: stats are reused across decodes, and an empty pair cannot be
/// mistaken for a current one.
struct EntryStats {
  std::vector<std::uint64_t> psi;
  std::vector<std::uint64_t> psi_multi;
  std::vector<std::uint64_t> delta;
  std::vector<std::uint32_t> delta_star;

  /// Sizes `mode`'s pair to n entries and empties the other pair.
  void resize(std::size_t n, CountMode mode) {
    if (mode == CountMode::Distinct) {
      psi.resize(n);
      delta_star.resize(n);
      psi_multi.clear();
      delta.clear();
    } else {
      psi_multi.resize(n);
      delta.resize(n);
      psi.clear();
      delta_star.clear();
    }
  }

  /// Entries in `mode`'s pair (0 when the last pass counted the other).
  [[nodiscard]] std::size_t size(CountMode mode) const {
    return mode == CountMode::Distinct ? psi.size() : psi_multi.size();
  }
};

/// Freivalds fingerprint (R. Freivalds, IFIP 1977) of the linear system
/// Ax = y of a quantitative instance's first `queries` queries, where
/// A_qi counts the draws of entry i in query q. With 64-bit weights r_q
/// (fingerprint_weight),
///   entries[i] = Σ_{q<c} r_q A_qi   and   target = Σ_{q<c} r_q y_q
/// (mod 2^64, c = queries), so a 0/1 candidate with support S passes iff
/// Σ_{i∈S} entries[i] == target: r·(Ax) = r·y over the prefix, an O(k)
/// test. One-sided: a mismatch proves Ax != y; a match on an
/// inconsistent candidate has probability <= 2^(v-64), 2^v the largest
/// power of two dividing every residual of Ax - y. Residuals are below
/// 2^32 in magnitude, so that is <= 2^-33. A one-shot entry-statistics
/// pass covers all m queries, and so does an adaptive MN decode, which
/// completes the fingerprint of the prefix it folded; a cancelled one
/// covers only that prefix.
struct QueryFingerprint {
  std::vector<std::uint64_t> entries;
  std::uint64_t target = 0;
  std::uint32_t queries = 0;  ///< the fingerprint covers queries [0, queries)
};

/// r_q, query q's fingerprint weight: one Philox block, keyed by a
/// per-process secret drawn from std::random_device so no client can
/// choose results that collide. Every fold of a fingerprint (the one-shot
/// pass and IncrementalMn) draws its weights here, so their fingerprints
/// agree.
[[nodiscard]] std::uint64_t fingerprint_weight(std::uint32_t query);

/// Instance that regenerates queries from the design's keyed streams.
/// Optionally carries a one-bit observation channel: the group-testing
/// instances of §I.D / §VI are this class with y 0/1 per query, decoded
/// by COMP/DD (binarygt/) and threshold-MN (thresholdgt/) directly.
class StreamedInstance {
 public:
  StreamedInstance(std::shared_ptr<const PoolingDesign> design, std::uint32_t m,
                   std::vector<std::uint32_t> y,
                   ChannelKind channel = ChannelKind::Quantitative,
                   std::uint32_t threshold = 1);

  [[nodiscard]] std::uint32_t n() const { return design_->num_entries(); }
  [[nodiscard]] std::uint32_t m() const { return m_; }

  /// Query results y (the only signal-dependent observable).
  [[nodiscard]] const std::vector<std::uint32_t>& results() const { return y_; }

  /// Membership draws of query j, duplicates included.
  void query_members(std::uint32_t query, std::vector<std::uint32_t>& out) const;

  /// Computes the per-entry aggregates `mode` names (parallel over
  /// queries) into `out`: that pair gets n() entries, the other pair is
  /// emptied. Decoders pass arena-owned stats so the steady state
  /// allocates nothing. On the quantitative channel, a pass run while the
  /// published fingerprint covers fewer than m queries (or none is
  /// published) also records one of all m queries.
  void entry_stats_into(ThreadPool& pool, EntryStats& out, CountMode mode) const;

  /// The Distinct pass (Ψ, Δ*), which the centred MN score reads.
  void entry_stats_into(ThreadPool& pool, EntryStats& out) const {
    entry_stats_into(pool, out, CountMode::Distinct);
  }

  /// Convenience wrapper returning fresh vectors.
  [[nodiscard]] EntryStats entry_stats(ThreadPool& pool,
                                       CountMode mode = CountMode::Distinct) const {
    EntryStats stats;
    entry_stats_into(pool, stats, mode);
    return stats;
  }

  /// The fingerprint of Ax = y over a query prefix, or nullptr; only the
  /// quantitative channel carries one, recorded by the entry-statistics
  /// pass or published by an adaptive MN decode (all m queries, or a
  /// cancelled decode's folded prefix). The returned print stays
  /// readable while the caller holds it, even once a longer one replaces
  /// it (see publish_fingerprint).
  [[nodiscard]] std::shared_ptr<const QueryFingerprint> fingerprint() const;

  /// Publishes `print` as fingerprint() when it covers more queries than
  /// the published one (or none is published), so concurrent publishers
  /// leave the longest prefix. Quantitative channel only; `print` covers
  /// at most m queries of the n entries.
  void publish_fingerprint(QueryFingerprint print) const;

  /// Output channel the observed results() went through.
  [[nodiscard]] ChannelKind channel() const { return channel_; }

  /// Threshold T for ChannelKind::Threshold (1 otherwise).
  [[nodiscard]] std::uint32_t channel_threshold() const { return threshold_; }

  /// True if the candidate explains every observed query result. The
  /// fingerprint() answers the queries it covers in O(k) (one-sided error
  /// <= 2^-33); the exact pass regenerates the rest, so a fingerprint of
  /// all m queries leaves no pass, and no fingerprint leaves a full one.
  [[nodiscard]] bool is_consistent(const Signal& candidate) const;

  /// Sum of all query results (= sum_i sigma_i * Δ_i).
  [[nodiscard]] std::uint64_t total_result() const;

  [[nodiscard]] const PoolingDesign& design() const { return *design_; }
  /// Shared ownership of the design (prefix, noisy and channel-collapsed
  /// instances are rebuilt around it).
  [[nodiscard]] const std::shared_ptr<const PoolingDesign>& design_ptr() const {
    return design_;
  }

  /// Bit-packed distinct-membership masks of the m pools, built once
  /// (thread-safely, by regenerating every pool; `pool` parallelizes the
  /// build) on first use, so the popcount kernels of COMP/DD consume 64
  /// entries per instruction. nullptr when the pack exceeds
  /// POOLED_PACK_BUDGET_MB -- callers then member-scan instead.
  [[nodiscard]] const PackedPools* packed_pools(ThreadPool* pool) const;

 private:
  std::shared_ptr<const PoolingDesign> design_;
  std::uint32_t m_;
  std::vector<std::uint32_t> y_;
  ChannelKind channel_ = ChannelKind::Quantitative;
  std::uint32_t threshold_ = 1;
  // The longest prefix any pass or adaptive decode has published.
  mutable AnnotatedMutex fingerprint_mutex_;
  mutable std::shared_ptr<const QueryFingerprint> fingerprint_
      POOLED_GUARDED_BY(fingerprint_mutex_);
  mutable std::once_flag packed_once_;
  mutable std::unique_ptr<const PackedPools> packed_;
};

/// Runs the m parallel queries of `design` against `truth`, observed
/// through `channel`. The returned y is what a lab would hand back after
/// one parallel round.
std::vector<std::uint32_t> simulate_queries(
    const PoolingDesign& design, std::uint32_t m, const Signal& truth,
    ThreadPool& pool, ChannelKind channel = ChannelKind::Quantitative,
    std::uint32_t threshold = 1);

/// Teacher step on any channel: binary group testing is
/// `ChannelKind::Binary`, threshold-T group testing
/// `(ChannelKind::Threshold, T)`.
std::unique_ptr<StreamedInstance> make_streamed_instance(
    std::shared_ptr<const PoolingDesign> design, std::uint32_t m,
    const Signal& truth, ThreadPool& pool,
    ChannelKind channel = ChannelKind::Quantitative, std::uint32_t threshold = 1);

}  // namespace pooled
