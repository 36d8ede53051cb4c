// Exhaustive-search machinery for the information-theoretic experiments.
//
// Theorem 2 says: above m_para, the observed (G, y) determines sigma
// uniquely w.h.p., so brute-force enumeration reconstructs it. The
// Z_k / Z_{k,ℓ} counters below measure exactly the quantities the proof
// bounds (number of consistent alternatives, stratified by overlap ℓ).
// Enumeration cost is C(n,k); callers must stay in toy ranges.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/decoder.hpp"
#include "core/instance.hpp"
#include "core/signal.hpp"

namespace pooled {

struct ConsistencyCount {
  /// Z_k(G, y): total number of weight-k vectors consistent with y
  /// (includes the ground truth when it is consistent, which it is by
  /// construction).
  std::uint64_t consistent = 0;
  /// Z_{k,ℓ}(G, y) for ℓ = 0..k: consistent vectors with overlap ℓ with
  /// the reference truth (only populated when a truth is supplied;
  /// by_overlap[k] counts the truth itself).
  std::vector<std::uint64_t> by_overlap;
  /// Vectors enumerated (== C(n,k) unless the cap aborted the scan).
  std::uint64_t enumerated = 0;
  bool truncated = false;
};

/// Counts consistent weight-k vectors by full enumeration.
/// Aborts (truncated=true) once `enumeration_cap` vectors were scanned.
ConsistencyCount count_consistent(const StreamedInstance& instance, std::uint32_t k,
                                  const Signal* truth = nullptr,
                                  std::uint64_t enumeration_cap = 100'000'000);

/// The information-theoretically optimal (exponential-time) decoder:
/// returns the unique consistent weight-k vector, or nullopt if zero or
/// multiple vectors are consistent (the student must guess -> failure).
std::optional<Signal> exhaustive_unique_decode(const StreamedInstance& instance,
                                               std::uint32_t k,
                                               std::uint64_t enumeration_cap =
                                                   100'000'000);

/// Decoder adapter: exhaustive unique decoding, falling back to the first
/// consistent vector (and to the empty support if none). Lets the
/// comparison bench include the IT-optimal decoder on toy sizes.
class ExhaustiveDecoder final : public Decoder {
 public:
  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;
  [[nodiscard]] std::string name() const override { return "exhaustive"; }
};

}  // namespace pooled
