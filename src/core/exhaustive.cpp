#include "core/exhaustive.hpp"

#include <algorithm>
#include <functional>

#include "kernels/decode_arena.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

/// Shared combination enumerator with branch-and-bound pruning.
///
/// Walks all weight-k supports in lexicographic order while maintaining
/// the partial result vector. Since entry contributions are non-negative,
/// a branch dies as soon as any query result overshoots its target --
/// that prune is what makes toy-scale exhaustive decoding practical well
/// above C(n,k) ~ 10^6.
class Enumerator {
 public:
  Enumerator(const StreamedInstance& instance, std::uint32_t k, std::uint64_t cap)
      : n_(instance.n()), m_(instance.m()), k_(k), cap_(cap),
        targets_(instance.results()) {
    POOLED_REQUIRE(k_ <= n_, "weight exceeds signal length");
    // The per-entry adjacency is CSR-flattened (one edge array + offsets)
    // so the branch-and-bound apply() walks contiguous memory instead of
    // n separate vectors. Queries are regenerated into the decode arena;
    // a counting sort by entry keeps each entry's queries ascending.
    std::vector<std::uint32_t>& members = DecodeArena::local().members();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> triples;  // entry -> (q, mult)
    std::vector<std::uint32_t> triple_entry;
    for (std::uint32_t q = 0; q < m_; ++q) {
      instance.query_members(q, members);
      std::sort(members.begin(), members.end());
      for (std::size_t i = 0; i < members.size();) {
        std::size_t j = i;
        while (j < members.size() && members[j] == members[i]) ++j;
        triples.push_back({q, static_cast<std::uint32_t>(j - i)});
        triple_entry.push_back(members[i]);
        i = j;
      }
    }
    offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (std::uint32_t entry : triple_entry) ++offsets_[entry + 1];
    for (std::uint32_t i = 0; i < n_; ++i) offsets_[i + 1] += offsets_[i];
    edges_.resize(triples.size());
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t t = 0; t < triples.size(); ++t) {
      edges_[cursor[triple_entry[t]]++] = triples[t];
    }
    acc_.assign(m_, 0);
    mismatched_ = 0;
    for (std::uint32_t q = 0; q < m_; ++q) {
      if (targets_[q] != 0) ++mismatched_;
    }
  }

  /// Calls visit(support) for every consistent support until it returns
  /// false. Returns true if the scan was truncated by the cap.
  bool run(const std::function<bool(const std::vector<std::uint32_t>&)>& visit) {
    visit_ = &visit;
    aborted_ = false;
    truncated_ = false;
    leaves_ = 0;
    stack_.clear();
    if (k_ == 0) {
      ++leaves_;
      if (mismatched_ == 0) aborted_ = !visit(stack_);
      return truncated_;
    }
    descend(0);
    return truncated_;
  }

  [[nodiscard]] std::uint64_t leaves() const { return leaves_; }

 private:
  void apply(std::uint32_t entry, int sign) {
    const std::size_t begin = offsets_[entry];
    const std::size_t end = offsets_[entry + 1];
    for (std::size_t e = begin; e < end; ++e) {
      const auto& [q, mult] = edges_[e];
      const bool was_match = acc_[q] == targets_[q];
      const bool was_over = acc_[q] > targets_[q];
      acc_[q] = sign > 0 ? acc_[q] + mult : acc_[q] - mult;
      const bool is_match = acc_[q] == targets_[q];
      const bool is_over = acc_[q] > targets_[q];
      mismatched_ += (was_match ? 1 : 0) - (is_match ? 1 : 0);
      overshoot_ += (is_over ? 1 : 0) - (was_over ? 1 : 0);
    }
  }

  void descend(std::uint32_t first) {
    if (aborted_ || truncated_) return;
    const auto depth = static_cast<std::uint32_t>(stack_.size());
    for (std::uint32_t entry = first; entry + (k_ - depth) <= n_; ++entry) {
      apply(entry, +1);
      stack_.push_back(entry);
      if (overshoot_ == 0) {
        if (depth + 1 == k_) {
          ++leaves_;
          if (mismatched_ == 0 && !(*visit_)(stack_)) aborted_ = true;
          if (leaves_ >= cap_) truncated_ = true;
        } else {
          descend(entry + 1);
        }
      } else if (depth + 1 == k_) {
        ++leaves_;
        if (leaves_ >= cap_) truncated_ = true;
      }
      stack_.pop_back();
      apply(entry, -1);
      if (aborted_ || truncated_) return;
    }
  }

  std::uint32_t n_, m_, k_;
  std::uint64_t cap_;
  const std::vector<std::uint32_t>& targets_;
  std::vector<std::size_t> offsets_;  // CSR: entry -> [offsets_[e], offsets_[e+1])
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;  // (query, mult)
  std::vector<std::uint32_t> acc_;
  std::size_t mismatched_ = 0;
  std::size_t overshoot_ = 0;
  std::vector<std::uint32_t> stack_;
  const std::function<bool(const std::vector<std::uint32_t>&)>* visit_ = nullptr;
  bool aborted_ = false;
  bool truncated_ = false;
  std::uint64_t leaves_ = 0;
};

}  // namespace

ConsistencyCount count_consistent(const StreamedInstance& instance, std::uint32_t k,
                                  const Signal* truth, std::uint64_t enumeration_cap) {
  Enumerator enumerator(instance, k, enumeration_cap);
  ConsistencyCount result;
  if (truth != nullptr) result.by_overlap.assign(k + 1, 0);
  result.truncated =
      enumerator.run([&](const std::vector<std::uint32_t>& support) {
        ++result.consistent;
        if (truth != nullptr) {
          std::uint32_t overlap = 0;
          for (std::uint32_t entry : support) {
            if (truth->is_one(entry)) ++overlap;
          }
          ++result.by_overlap[overlap];
        }
        return true;
      });
  result.enumerated = enumerator.leaves();
  return result;
}

std::optional<Signal> exhaustive_unique_decode(const StreamedInstance& instance,
                                               std::uint32_t k,
                                               std::uint64_t enumeration_cap) {
  Enumerator enumerator(instance, k, enumeration_cap);
  std::vector<std::uint32_t> found;
  std::uint32_t hits = 0;
  const bool truncated =
      enumerator.run([&](const std::vector<std::uint32_t>& support) {
        ++hits;
        if (hits == 1) {
          found = support;
          return true;  // keep scanning to verify uniqueness
        }
        return false;  // second hit: ambiguous, stop
      });
  if (truncated || hits != 1) return std::nullopt;
  return Signal(instance.n(), std::move(found));
}

DecodeOutcome ExhaustiveDecoder::decode(const StreamedInstance& instance,
                                        const DecodeContext& context) const {
  // Enumeration is sequential by nature at toy sizes; the pool is unused.
  Enumerator enumerator(instance, context.k, 100'000'000);
  std::vector<std::uint32_t> first;
  enumerator.run([&](const std::vector<std::uint32_t>& support) {
    first = support;
    return false;  // first consistent support suffices
  });
  // Every enumerated leaf is one consistency evaluation.
  return one_shot_outcome(Signal(instance.n(), std::move(first)), instance,
                          enumerator.leaves());
}

}  // namespace pooled
