#include "baselines/peeling.hpp"

#include <deque>

#include "linalg/csr_matrix.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

enum class State : std::uint8_t { Unknown, Zero, One };

}  // namespace

PeelingDecoder::PeelingDecoder(bool fill_unresolved_as_zero)
    : fill_zero_(fill_unresolved_as_zero) {}

PeelingOutcome PeelingDecoder::decode_detailed(const StreamedInstance& instance) const {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  // Query rows of A (distinct entries, valued by multiplicity) and its
  // entry rows (distinct queries).
  const CsrMatrix a = CsrMatrix::from_instance(instance);
  const CsrMatrix at = a.transpose();
  const auto& y = instance.results();

  std::vector<State> state(n, State::Unknown);
  // residual[q]: target minus resolved-one mass; unresolved[q]: multiplicity
  // mass of still-unknown entries.
  std::vector<std::int64_t> residual(m);
  std::vector<std::int64_t> unresolved(m);
  for (std::uint32_t q = 0; q < m; ++q) {
    residual[q] = y[q];
    for (double times : a.row_values(q)) {
      unresolved[q] += static_cast<std::int64_t>(times);
    }
  }

  std::deque<std::uint32_t> worklist;
  std::vector<std::uint8_t> queued(m, 0);
  for (std::uint32_t q = 0; q < m; ++q) {
    worklist.push_back(q);
    queued[q] = 1;
  }

  PeelingOutcome outcome{Signal(n), 0, 0, 0, 0};
  const auto resolve = [&](std::uint32_t entry, State value) {
    POOLED_ASSERT(state[entry] == State::Unknown);
    state[entry] = value;
    const auto queries = at.row_indices(entry);
    const auto times = at.row_values(entry);
    for (std::size_t s = 0; s < queries.size(); ++s) {
      const std::uint32_t q = queries[s];
      const auto multiplicity = static_cast<std::int64_t>(times[s]);
      unresolved[q] -= multiplicity;
      if (value == State::One) residual[q] -= multiplicity;
      if (!queued[q]) {
        worklist.push_back(q);
        queued[q] = 1;
      }
    }
  };

  std::uint32_t rounds = 0;
  while (!worklist.empty()) {
    const std::uint32_t q = worklist.front();
    worklist.pop_front();
    queued[q] = 0;
    ++rounds;
    POOLED_ASSERT(residual[q] >= 0 && residual[q] <= unresolved[q]);
    if (unresolved[q] == 0) continue;
    if (residual[q] == 0) {
      for (std::uint32_t entry : a.row_indices(q)) {
        if (state[entry] == State::Unknown) resolve(entry, State::Zero);
      }
    } else if (residual[q] == unresolved[q]) {
      for (std::uint32_t entry : a.row_indices(q)) {
        if (state[entry] == State::Unknown) resolve(entry, State::One);
      }
    }
  }

  std::vector<std::uint32_t> support;
  for (std::uint32_t i = 0; i < n; ++i) {
    switch (state[i]) {
      case State::One:
        ++outcome.resolved_ones;
        support.push_back(i);
        break;
      case State::Zero:
        ++outcome.resolved_zeros;
        break;
      case State::Unknown:
        ++outcome.unresolved;
        if (!fill_zero_) support.push_back(i);
        break;
    }
  }
  outcome.estimate = Signal(n, std::move(support));
  outcome.rounds = rounds;
  return outcome;
}

DecodeOutcome PeelingDecoder::decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const {
  // k is ignored (peeling infers the weight itself) and the propagation
  // is inherently sequential per cascade, so the pool goes unused.
  (void)context;
  PeelingOutcome detailed = decode_detailed(instance);
  DecodeOutcome outcome =
      one_shot_outcome(std::move(detailed.estimate), instance,
                       detailed.resolved_ones + detailed.resolved_zeros);
  // Peeling is genuinely round-based: surface its cascade depth.
  outcome.rounds = std::max<std::uint32_t>(detailed.rounds, 1);
  return outcome;
}

}  // namespace pooled
