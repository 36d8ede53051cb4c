// Golden test: the paper's Fig. 1 worked example, end to end.
//
// Signal σ = (1,1,0,0,1,0,0), five queries with the multi-edge on a3;
// published results y = (2, 2, 3, 1, 1).
#include <gtest/gtest.h>

#include "core/exhaustive.hpp"
#include "core/instance.hpp"
#include "core/mn.hpp"
#include "linalg/csr_matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "reference.hpp"

namespace pooled {
namespace {

// Memberships chosen to match Fig. 1's edge structure: a3 contains x1
// twice (the dashed multi-edge) and the query results equal the figure's.
StreamedInstance figure_one_instance() {
  auto design = std::make_shared<ExplicitDesign>(
      7, std::vector<std::vector<std::uint32_t>>{
             {0, 1, 3},     // a1: x1,x2,x4
             {1, 2, 4},     // a2: x2,x3,x5
             {0, 0, 4, 5},  // a3: x1 twice, x5, x6
             {4, 5, 6},     // a4: x5,x6,x7
             {2, 3, 1},     // a5: x3,x4,x2
         });
  const Signal sigma(7, {0, 1, 4});  // (1,1,0,0,1,0,0)
  ThreadPool pool(1);
  return StreamedInstance(design, 5, simulate_queries(*design, 5, sigma, pool));
}

TEST(PaperFigureOne, QueryResultsMatchThePublishedVector) {
  const StreamedInstance instance = figure_one_instance();
  EXPECT_EQ(instance.results(), (std::vector<std::uint32_t>{2, 2, 3, 1, 1}));
}

TEST(PaperFigureOne, MultiEdgeCountsTwiceInA3) {
  const StreamedInstance instance = figure_one_instance();
  // a3 = {x1, x1, x5, x6}: sigma has x1 = 1 (twice) and x5 = 1 -> 3.
  EXPECT_EQ(instance.results()[2], 3u);
  // 4 draws, 3 distinct entries.
  std::vector<std::uint32_t> members;
  instance.query_members(2, members);
  EXPECT_EQ(members.size(), 4u);
  EXPECT_EQ(CsrMatrix::from_instance(instance).row_indices(2).size(), 3u);
}

TEST(PaperFigureOne, TruthIsConsistent) {
  const StreamedInstance instance = figure_one_instance();
  EXPECT_TRUE(instance.is_consistent(Signal(7, {0, 1, 4})));
  EXPECT_FALSE(instance.is_consistent(Signal(7, {0, 1, 5})));
}

TEST(PaperFigureOne, ExhaustiveSearchFindsTheTruthUniquely) {
  const StreamedInstance instance = figure_one_instance();
  const Signal sigma(7, {0, 1, 4});
  const ConsistencyCount count = count_consistent(instance, 3, &sigma);
  // These five queries pin sigma down exactly.
  EXPECT_EQ(count.consistent, 1u);
  const auto decoded = exhaustive_unique_decode(instance, 3);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sigma);
}

TEST(PaperFigureOne, EntryStatsByHand) {
  ThreadPool pool(1);
  const StreamedInstance instance = figure_one_instance();
  const EntryStats stats = instance.entry_stats(pool);
  const EntryStats every = instance.entry_stats(pool, CountMode::EveryDraw);
  // x1 (index 0): distinct queries a1, a3 -> Ψ = 2 + 3 = 5, Δ = 3, Δ* = 2.
  EXPECT_EQ(stats.psi[0], 5u);
  EXPECT_EQ(every.delta[0], 3u);
  EXPECT_EQ(stats.delta_star[0], 2u);
  // Multi-edge-weighted Ψ' for x1 counts a3 twice: 2 + 3 + 3 = 8.
  EXPECT_EQ(every.psi_multi[0], 8u);
  // x7 (index 6): only a4 -> Ψ = 1.
  EXPECT_EQ(stats.psi[6], 1u);
  EXPECT_EQ(stats.delta_star[6], 1u);
}

TEST(PaperFigureOne, MnScoresByHand) {
  // Score_i = Ψ_i − Δ*_i · k/2 with k = 3. Hand computation:
  //   x1: 5 − 2·1.5 = 2.0     x2: 5 − 3·1.5 = 0.5   x3: 3 − 2·1.5 = 0
  //   x4: 3 − 2·1.5 = 0       x5: 6 − 3·1.5 = 1.5   x6: 4 − 2·1.5 = 1
  //   x7: 1 − 1·1.5 = −0.5
  ThreadPool pool(1);
  const StreamedInstance instance = figure_one_instance();
  const MnResult result = MnDecoder().decode_scored(instance, 3, pool);
  const std::vector<double> expected = {2.0, 0.5, 0.0, 0.0, 1.5, 1.0, -0.5};
  ASSERT_EQ(result.scores.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.scores[i], expected[i]) << "entry " << i;
  }
  // Instructive corner of the toy instance: with only five queries the
  // zero-entry x6 outscores the one-entry x2, so greedy MN picks
  // {x1, x5, x6} here while exhaustive search already succeeds -- five
  // queries sit between the IT requirement and the (much larger)
  // algorithmic requirement, exactly the gap the paper's two theorems
  // delineate.
  EXPECT_EQ(result.estimate, Signal(7, {0, 4, 5}));
}

}  // namespace
}  // namespace pooled
