// GTC: binary (OR-channel) group testing vs. the quantitative MN
// algorithm -- the §I.D discussion as an experiment.
//
// For each θ we report the empirical 50%-success query count of the DD
// decoder (optimal pool size Γ = n ln2/k) against MN's (Γ = n/2), next
// to the theory curves m_GT = ln^{-1}(2) k ln(n/k) and m_MN. Expectation:
// binary DD wins for small θ (the paper's point that *discarding* count
// information can help because of the better design/decoder pair), while
// the MN constant grows with θ.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "binarygt/binary_decoders.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "engine/registry.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace pooled;

double dd_success_rate(std::uint32_t n, std::uint32_t k, std::uint32_t m,
                       std::uint32_t trials, std::uint64_t seed_base,
                       ThreadPool& pool) {
  std::uint32_t successes = 0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    const TrialSeeds seeds = trial_seeds(seed_base, t);
    auto design = std::make_shared<RandomRegularDesign>(n, seeds.design_seed,
                                                        optimal_gt_gamma(n, k));
    const Signal truth = Signal::random(n, k, seeds.signal_seed);
    const auto instance =
        make_streamed_instance(design, m, truth, pool, ChannelKind::Binary);
    successes += exact_recovery(decode_dd(*instance, &pool).estimate, truth);
  }
  return static_cast<double>(successes) / trials;
}

std::uint32_t first_m_reaching_dd(std::uint32_t n, std::uint32_t k,
                                  const std::vector<std::uint32_t>& grid,
                                  std::uint32_t trials, std::uint64_t seed_base,
                                  ThreadPool& pool) {
  for (std::uint32_t m : grid) {
    if (dd_success_rate(n, k, m, trials, seed_base, pool) >= 0.5) return m;
  }
  return 0;
}

}  // namespace

int main() {
  using namespace pooled;
  const BenchConfig cfg = bench_config(/*default_trials=*/10,
                                       /*default_max_n=*/1000);
  Timer timer;
  bench::banner("GTC: binary group testing vs quantitative MN",
                "50%-success query counts of DD (OR channel) and MN "
                "(additive channel) per theta",
                cfg);
  ThreadPool pool(static_cast<unsigned>(cfg.threads));
  const auto n = static_cast<std::uint32_t>(cfg.max_n);

  ConsoleTable table({"theta", "k", "m50 DD", "m50 MN", "DD/MN", "m_GT(theory)",
                      "m_MN(finite)"});
  std::vector<DataSeries> series(1);
  series[0].label = "n=" + format_compact(n);
  for (double theta : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    const std::uint32_t k = thresholds::k_of(n, theta);
    const std::uint64_t k2 = std::max<std::uint32_t>(k, 2);
    const double m_gt = thresholds::m_binary_gt(n, k2);
    const double m_mn = thresholds::m_mn_finite(n, k2);
    const auto grid = linear_grid(
        std::max<std::uint32_t>(4, static_cast<std::uint32_t>(0.3 * m_gt)),
        static_cast<std::uint32_t>(3.0 * m_mn), 14);
    const std::uint32_t m50_dd = first_m_reaching_dd(
        n, k, grid, static_cast<std::uint32_t>(cfg.trials),
        0x67C + static_cast<std::uint64_t>(theta * 100), pool);
    TrialConfig config;
    config.n = n;
    config.k = k;
    config.seed_base = 0x67D + static_cast<std::uint64_t>(theta * 100);
    const auto sweep = sweep_queries(config, "mn", grid,
                                     static_cast<std::uint32_t>(cfg.trials), pool);
    const std::uint32_t m50_mn = first_m_reaching(sweep, 0.5);
    table.add_row(
        {format_compact(theta, 2), format_compact(k), format_compact(m50_dd),
         format_compact(m50_mn),
         (m50_dd > 0 && m50_mn > 0)
             ? format_compact(static_cast<double>(m50_dd) / m50_mn, 3)
             : "-",
         format_compact(m_gt, 4), format_compact(m_mn, 4)});
    series[0].rows.push_back({theta, static_cast<double>(m50_dd),
                              static_cast<double>(m50_mn), m_gt, m_mn});
  }
  table.print(std::cout);
  std::printf("\n   expectation: DD/MN < 1 (binary GT wins despite discarding\n"
              "   the counts, cf. §I.D). The theory guarantee for the binary\n"
              "   decoder only extends to theta <= 0.409; at laptop-scale n\n"
              "   DD's empirical advantage persists past it.\n");
  bench::maybe_write_dat(cfg, "binarygt.dat", "DD vs MN 50% points per theta",
                         {"theta", "m50_dd", "m50_mn", "m_gt", "m_mn"}, series);
  bench::footer(timer);
  return 0;
}
