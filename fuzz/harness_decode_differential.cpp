// Structured differential harness: kernel-tier equivalence on
// adversarial instances. The byte buffer is interpreted as a compact
// instance description (design, channel, shape, observed counts), the
// instance is decoded -- by MN or adaptive MN, then by each group-testing
// spec (gt:binary, gt:comp, gt:threshold:<T>) -- once per kernel tier
// this host can run with the scalar tier as reference, and every
// observable of the outcome --
// support, consistency, stop reason, rounds, queries, even the error
// string of a rejected decode -- must be bit-identical across tiers.
// This extends the deterministic test_kernels differential battery to
// fuzzer-derived inputs: hostile y values, degenerate shapes, and
// channel/value mismatches must fail (or succeed) identically no matter
// which SIMD tier dispatch picked. A successful decode's `consistent`
// must also equal the exact check of its support on a fresh instance
// built from the same spec, whichever way the engine reached it.
//
// Instances are deliberately tiny (n <= 64, m <= 96): the value of this
// harness is input diversity, not scale, and small decodes keep the
// fuzzer's executions-per-second high.
#include "harnesses.hpp"

#include <string>
#include <vector>

#include "core/serialize.hpp"
#include "engine/batch_engine.hpp"
#include "kernels/kernel_set.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled::fuzz {

namespace {

/// Sequential byte cursor; reads 0 once the buffer is exhausted so every
/// prefix is a valid (if degenerate) description.
struct ByteCursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t next() { return pos < size ? data[pos++] : 0; }
};

/// Restores the dispatched kernel set on scope exit even if a decode
/// throws, so one pathological input cannot poison later executions.
class KernelTierGuard {
 public:
  explicit KernelTierGuard(const KernelSet& tier)
      : previous_(set_active_kernels(tier)) {}
  ~KernelTierGuard() { set_active_kernels(previous_); }
  KernelTierGuard(const KernelTierGuard&) = delete;
  KernelTierGuard& operator=(const KernelTierGuard&) = delete;

 private:
  const KernelSet& previous_;
};

/// Everything a decode observably produced, error path included.
struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<std::uint32_t> support;
  bool consistent = false;
  StopReason stop = StopReason::Completed;
  std::uint32_t rounds = 0;
  std::uint64_t queries = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome decode_under(const KernelSet& tier, const BatchEngine& engine,
                     const DecodeJob& job) {
  const KernelTierGuard guard(tier);
  const DecodeReport report = engine.run_one(job);
  Outcome outcome;
  outcome.ok = report.ok();
  outcome.error = report.error;
  outcome.support = report.support;
  outcome.consistent = report.consistent;
  outcome.stop = report.stop;
  outcome.rounds = report.rounds;
  outcome.queries = report.queries;
  return outcome;
}

}  // namespace

int fuzz_decode_differential(const std::uint8_t* data, std::size_t size) {
  ByteCursor cursor{data, size};

  InstanceSpec spec;
  spec.params.n = 8 + cursor.next() % 57;  // 8..64
  spec.params.seed = 1 + cursor.next();
  // gamma 0 = the paper's n/2 default; small values hit the distinct
  // design's gamma <= n edge, large ones its rejection.
  spec.params.gamma = cursor.next() % (spec.params.n + 2);
  spec.params.p = 0.05 + 0.9 * (static_cast<double>(cursor.next()) / 255.0);
  switch (cursor.next() % 3) {
    case 0: spec.kind = DesignKind::RandomRegular; break;
    case 1: spec.kind = DesignKind::Distinct; break;
    default: spec.kind = DesignKind::Bernoulli; break;
  }
  switch (cursor.next() % 3) {
    case 0: spec.channel = ChannelKind::Quantitative; break;
    case 1: spec.channel = ChannelKind::Binary; break;
    default: spec.channel = ChannelKind::Threshold; break;
  }
  spec.threshold =
      spec.channel == ChannelKind::Threshold ? 1 + cursor.next() % 3 : 1;
  const std::uint32_t k = 1 + cursor.next() % 4;
  spec.m = 1 + cursor.next() % 96;
  spec.y.reserve(spec.m);
  for (std::uint32_t i = 0; i < spec.m; ++i) {
    // Raw bytes, not channel-clamped: channel/value mismatches (a count
    // of 7 on the binary channel) must be rejected identically by every
    // tier when the instance is rebuilt.
    spec.y.push_back(cursor.next() % (k + 3));
  }

  // Alternate the decoder family: MN exercises the score kernels,
  // adaptive MN the round/replay machinery on top of them. The GT specs
  // then decode every input too; on a mismatched channel they must be
  // rejected identically by every tier.
  const std::string mn_family = cursor.next() % 2 == 0 ? "mn" : "adaptive:mn:L=8";
  const std::string decoders[] = {mn_family, "gt:binary", "gt:comp",
                                  "gt:threshold:" + std::to_string(spec.threshold)};

  ThreadPool pool(1);
  const BatchEngine engine(pool);  // capture_errors: failures -> report
  const KernelSet* scalar = kernels_for(KernelIsa::Scalar);
  POOLED_CHECK(scalar != nullptr, "scalar kernels must always exist");

  for (const std::string& decoder : decoders) {
    DecodeJob job;
    job.spec = spec;
    job.k = k;
    job.decoder = decoder;
    const Outcome reference = decode_under(*scalar, engine, job);
    for (const KernelIsa isa : available_kernel_isas()) {
      if (isa == KernelIsa::Scalar) continue;
      const KernelSet* tier = kernels_for(isa);
      POOLED_CHECK(tier != nullptr, "advertised kernel tier must resolve");
      const Outcome outcome = decode_under(*tier, engine, job);
      const std::string divergence =
          std::string("kernel tier ") + kernel_isa_name(isa) +
          " diverged from scalar on " + decoder + " of a fuzzed instance";
      POOLED_CHECK(outcome == reference, divergence.c_str());
    }
    // The served verdict (the fingerprint when the decode recorded or
    // published one, with the exact pass over the queries it does not
    // cover) must equal the exact pass on a fresh instance from the same
    // spec.
    if (reference.ok) {
      const auto fresh = spec.to_instance();
      const bool exact = fresh->is_consistent(Signal(fresh->n(), reference.support));
      POOLED_CHECK(reference.consistent == exact,
                   "served consistency verdict differs from the exact check");
    }
  }
  return 0;
}

}  // namespace pooled::fuzz

#ifdef POOLED_FUZZER_MAIN
POOLED_DEFINE_FUZZER_MAIN(::pooled::fuzz::fuzz_decode_differential)
#endif
