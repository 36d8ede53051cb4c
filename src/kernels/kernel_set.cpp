#include "kernels/kernel_set.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>

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

void select_top_k_into(const KernelSet& kernels, const double* scores,
                       std::size_t n, std::uint32_t k, double* values_scratch,
                       std::uint32_t* out) {
  if (k == 0) return;
  std::memcpy(values_scratch, scores, n * sizeof(double));
  // Branch-light partial ranking: nth_element over plain doubles (no
  // index indirection, cmov-friendly comparator) pins the k-th largest
  // score; one vector scan then fills the k winners in ascending index
  // order, which is exactly the (score desc, index asc) total order's
  // top-k with its lower-index tie-break.
  std::nth_element(values_scratch, values_scratch + (k - 1), values_scratch + n,
                   std::greater<double>());
  const double pivot = values_scratch[k - 1];
  const std::size_t greater = kernels.count_greater(scores, n, pivot);
  // `greater` < k by definition of the k-th largest; the remainder are
  // filled by the lowest-index entries tying the pivot.
  kernels.topk_fill(scores, n, pivot, k - greater, out, k);
}

}  // namespace pooled
