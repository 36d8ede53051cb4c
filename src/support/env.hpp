// Environment-variable configuration used to scale benchmark workloads.
//
// The reproduction benches default to sizes that complete on a small
// container; setting e.g. POOLED_TRIALS=100 POOLED_MAX_N=1000000 restores
// the paper-scale experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace pooled {

/// Returns the value of `name`, if set and non-empty.
std::optional<std::string> env_string(const std::string& name);

/// Returns `name` parsed as i64; `fallback` if unset or unparsable.
std::int64_t env_i64(const std::string& name, std::int64_t fallback);

/// Returns `name` parsed as double; `fallback` if unset or unparsable.
double env_f64(const std::string& name, double fallback);

/// Returns `name`, a memory budget in MiB, in bytes; `fallback_mb` MiB if
/// unset, unparsable, negative, or too large to count in bytes.
std::size_t env_budget_bytes(const std::string& name, std::size_t fallback_mb);

/// Common bench knobs (all overridable via environment).
struct BenchConfig {
  int trials;           ///< Monte-Carlo repetitions per grid point (POOLED_TRIALS)
  std::int64_t max_n;   ///< largest signal length swept (POOLED_MAX_N)
  int threads;          ///< worker threads, 0 = hardware_concurrency (POOLED_THREADS)
  std::string out_dir;  ///< if non-empty, benches also write .dat files (POOLED_OUT_DIR)
};

/// Reads the standard bench knobs with the given defaults.
BenchConfig bench_config(int default_trials, std::int64_t default_max_n);

}  // namespace pooled
