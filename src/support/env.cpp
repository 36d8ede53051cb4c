#include "support/env.hpp"

#include <cstdlib>

namespace pooled {

std::optional<std::string> env_string(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  return std::string(value);
}

std::int64_t env_i64(const std::string& name, std::int64_t fallback) {
  auto raw = env_string(name);
  if (!raw) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw->c_str(), &end, 10);
  if (end == raw->c_str()) return fallback;
  return static_cast<std::int64_t>(parsed);
}

double env_f64(const std::string& name, double fallback) {
  auto raw = env_string(name);
  if (!raw) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str()) return fallback;
  return parsed;
}

std::size_t env_budget_bytes(const std::string& name, std::size_t fallback_mb) {
  constexpr std::size_t kMaxMb = SIZE_MAX >> 20;
  const std::int64_t mb = env_i64(name, -1);
  const bool valid = mb >= 0 && static_cast<std::uint64_t>(mb) <= kMaxMb;
  return (valid ? static_cast<std::size_t>(mb) : fallback_mb) << 20;
}

BenchConfig bench_config(int default_trials, std::int64_t default_max_n) {
  BenchConfig cfg;
  cfg.trials = static_cast<int>(env_i64("POOLED_TRIALS", default_trials));
  cfg.max_n = env_i64("POOLED_MAX_N", default_max_n);
  cfg.threads = static_cast<int>(env_i64("POOLED_THREADS", 0));
  cfg.out_dir = env_string("POOLED_OUT_DIR").value_or("");
  return cfg;
}

}  // namespace pooled
