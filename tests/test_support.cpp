// Unit tests: contract assertions, CLI parsing, env knobs, timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "support/assert.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/timer.hpp"

namespace pooled {
namespace {

TEST(Assert, RequirePassesOnTrueCondition) {
  EXPECT_NO_THROW(POOLED_REQUIRE(1 + 1 == 2, "arithmetic"));
}

TEST(Assert, RequireThrowsContractError) {
  EXPECT_THROW(POOLED_REQUIRE(false, "must fail"), ContractError);
}

TEST(Assert, RequireMessageContainsContextAndCondition) {
  try {
    POOLED_REQUIRE(2 > 3, "impossible comparison");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("impossible comparison"), std::string::npos);
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Timer, MeasuresElapsedTimeMonotonically) {
  Timer timer;
  const double t0 = timer.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double t1 = timer.seconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GT(t1, t0);
  EXPECT_GE(timer.millis(), 5.0 * 0.5);  // generous lower bound
}

TEST(Timer, ResetRestartsTheClock) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  timer.reset();
  EXPECT_LT(timer.millis(), 5.0);
}

TEST(Env, StringReturnsNulloptWhenUnset) {
  ::unsetenv("POOLED_TEST_UNSET_VAR");
  EXPECT_FALSE(env_string("POOLED_TEST_UNSET_VAR").has_value());
}

TEST(Env, StringReadsValue) {
  ::setenv("POOLED_TEST_VAR", "hello", 1);
  EXPECT_EQ(env_string("POOLED_TEST_VAR").value(), "hello");
  ::unsetenv("POOLED_TEST_VAR");
}

TEST(Env, EmptyStringCountsAsUnset) {
  ::setenv("POOLED_TEST_VAR", "", 1);
  EXPECT_FALSE(env_string("POOLED_TEST_VAR").has_value());
  ::unsetenv("POOLED_TEST_VAR");
}

TEST(Env, I64ParsesAndFallsBack) {
  ::setenv("POOLED_TEST_INT", "42", 1);
  EXPECT_EQ(env_i64("POOLED_TEST_INT", 7), 42);
  ::setenv("POOLED_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(env_i64("POOLED_TEST_INT", 7), 7);
  ::unsetenv("POOLED_TEST_INT");
  EXPECT_EQ(env_i64("POOLED_TEST_INT", -3), -3);
}

TEST(Env, BudgetBytesFallsBackOnNegativeOrOverflowingValues) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  ::unsetenv("POOLED_TEST_BUDGET_MB");
  EXPECT_EQ(env_budget_bytes("POOLED_TEST_BUDGET_MB", 512), 512 * kMiB);
  ::setenv("POOLED_TEST_BUDGET_MB", "0", 1);
  EXPECT_EQ(env_budget_bytes("POOLED_TEST_BUDGET_MB", 512), 0u);
  ::setenv("POOLED_TEST_BUDGET_MB", "3", 1);
  EXPECT_EQ(env_budget_bytes("POOLED_TEST_BUDGET_MB", 512), 3 * kMiB);
  // A negative budget used to wrap to ~2^64 bytes, disabling the cap.
  ::setenv("POOLED_TEST_BUDGET_MB", "-1", 1);
  EXPECT_EQ(env_budget_bytes("POOLED_TEST_BUDGET_MB", 512), 512 * kMiB);
  // The largest MiB count that still fits in bytes, and one past it,
  // which used to wrap to a tiny budget.
  const std::size_t max_mb = SIZE_MAX >> 20;
  ::setenv("POOLED_TEST_BUDGET_MB", std::to_string(max_mb).c_str(), 1);
  EXPECT_EQ(env_budget_bytes("POOLED_TEST_BUDGET_MB", 512), max_mb * kMiB);
  ::setenv("POOLED_TEST_BUDGET_MB", std::to_string(max_mb + 1).c_str(), 1);
  EXPECT_EQ(env_budget_bytes("POOLED_TEST_BUDGET_MB", 512), 512 * kMiB);
  ::setenv("POOLED_TEST_BUDGET_MB", "99999999999999999999", 1);
  EXPECT_EQ(env_budget_bytes("POOLED_TEST_BUDGET_MB", 512), 512 * kMiB);
  ::setenv("POOLED_TEST_BUDGET_MB", "lots", 1);
  EXPECT_EQ(env_budget_bytes("POOLED_TEST_BUDGET_MB", 512), 512 * kMiB);
  ::unsetenv("POOLED_TEST_BUDGET_MB");
}

TEST(Env, F64ParsesAndFallsBack) {
  ::setenv("POOLED_TEST_F", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_f64("POOLED_TEST_F", 1.0), 2.5);
  ::unsetenv("POOLED_TEST_F");
  EXPECT_DOUBLE_EQ(env_f64("POOLED_TEST_F", 1.25), 1.25);
}

TEST(Env, BenchConfigUsesDefaults) {
  ::unsetenv("POOLED_TRIALS");
  ::unsetenv("POOLED_MAX_N");
  const BenchConfig cfg = bench_config(11, 5000);
  EXPECT_EQ(cfg.trials, 11);
  EXPECT_EQ(cfg.max_n, 5000);
}

TEST(Env, BenchConfigOverrides) {
  ::setenv("POOLED_TRIALS", "99", 1);
  ::setenv("POOLED_MAX_N", "123456", 1);
  const BenchConfig cfg = bench_config(11, 5000);
  EXPECT_EQ(cfg.trials, 99);
  EXPECT_EQ(cfg.max_n, 123456);
  ::unsetenv("POOLED_TRIALS");
  ::unsetenv("POOLED_MAX_N");
}

TEST(Cli, ParsesTypedOptions) {
  CliParser cli("prog");
  cli.add_i64("n", "length", 100);
  cli.add_f64("theta", "sparsity", 0.3);
  cli.add_string("mode", "mode", "fast");
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--n", "2000", "--theta=0.25", "--verbose"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.i64("n"), 2000);
  EXPECT_DOUBLE_EQ(cli.f64("theta"), 0.25);
  EXPECT_EQ(cli.string("mode"), "fast");
  EXPECT_TRUE(cli.flag("verbose"));
}

TEST(Cli, DefaultsSurviveWhenNotPassed) {
  CliParser cli("prog");
  cli.add_i64("n", "length", 100);
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.i64("n"), 100);
  EXPECT_FALSE(cli.flag("verbose"));
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli("prog");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(cli.parse(3, argv), ContractError);
}

TEST(Cli, RejectsNonIntegerForI64) {
  CliParser cli("prog");
  cli.add_i64("n", "length", 1);
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_THROW(cli.parse(3, argv), ContractError);
}

TEST(Cli, RejectsMissingValue) {
  CliParser cli("prog");
  cli.add_i64("n", "length", 1);
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), ContractError);
}

TEST(Cli, HelpRequestedFlag) {
  CliParser cli("prog");
  cli.add_i64("n", "length", 1);
  const char* argv[] = {"prog", "--help"};
  cli.parse(2, argv);
  EXPECT_TRUE(cli.help_requested());
  EXPECT_NE(cli.help_text().find("--n"), std::string::npos);
}

TEST(Cli, WrongTypeAccessThrows) {
  CliParser cli("prog");
  cli.add_i64("n", "length", 1);
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW(cli.f64("n"), ContractError);
  EXPECT_THROW(cli.i64("never-declared"), ContractError);
}

}  // namespace
}  // namespace pooled
