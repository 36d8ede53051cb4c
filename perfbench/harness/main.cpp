// perfbench_harness: one benchmark run of one workload.
//
//   perfbench_harness --cli <pooled_cli> --work-dir <dir> --workload <name>
//                    --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0 measures the end-to-end metrics on an untraced server; the
// server is set up five times and setup_s is the median. --trace 1
// splits the time between an untraced and a `serve --trace` server and
// prints the per-layer ledger. Either way the last stdout line is the
// JSON result; a `host` line before it names the machine. Every answer
// is checked against an in-process reference decode; any mismatch (or a
// ledger that fails to reconcile) makes the exit status 1. The traced
// run also writes its replayed spans to <work-dir>/ledger-<workload>-
// <seed>.jsonl. Bad usage or
// a broken server exits 2 without a result line.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "kernels/kernel_set.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

constexpr unsigned kSetups = 5;

struct Args {
  std::string cli;
  std::string work_dir;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      values[flag.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument("unexpected argument '" + flag + "'");
    }
  }
  for (const char* required : {"cli", "work-dir", "workload", "seed", "seconds", "trace"}) {
    if (values.count(required) == 0) {
      throw std::invalid_argument(std::string("missing --") + required);
    }
  }
  args.cli = values["cli"];
  args.work_dir = values["work-dir"];
  args.workload = values["workload"];
  args.seed = std::stoull(values["seed"]);
  args.seconds = std::stod(values["seconds"]);
  args.trace = std::stoi(values["trace"]);
  if (args.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  }
  return args;
}

unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t ok_count(const LoadResult& load) {
  return static_cast<std::size_t>(
      std::count_if(load.jobs.begin(), load.jobs.end(), [](const JobRecord& job) { return job.ok; }));
}

/// End-to-end metrics of one untraced phase.
Metrics end_to_end(const LoadResult& load, double setup_s) {
  std::vector<double> rtt_ms;
  std::map<std::size_t, bool> exact;  // distinct instance -> answer == truth
  for (const JobRecord& job : load.jobs) {
    if (!job.ok) continue;
    rtt_ms.push_back(job.rtt_seconds * 1e3);
    exact.emplace(job.instance, job.exact);
  }
  const double answered = static_cast<double>(load.jobs.size());
  const double ok = static_cast<double>(rtt_ms.size());
  const double exact_count = static_cast<double>(
      std::count_if(exact.begin(), exact.end(), [](const auto& entry) { return entry.second; }));
  return {
      {"rtt_p50_ms", quantile(rtt_ms, 0.5), "ms"},
      {"rtt_p90_ms", quantile(rtt_ms, 0.9), "ms"},
      {"jobs_per_s", ok / load.wall_seconds, "1/s"},
      {"cpu_ms_per_job", answered > 0 ? load.cpu_seconds * 1e3 / answered : 0.0, "ms"},
      {"rss_peak_mb", load.rss_peak_mb, "MiB"},
      {"exact_share", exact.empty() ? 0.0 : exact_count / static_cast<double>(exact.size()),
       "share"},
      {"ok_share", load.sent > 0 ? ok / static_cast<double>(load.sent) : 0.0, "share"},
      {"setup_s", setup_s, "s"},
  };
}

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int run(const Args& args) {
  const unsigned cores = usable_cores();
  const Workload workload = make_workload(args.workload, args.smoke, cores);
  pooled::ThreadPool pool(cores);
  const Inputs inputs = make_inputs(workload, args.seed, pool);
  const Schedule schedule(workload, args.seed);
  std::printf(
      "host {\"cores\": %u, \"kernels\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      cores, pooled::kernel_isa_name(pooled::active_kernels().isa), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE);

  Metrics metrics;
  std::vector<const LoadResult*> phases;
  bool correct = true;
  std::string failure;
  LoadResult measured;
  TracedRun traced;
  if (args.trace == 0) {
    std::vector<double> setups;
    for (unsigned s = 0; s < kSetups; ++s) {
      const double spawn = now_seconds();
      Server server(args.cli, workload, "");
      if (s + 1 < kSetups) {
        run_warmup(server, workload, inputs, schedule, s);
        setups.push_back(now_seconds() - spawn);
        continue;
      }
      measured = run_load(server, workload, inputs, schedule, s, args.seconds);
      setups.push_back(measured.warmup_end - spawn);
      server.stop();
    }
    metrics = end_to_end(measured, quantile(setups, 0.5));
    phases.push_back(&measured);
  } else {
    traced.trace_path = args.work_dir + "/trace-" + std::to_string(::getpid()) + ".jsonl";
    traced.ledger_path = args.work_dir + "/ledger-" + workload.name + "-" +
                         std::to_string(args.seed) + ".jsonl";
    {
      Server server(args.cli, workload, "");
      traced.plain = run_load(server, workload, inputs, schedule, 0, args.seconds / 2);
    }
    {
      Server server(args.cli, workload, traced.trace_path);
      traced.traced = run_load(server, workload, inputs, schedule, 0, args.seconds / 2);
      traced.stats_frame = fetch_stats_frame(server);
      server.stop();
    }
    LedgerResult ledger = build_ledger(workload, inputs, traced, pool);
    std::remove(traced.trace_path.c_str());
    std::fprintf(stderr, "perfbench: replayed spans in %s\n", traced.ledger_path.c_str());
    metrics = std::move(ledger.metrics);
    correct = ledger.correct;
    failure = ledger.failure;
    phases = {&traced.plain, &traced.traced};
  }

  std::size_t attempted = 0;
  std::size_t ok = 0;
  for (const LoadResult* phase : phases) {
    attempted += phase->sent;
    ok += ok_count(*phase);
  }
  if (ok != attempted) {
    correct = false;
    failure = std::to_string(attempted - ok) + " of " + std::to_string(attempted) +
              " jobs failed or disagreed with the reference decode";
  }
  if (attempted == 0) throw std::runtime_error("no job was sent");
  if (!correct) std::fprintf(stderr, "perfbench: output check failed: %s\n", failure.c_str());
  std::fprintf(stderr, "perfbench: %s seed=%llu trace=%d: %zu jobs answered ok of %zu sent\n",
               workload.name.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
               ok, attempted);
  print_result(correct, attempted, attempted - ok, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
