// pooled_cli: command-line driver for pooled-data experiments.
//
// Subcommands:
//   simulate    draw a signal, run the parallel queries, save the
//               observables (and the hidden truth separately)
//   decode      load observables, run a decoder through the engine,
//               report the estimate + decode diagnostics
//   serve       serve decode requests: newline-delimited streams from a
//               file/stdin, or concurrent connections with --listen
//   route       fan a request stream out over N serve backends with
//               digest-affinity routing and dead-shard failover
//   sweep       success-rate sweep over m, CSV to stdout
//   decoders    list every registry spec with its variants and docs
//   thresholds  print every theoretical threshold for (n, theta)
//
// Examples:
//   pooled_cli simulate --n 10000 --theta 0.3 --budget 1.4 --out run.inst
//   pooled_cli decode --in run.inst --k 16 --decoder mn
//   pooled_cli decode --in run.inst --k 16 --decoder adaptive:mn:L=16
//   pooled_cli decode --in run.inst --k 16 --noise sym:0.05:7
//   pooled_cli serve --in jobs.txt --out results.txt
//   pooled_cli serve --listen 127.0.0.1:7733 --progress
//   pooled_cli serve --listen unix:/tmp/pooled.sock
//   pooled_cli route --shard 127.0.0.1:7733 --shard 127.0.0.1:7734
//       --in jobs.txt --out results.txt
//   pooled_cli sweep --n 1000 --theta 0.3 --trials 20
//   pooled_cli decoders
//   pooled_cli thresholds --n 10000 --theta 0.3
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/serialize.hpp"
#include "core/thresholds.hpp"
#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/registry.hpp"
#include "engine/result_cache.hpp"
#include "engine/serve_server.hpp"
#include "engine/serve_session.hpp"
#include "engine/shard_router.hpp"
#include "engine/socket_transport.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/sweep.hpp"
#include "support/assert.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

namespace {

using namespace pooled;

int usage() {
  std::fputs(
      "usage: pooled_cli <simulate|decode|serve|route|sweep|decoders|"
      "thresholds> [options]\n"
      "       pooled_cli <subcommand> --help for options\n",
      stderr);
  return 2;
}

std::string decoder_help() {
  return "decoder spec: " + DecoderRegistry::global().spec_help();
}

int cmd_simulate(int argc, const char* const* argv) {
  CliParser cli("pooled_cli simulate");
  cli.add_i64("n", "signal length", 10000);
  cli.add_f64("theta", "sparsity exponent", 0.3);
  cli.add_i64("k", "explicit weight (overrides theta when > 0)", 0);
  cli.add_f64("budget", "queries as multiple of m_MN(finite)", 1.4);
  cli.add_i64("m", "explicit query count (overrides budget when > 0)", 0);
  cli.add_i64("seed", "random seed", 1);
  cli.add_i64("gamma", "pool size (0 = the paper's n/2)", 0);
  cli.add_string("channel", "output channel: quantitative|binary|threshold",
                 "quantitative");
  cli.add_i64("t", "threshold T for --channel threshold", 2);
  cli.add_string("out", "observables output file", "run.inst");
  cli.add_string("truth-out", "hidden-truth output file (support indices)", "");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.help_text().c_str(), stdout);
    return 0;
  }
  const auto n = static_cast<std::uint32_t>(cli.i64("n"));
  const std::uint32_t k = cli.i64("k") > 0
                              ? static_cast<std::uint32_t>(cli.i64("k"))
                              : thresholds::k_of(n, cli.f64("theta"));
  const std::uint32_t m =
      cli.i64("m") > 0
          ? static_cast<std::uint32_t>(cli.i64("m"))
          : static_cast<std::uint32_t>(
                cli.f64("budget") *
                thresholds::m_mn_finite(n, std::max<std::uint32_t>(k, 2)));
  const auto seed = static_cast<std::uint64_t>(cli.i64("seed"));
  POOLED_REQUIRE(cli.i64("gamma") >= 0, "--gamma must be >= 0");
  POOLED_REQUIRE(cli.i64("t") >= 1, "--t must be >= 1");
  const ChannelKind channel = channel_kind_from_name(cli.string("channel"));
  const auto threshold = static_cast<std::uint32_t>(cli.i64("t"));
  ThreadPool pool;
  const Signal truth = Signal::random(n, k, seed);
  DesignParams params;
  params.n = n;
  params.seed = seed + 1;
  params.gamma = static_cast<std::uint64_t>(cli.i64("gamma"));
  save_instance_file(cli.string("out"),
                     simulate_spec(DesignKind::RandomRegular, params, m, truth,
                                   pool, channel, threshold));
  std::printf("wrote %s (n=%u k=%u m=%u channel=%s)\n", cli.string("out").c_str(),
              n, k, m, channel_kind_name(channel).c_str());
  if (!cli.string("truth-out").empty()) {
    std::ofstream os(cli.string("truth-out"));
    for (auto i : truth.support()) os << i << '\n';
    std::printf("wrote %s (%u support indices)\n",
                cli.string("truth-out").c_str(), k);
  }
  return 0;
}

int cmd_decode(int argc, const char* const* argv) {
  CliParser cli("pooled_cli decode");
  cli.add_string("in", "observables input file", "run.inst");
  cli.add_i64("k", "Hamming weight to decode", 16);
  cli.add_string("decoder", decoder_help(), "mn");
  cli.add_string("truth", "optional truth file to score against", "");
  cli.add_string("noise", "decode-time noise: none|sym:<rate>[:<seed>]|"
                          "gauss:<sigma>[:<seed>]", "none");
  cli.add_i64("rounds", "round cap for adaptive decoders (0 = default)", 0);
  cli.add_i64("budget", "query budget for adaptive decoders (0 = all)", 0);
  cli.add_i64("deadline-ms", "wall-clock budget in ms (0 = none)", 0);
  cli.add_i64("seed", "RNG seed for stochastic decoders (0 = default)", 0);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.help_text().c_str(), stdout);
    return 0;
  }
  POOLED_REQUIRE(cli.i64("rounds") >= 0 && cli.i64("budget") >= 0 &&
                     cli.i64("deadline-ms") >= 0 && cli.i64("seed") >= 0,
                 "--rounds/--budget/--deadline-ms/--seed must be >= 0");
  POOLED_REQUIRE(cli.i64("k") >= 0 && cli.i64("k") <= 0xFFFFFFFFll &&
                     cli.i64("rounds") <= 0xFFFFFFFFll,
                 "--k/--rounds must fit in 32 bits");
  ThreadPool pool;

  // The decode rides the engine, exactly like one serve-mode job: same
  // noise application, diagnostics, and error surface.
  DecodeJob job;
  job.spec = load_instance_file(cli.string("in"));
  job.decoder = cli.string("decoder");
  job.k = static_cast<std::uint32_t>(cli.i64("k"));
  job.noise = NoiseModel::parse(cli.string("noise"));
  job.rounds = static_cast<std::uint32_t>(cli.i64("rounds"));
  job.budget = static_cast<std::uint64_t>(cli.i64("budget"));
  job.rng_seed = static_cast<std::uint64_t>(cli.i64("seed"));
  if (cli.i64("deadline-ms") > 0) {
    job.deadline_seconds = static_cast<double>(cli.i64("deadline-ms")) / 1000.0;
  }
  if (!cli.string("truth").empty()) {
    std::ifstream is(cli.string("truth"));
    POOLED_REQUIRE(static_cast<bool>(is), "cannot open truth file");
    std::vector<std::uint32_t> support;
    std::uint32_t index;
    while (is >> index) support.push_back(index);
    job.truth_support = std::move(support);
  }

  EngineOptions options;
  options.capture_errors = false;  // a broken flag should fail loudly
  const DecodeReport report = BatchEngine(pool, options).run_one(job);
  std::printf("decoded %s with %s: support =", cli.string("in").c_str(),
              report.decoder_name.c_str());
  for (auto i : report.support) std::printf(" %u", i);
  std::printf("\nconsistent with observations: %s\n",
              report.consistent ? "yes" : "no");
  std::printf("rounds=%u queries=%llu stop=%s (%.3f ms)\n", report.rounds,
              static_cast<unsigned long long>(report.queries),
              stop_reason_name(report.stop).c_str(), 1000.0 * report.seconds);
  if (report.scored) {
    std::printf("exact=%s overlap=%.1f%%\n", report.exact ? "yes" : "no",
                100.0 * report.overlap);
  }
  return 0;
}

int cmd_decoders(int argc, const char* const* argv) {
  CliParser cli("pooled_cli decoders");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.help_text().c_str(), stdout);
    return 0;
  }
  // Discovery endpoint for serve clients: every spec the registry
  // resolves, with its variant grammar and one-line doc.
  std::printf("decoder specs: %s\n\n",
              DecoderRegistry::global().spec_help().c_str());
  ConsoleTable table({"spec", "description"});
  for (const auto& entry : DecoderRegistry::global().help_entries()) {
    table.add_row({entry.name + entry.variants_help, entry.description});
  }
  table.print(std::cout);
  std::printf(
      "\nv2 job options apply to any spec: noise (sym/gauss), deadline-ms,\n"
      "and -- for adaptive -- rounds and budget (see engine/protocol.hpp).\n");
  return 0;
}

/// Set by SIGINT/SIGTERM so the socket server winds down cleanly.
std::atomic<bool> g_serve_interrupted{false};

void handle_serve_signal(int) { g_serve_interrupted.store(true); }

/// Prints the cache summary line from a metrics snapshot -- the same
/// cache.* counters the stats frame and every exporter report -- so the
/// stderr line can never drift from what the registry says.
void print_cache_line(const MetricsSnapshot& snapshot) {
  if (snapshot.find("cache.hits") == nullptr) return;  // no cache wired
  const std::uint64_t hits = snapshot.counter_value("cache.hits");
  const std::uint64_t misses = snapshot.counter_value("cache.misses");
  const std::uint64_t lookups = hits + misses;
  std::fprintf(
      stderr,
      "cache: capacity=%lld size=%lld hits=%llu misses=%llu "
      "evictions=%llu snapshot-writes=%llu snapshot-restores=%llu "
      "snapshot-rejected=%llu hit-rate=%.1f%%\n",
      static_cast<long long>(snapshot.gauge_value("cache.capacity")),
      static_cast<long long>(snapshot.gauge_value("cache.size")),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(snapshot.counter_value("cache.evictions")),
      static_cast<unsigned long long>(
          snapshot.counter_value("cache.snapshot_writes")),
      static_cast<unsigned long long>(
          snapshot.counter_value("cache.snapshot_restores")),
      static_cast<unsigned long long>(
          snapshot.counter_value("cache.snapshot_rejected")),
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(hits) /
                         static_cast<double>(lookups));
}

int cmd_serve(int argc, const char* const* argv) {
  CliParser cli("pooled_cli serve");
  cli.add_string("in", "request file, '-' = stdin (see engine/protocol.hpp)", "-");
  cli.add_string("out", "result file, '-' = stdout", "-");
  cli.add_string("listen",
                 "serve connections on <host>:<port> or unix:/path instead of "
                 "--in/--out streams (port 0 picks a free port)", "");
  cli.add_i64("batch", "jobs per scheduling window (0 = 4x threads)", 0);
  cli.add_i64("threads", "worker threads (0 = hardware concurrency)", 0);
  cli.add_i64("cache", "result-cache capacity in reports (0 = no cache)", 1024);
  cli.add_string("cache-file",
                 "durable cache snapshot path: restored on startup, spilled "
                 "periodically and on drain/exit (see engine/cache_store.hpp)",
                 "");
  cli.add_f64("snapshot-interval",
              "seconds between periodic cache snapshots with --cache-file",
              30.0);
  cli.add_flag("progress", "stream per-round decode progress to stderr");
  cli.add_string("metrics",
                 "plain-text metrics endpoint on <host>:<port> or unix:/path; "
                 "'-' = periodic snapshot dump to stderr", "");
  cli.add_string("trace", "per-job JSONL span log file (see obs/trace.hpp)", "");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.help_text().c_str(), stdout);
    return 0;
  }
  POOLED_REQUIRE(cli.i64("threads") >= 0, "--threads must be >= 0");
  POOLED_REQUIRE(cli.i64("batch") >= 0, "--batch must be >= 0");
  POOLED_REQUIRE(cli.i64("cache") >= 0, "--cache must be >= 0");
  POOLED_REQUIRE(cli.f64("snapshot-interval") > 0.0,
                 "--snapshot-interval must be > 0");
  const std::string cache_file = cli.string("cache-file");
  POOLED_REQUIRE(cache_file.empty() || cli.i64("cache") > 0,
                 "--cache-file needs --cache > 0");
  ThreadPool pool(static_cast<unsigned>(cli.i64("threads")));
  std::unique_ptr<ResultCache> cache;
  if (cli.i64("cache") > 0) {
    cache = std::make_unique<ResultCache>(static_cast<std::size_t>(cli.i64("cache")));
  }
  if (cache && !cache_file.empty()) {
    try {
      const std::size_t restored = cache->restore(cache_file);
      if (restored > 0) {
        std::fprintf(stderr, "cache: restored %zu entries from %s\n", restored,
                     cache_file.c_str());
      }
    } catch (const ContractError& e) {
      // A corrupt snapshot must not stop the server: it starts cold and
      // the rejection is counted (cache.snapshot_rejected) and logged.
      std::fprintf(stderr, "cache: restore rejected, starting cold: %s\n",
                   e.what());
    }
  }
  // Spill failures (full disk, bad path) are survivable -- decoding
  // continues -- but they mean durability was not delivered, so they are
  // counted and turn the exit status nonzero.
  std::atomic<std::uint64_t> snapshot_failures{0};
  const auto spill_cache = [&]() -> bool {
    if (!cache || cache_file.empty()) return false;
    try {
      cache->spill(cache_file);
      return true;
    } catch (const std::exception& e) {
      snapshot_failures.fetch_add(1);
      std::fprintf(stderr, "cache: snapshot failed: %s\n", e.what());
      return false;
    }
  };
  EngineOptions options;
  options.max_in_flight = static_cast<std::size_t>(cli.i64("batch"));
  options.cache = cache.get();
  const BatchEngine engine(pool, options);
  std::unique_ptr<ProgressStream> progress;
  if (cli.flag("progress")) progress = std::make_unique<ProgressStream>(std::cerr);
  std::ofstream trace_file;
  std::unique_ptr<TraceRecorder> trace;
  if (!cli.string("trace").empty()) {
    trace_file.open(cli.string("trace"));
    POOLED_REQUIRE(static_cast<bool>(trace_file),
                   "cannot open '" + cli.string("trace") + "' for writing");
    trace = std::make_unique<TraceRecorder>(trace_file);
  }
  const std::string metrics_arg = cli.string("metrics");
  const bool metrics_dump = metrics_arg == "-";
  ServeServerOptions serve_options;
  serve_options.progress = progress.get();
  serve_options.trace = trace.get();
  serve_options.on_drain = [&](DrainSummary& summary) {
    if (cache) summary.cache_entries = cache->stats().size;
    summary.snapshot_written = spill_cache();
  };

  const bool listen = !cli.string("listen").empty();
  bool well_formed = true;
  if (listen) {
    // Socket mode: one session per connection, until SIGINT/SIGTERM.
    ServeServer server(
        ListenSocket::bind_and_listen(SocketAddress::parse(cli.string("listen"))),
        engine, serve_options);
    std::unique_ptr<MetricsServer> metrics_server;
    if (!metrics_arg.empty() && !metrics_dump) {
      metrics_server = std::make_unique<MetricsServer>(
          ListenSocket::bind_and_listen(SocketAddress::parse(metrics_arg)),
          [&server] {
            std::ostringstream body;
            write_snapshot_text(body, server.build_snapshot());
            return body.str();
          });
      metrics_server->start();
      std::fprintf(stderr, "metrics on %s\n",
                   metrics_server->local_address().to_string().c_str());
    }
    server.start();
    // The "listening on" line is the readiness signal scripts wait for
    // (and carries the real port when --listen asked for port 0).
    std::fprintf(stderr, "listening on %s (%u threads)\n",
                 server.address().to_string().c_str(), pool.size());
    g_serve_interrupted.store(false);
    std::signal(SIGINT, handle_serve_signal);
    std::signal(SIGTERM, handle_serve_signal);
    int ticks = 0;
    bool signalled = false;
    Timer since_spill;
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (metrics_dump && ++ticks % 100 == 0) {  // ~every 5 seconds
        std::ostringstream body;
        write_snapshot_text(body, server.build_snapshot());
        std::fputs(body.str().c_str(), stderr);
      }
      if (since_spill.seconds() >= cli.f64("snapshot-interval")) {
        (void)spill_cache();  // periodic snapshot (no-op without a file)
        since_spill.reset();
      }
      if (g_serve_interrupted.exchange(false)) {
        // First SIGINT/SIGTERM starts the same graceful drain the
        // pooled-drain frame does: in-flight windows finish, the cache
        // snapshots, then we fall out below. A second signal means "now".
        if (signalled) break;
        signalled = true;
        server.begin_drain();
      }
      if (server.draining() &&
          server.build_snapshot().gauge_value("serve.connections_active") == 0) {
        break;
      }
    }
    if (metrics_server) metrics_server->stop();
    server.stop();
  } else {
    POOLED_REQUIRE(metrics_arg.empty() || metrics_dump,
                   "--metrics <addr> needs --listen; use --metrics - for a "
                   "final snapshot on stream serve");
    std::ifstream file_in;
    std::istream* in = &std::cin;
    if (cli.string("in") != "-") {
      file_in.open(cli.string("in"));
      POOLED_REQUIRE(static_cast<bool>(file_in),
                     "cannot open '" + cli.string("in") + "' for reading");
      in = &file_in;
    }
    std::ofstream file_out;
    std::ostream* out = &std::cout;
    if (cli.string("out") != "-") {
      file_out.open(cli.string("out"));
      POOLED_REQUIRE(static_cast<bool>(file_out),
                     "cannot open '" + cli.string("out") + "' for writing");
      out = &file_out;
    }
    // Stream mode: one session over --in/--out, as connection 0.
    well_formed = ServeSession(*in, *out, engine, serve_options).run();
  }
  (void)spill_cache();  // final snapshot: nothing decoded after this
  const MetricsSnapshot snapshot = serve_snapshot(engine);
  const auto count = [&snapshot](const char* name) {
    return static_cast<unsigned long long>(snapshot.counter_value(name));
  };
  if (listen) {
    std::fprintf(stderr,
                 "served %llu jobs over %llu connections "
                 "(%llu cancelled, %llu failed, %llu write-failures, "
                 "%llu snapshot-failures, %llu reaped, %llu errored)\n",
                 count("serve.jobs_served"), count("serve.connections_accepted"),
                 count("serve.jobs_cancelled"), count("serve.jobs_failed"),
                 count("serve.write_failures"),
                 static_cast<unsigned long long>(snapshot_failures.load()),
                 count("serve.connections_reaped"),
                 count("serve.connections_errored"));
  } else {
    std::fprintf(stderr, "served %llu jobs over %u threads\n",
                 count("serve.jobs_served"), pool.size());
  }
  print_cache_line(snapshot);
  if (metrics_dump && !listen) {
    std::ostringstream body;
    write_snapshot_text(body, snapshot);
    std::fputs(body.str().c_str(), stderr);
  }
  // A clean run exits 0. A malformed request (answered with a final
  // `status error` frame), undelivered frames, or failed snapshots mean
  // the run lost something and the caller must know.
  return !well_formed || count("serve.write_failures") > 0 ||
                 snapshot_failures.load() > 0
             ? 1
             : 0;
}

int cmd_route(int argc, const char* const* argv) {
  CliParser cli("pooled_cli route");
  cli.add_string_list("shard",
                      "backend serve address (<host>:<port> or unix:/path); "
                      "repeat once per shard");
  cli.add_string("in", "request file, '-' = stdin (see engine/protocol.hpp)", "-");
  cli.add_string("out", "result file, '-' = stdout", "-");
  cli.add_i64("window", "max jobs in flight (0 = 4x shard count)", 0);
  cli.add_f64("probe", "liveness-probe / reconnect period in seconds", 0.05);
  cli.add_f64("dial-timeout", "per-attempt connect timeout in seconds", 1.0);
  cli.add_f64("all-dead-timeout",
              "fail pending jobs after this many seconds of full-fleet "
              "outage (0 = wait forever)", 30.0);
  cli.add_flag("no-affinity",
               "round-robin every job instead of routing by instance digest");
  cli.add_i64("drain-shard",
              "gracefully drain shard <i> (0-based) before serving: it "
              "snapshots its cache and exits, the prober readmits it when "
              "it restarts (-1 = none)", -1);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.help_text().c_str(), stdout);
    return 0;
  }
  POOLED_REQUIRE(!cli.string_list("shard").empty(),
                 "route needs at least one --shard <addr>");
  POOLED_REQUIRE(cli.i64("window") >= 0, "--window must be >= 0");
  std::vector<SocketAddress> shards;
  for (const std::string& addr : cli.string_list("shard")) {
    shards.push_back(SocketAddress::parse(addr));
  }

  ShardRouterOptions options;
  options.probe_seconds = cli.f64("probe");
  options.dial_timeout_seconds = cli.f64("dial-timeout");
  options.all_dead_fail_seconds = cli.f64("all-dead-timeout");
  options.affinity = !cli.flag("no-affinity");
  ShardRouter router(std::move(shards), options);
  router.start();
  std::fprintf(stderr, "routing over %zu shards (%zu alive)\n",
               router.shard_count(), router.alive_count());
  if (cli.i64("drain-shard") >= 0) {
    const auto index = static_cast<std::size_t>(cli.i64("drain-shard"));
    const std::optional<DrainSummary> summary = router.drain_shard(index);
    if (summary) {
      std::fprintf(stderr,
                   "drained shard %zu: %llu jobs served, %llu cache entries, "
                   "snapshot %s\n",
                   index,
                   static_cast<unsigned long long>(summary->jobs_served),
                   static_cast<unsigned long long>(summary->cache_entries),
                   summary->snapshot_written ? "written" : "not written");
    } else {
      std::fprintf(stderr,
                   "drain of shard %zu got no summary (down or timed out)\n",
                   index);
    }
  }

  std::ifstream file_in;
  std::istream* in = &std::cin;
  if (cli.string("in") != "-") {
    file_in.open(cli.string("in"));
    POOLED_REQUIRE(static_cast<bool>(file_in),
                   "cannot open '" + cli.string("in") + "' for reading");
    in = &file_in;
  }
  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (cli.string("out") != "-") {
    file_out.open(cli.string("out"));
    POOLED_REQUIRE(static_cast<bool>(file_out),
                   "cannot open '" + cli.string("out") + "' for writing");
    out = &file_out;
  }

  const std::size_t served = route_requests(
      *in, *out, router, static_cast<std::size_t>(cli.i64("window")));
  router.stop();
  std::fprintf(stderr, "routed %zu jobs\n", served);
  for (const ShardStatus& status : router.shard_statuses()) {
    std::fprintf(stderr,
                 "  shard %s: %llu sent, %llu answered, %llu lost, "
                 "%llu admitted%s\n",
                 status.address.to_string().c_str(),
                 static_cast<unsigned long long>(status.jobs_sent),
                 static_cast<unsigned long long>(status.results_received),
                 static_cast<unsigned long long>(status.times_lost),
                 static_cast<unsigned long long>(status.times_admitted),
                 status.draining ? ", draining" : "");
  }
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  CliParser cli("pooled_cli sweep");
  cli.add_i64("n", "signal length", 1000);
  cli.add_f64("theta", "sparsity exponent", 0.3);
  cli.add_i64("trials", "trials per grid point", 20);
  cli.add_i64("points", "grid points", 12);
  cli.add_f64("max-factor", "grid top as multiple of m_MN(finite)", 2.5);
  cli.add_string("decoder", decoder_help(), "mn");
  cli.add_string("noise", "per-trial noise: none|sym:<rate>[:<seed>]|"
                          "gauss:<sigma>[:<seed>]", "none");
  cli.add_i64("seed", "seed base", 1);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.help_text().c_str(), stdout);
    return 0;
  }
  ThreadPool pool;
  TrialConfig config;
  config.n = static_cast<std::uint32_t>(cli.i64("n"));
  config.k = thresholds::k_of(config.n, cli.f64("theta"));
  config.seed_base = static_cast<std::uint64_t>(cli.i64("seed"));
  config.noise = NoiseModel::parse(cli.string("noise"));
  const double m_star =
      thresholds::m_mn_finite(config.n, std::max<std::uint32_t>(config.k, 2));
  const auto grid = linear_grid(
      std::max<std::uint32_t>(2, static_cast<std::uint32_t>(0.2 * m_star)),
      static_cast<std::uint32_t>(cli.f64("max-factor") * m_star),
      static_cast<std::uint32_t>(cli.i64("points")));
  const auto decoder = make_decoder(cli.string("decoder"));
  const auto sweep =
      sweep_queries(config, *decoder, grid,
                    static_cast<std::uint32_t>(cli.i64("trials")), pool);
  CsvWriter csv(std::cout);
  csv.header({"m", "success_rate", "ci_low", "ci_high", "overlap"});
  for (const SweepPoint& point : sweep) {
    csv.cell(point.m)
        .cell(point.success_rate)
        .cell(point.success_ci.low)
        .cell(point.success_ci.high)
        .cell(point.overlap_mean);
    csv.end_row();
  }
  return 0;
}

int cmd_thresholds(int argc, const char* const* argv) {
  CliParser cli("pooled_cli thresholds");
  cli.add_i64("n", "signal length", 10000);
  cli.add_f64("theta", "sparsity exponent", 0.3);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.help_text().c_str(), stdout);
    return 0;
  }
  const auto n = static_cast<std::uint64_t>(cli.i64("n"));
  const std::uint32_t k = thresholds::k_of(n, cli.f64("theta"));
  const std::uint64_t k2 = std::max<std::uint32_t>(k, 2);
  ConsoleTable table({"threshold", "queries", "source"});
  table.add_row({"counting bound", format_compact(thresholds::counting_bound(n, k2), 5),
                 "folklore lower bound"});
  table.add_row({"m_seq", format_compact(thresholds::m_seq(n, k2), 5),
                 "sequential optimum (Eq. 1)"});
  table.add_row({"m_para (IT)", format_compact(thresholds::m_para(n, k2), 5),
                 "Theorem 2 / Djackov"});
  table.add_row({"binary GT", format_compact(thresholds::m_binary_gt(n, k2), 5),
                 "Coja-Oghlan et al. 2021 (theta<=0.409)"});
  table.add_row({"Karimi sparse", format_compact(thresholds::m_karimi_sparse(n, k2), 5),
                 "graph codes, 1.515 k ln(n/k)"});
  table.add_row({"Karimi irregular",
                 format_compact(thresholds::m_karimi_irregular(n, k2), 5),
                 "graph codes, 1.72 k ln(n/k)"});
  table.add_row({"l1 (Donoho-Tanner)",
                 format_compact(thresholds::m_l1_donoho_tanner(n, k2), 5),
                 "compressed sensing"});
  table.add_row({"basis pursuit", format_compact(thresholds::m_basis_pursuit(n, k2), 5),
                 "2 k ln n"});
  table.add_row({"m_MN asymptotic", format_compact(thresholds::m_mn(n, k2), 5),
                 "Theorem 1"});
  table.add_row({"m_MN finite-size", format_compact(thresholds::m_mn_finite(n, k2), 5),
                 "Theorem 1 + Section V remark"});
  std::printf("thresholds for n=%llu, k=%u (theta=%.3f)\n",
              static_cast<unsigned long long>(n), k, thresholds::theta_of(n, k2));
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (command == "decode") return cmd_decode(argc - 1, argv + 1);
    if (command == "serve") return cmd_serve(argc - 1, argv + 1);
    if (command == "route") return cmd_route(argc - 1, argv + 1);
    if (command == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (command == "decoders") return cmd_decoders(argc - 1, argv + 1);
    if (command == "thresholds") return cmd_thresholds(argc - 1, argv + 1);
  } catch (const pooled::ContractError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
