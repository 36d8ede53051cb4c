#include "engine/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/assert.hpp"

namespace pooled {

namespace {

constexpr const char* kJobMagic = "pooled-job";
constexpr const char* kResultMagic = "pooled-result";
constexpr const char* kStatsMagic = "pooled-stats";
constexpr const char* kStatsResultMagic = "pooled-stats-result";
constexpr const char* kDrainMagic = "pooled-drain";
constexpr const char* kDrainResultMagic = "pooled-drain-result";
constexpr const char* kVersionV2 = "v2";  // what writers emit
constexpr const char* kEnd = "end";

bool is_blank(const std::string& line) {
  return std::all_of(line.begin(), line.end(),
                     [](unsigned char c) { return std::isspace(c) != 0; });
}

/// std::getline with the limits::kMaxLineBytes cap: reads through the
/// underlying streambuf so an over-long line is rejected the moment it
/// crosses the limit, not after it has been buffered whole. Matches
/// getline's stream-state contract (failbit at end of stream) so the
/// `while (read_line(is, line))` loops read like the getline ones did.
bool read_line(std::istream& is, std::string& line) {
  line.clear();
  std::streambuf* buf = is.rdbuf();
  int ch = buf == nullptr ? std::char_traits<char>::eof() : buf->sbumpc();
  if (ch == std::char_traits<char>::eof()) {
    is.setstate(std::ios::eofbit | std::ios::failbit);
    return false;
  }
  while (ch != std::char_traits<char>::eof() && ch != '\n') {
    POOLED_REQUIRE(line.size() < limits::kMaxLineBytes,
                   "protocol line exceeds the " +
                       std::to_string(limits::kMaxLineBytes) + " byte limit");
    line.push_back(static_cast<char>(ch));
    ch = buf->sbumpc();
  }
  return true;
}

std::string trimmed(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const auto last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

/// Newlines in free-text fields would break the line framing.
std::string one_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  std::replace(text.begin(), text.end(), '\r', ' ');
  return text;
}

struct FrameHeader {
  std::string line;   ///< the raw header line (error messages)
  std::string magic;
  std::string version;  ///< raw token; parse_version validates
};

/// Reads lines until a frame header appears; nullopt at EOF. Nothing is
/// validated here -- callers check the magic (which frames they accept)
/// and then parse_version.
std::optional<FrameHeader> read_any_header(std::istream& is) {
  std::string line;
  while (read_line(is, line)) {
    if (!is_blank(line)) break;
  }
  if (!is) return std::nullopt;
  FrameHeader parsed;
  parsed.line = line;
  std::istringstream header(line);
  header >> parsed.magic >> parsed.version;
  return parsed;
}

/// The frame version (1 or 2); v1 frames are the PR-2 format and keep
/// loading unchanged.
int parse_version(const FrameHeader& header) {
  if (header.version == "v1") return 1;
  if (header.version == kVersionV2) return 2;
  POOLED_REQUIRE(false, "unsupported " + header.magic + " version " +
                            header.version);
  return 0;
}

/// read_any_header, asserting the frame is of `kind`.
std::optional<int> read_header(std::istream& is, const char* kind) {
  std::optional<FrameHeader> header = read_any_header(is);
  if (!header) return std::nullopt;
  POOLED_REQUIRE(header->magic == kind,
                 std::string("expected a ") + kind + " frame, got '" +
                     header->line + "'");
  return parse_version(*header);
}

/// v2-only fields must not appear inside a v1 frame: an archived stream
/// parses with one version's semantics or fails loudly, never both.
void require_v2(int version, const std::string& key) {
  POOLED_REQUIRE(version >= 2,
                 "field '" + key + "' needs a v2 frame, got v" +
                     std::to_string(version));
}

}  // namespace

bool read_bounded_line(std::istream& is, std::string& line) {
  return read_line(is, line);
}

void save_job(std::ostream& os, const DecodeJob& job,
              std::optional<std::size_t> index) {
  // Name the offending job: in a batch of hundreds, "some job is not
  // spec-backed" is undebuggable.
  const std::string who = (index ? "job #" + std::to_string(*index) + " "
                                 : std::string("job ")) +
                          "(decoder '" + job.decoder + "')";
  POOLED_REQUIRE(job.spec.has_value(),
                 who + " is not serializable: only spec-backed jobs have a "
                       "textual form (prebuilt/lazy instances do not)");
  POOLED_REQUIRE(job.decoder_override == nullptr,
                 who + " is not serializable: decoder overrides have no "
                       "textual form; use a registry spec");
  os << kJobMagic << ' ' << kVersionV2 << '\n';
  os << "decoder " << job.decoder << '\n';
  os << "k " << job.k << '\n';
  if (job.truth_support) {
    os << "truth";
    for (std::uint32_t i : *job.truth_support) os << ' ' << i;
    os << '\n';
  }
  const auto old_precision = os.precision(17);
  if (job.noise.enabled()) {
    os << "noise " << job.noise.kind_name() << ' ' << job.noise.level << ' '
       << job.noise.seed << '\n';
  }
  if (job.deadline_seconds) {
    os << "deadline-ms " << (*job.deadline_seconds * 1000.0) << '\n';
  }
  os.precision(old_precision);
  if (job.rounds > 0) os << "rounds " << job.rounds << '\n';
  if (job.budget > 0) os << "budget " << job.budget << '\n';
  if (job.rng_seed != 0) os << "seed " << job.rng_seed << '\n';
  os << "instance\n";
  save_instance(os, *job.spec);
  os << kEnd << '\n';
  POOLED_REQUIRE(static_cast<bool>(os), "job serialization failed");
}

namespace {

/// The body of a job frame, after the header line has been consumed.
DecodeJob load_job_body(std::istream& is, int version_value) {
  const int* version = &version_value;
  DecodeJob job;
  bool saw_k = false;
  bool saw_instance = false;
  std::string line;
  while (read_line(is, line)) {
    if (is_blank(line)) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "decoder") {
      POOLED_REQUIRE(static_cast<bool>(fields >> job.decoder),
                     "truncated decoder field");
    } else if (key == "k") {
      POOLED_REQUIRE(static_cast<bool>(fields >> job.k), "truncated k field");
      saw_k = true;
    } else if (key == "noise") {
      require_v2(*version, key);
      std::string kind;
      double level = 0.0;
      std::uint64_t seed = 0;
      POOLED_REQUIRE(static_cast<bool>(fields >> kind >> level >> seed),
                     "truncated noise field (want: noise <sym|gauss> <level> "
                     "<seed>)");
      job.noise = NoiseModel::make(kind, level, seed);  // validates
    } else if (key == "deadline-ms") {
      require_v2(*version, key);
      double millis = 0.0;
      // Finite matters: an `inf` deadline would otherwise parse as "wait
      // forever", turning one hostile frame into a wedged worker.
      POOLED_REQUIRE(static_cast<bool>(fields >> millis) && millis > 0.0 &&
                         std::isfinite(millis),
                     "deadline-ms must be a positive finite number");
      job.deadline_seconds = millis / 1000.0;
    } else if (key == "rounds") {
      require_v2(*version, key);
      POOLED_REQUIRE(static_cast<bool>(fields >> job.rounds),
                     "truncated rounds field");
    } else if (key == "budget") {
      require_v2(*version, key);
      POOLED_REQUIRE(static_cast<bool>(fields >> job.budget),
                     "truncated budget field");
    } else if (key == "seed") {
      require_v2(*version, key);
      POOLED_REQUIRE(static_cast<bool>(fields >> job.rng_seed),
                     "truncated seed field");
    } else if (key == "truth") {
      std::vector<std::uint32_t> support;
      std::uint32_t index = 0;
      while (fields >> index) {
        POOLED_REQUIRE(support.size() < limits::kMaxSupportEntries,
                       "truth line exceeds the " +
                           std::to_string(limits::kMaxSupportEntries) +
                           " entry limit");
        support.push_back(index);
      }
      job.truth_support = std::move(support);
    } else if (key == "instance") {
      // The embedded instance block runs to the frame's `end` line;
      // load_instance consumes its whole stream, hence the copy. The
      // copy is bounded: a frame that never terminates cannot make the
      // reader buffer more than kMaxInstanceBlockBytes.
      std::ostringstream block;
      std::size_t block_bytes = 0;
      bool terminated = false;
      while (read_line(is, line)) {
        if (trimmed(line) == kEnd) {
          terminated = true;
          break;
        }
        block_bytes += line.size() + 1;
        POOLED_REQUIRE(block_bytes <= limits::kMaxInstanceBlockBytes,
                       "job instance block exceeds the " +
                           std::to_string(limits::kMaxInstanceBlockBytes) +
                           " byte limit");
        block << line << '\n';
      }
      POOLED_REQUIRE(terminated, "job instance block missing 'end'");
      std::istringstream instance_stream(block.str());
      job.spec = load_instance(instance_stream);
      saw_instance = true;
      break;  // the instance block closes the job
    } else {
      POOLED_REQUIRE(false, "unknown job field '" + key + "'");
    }
  }
  POOLED_REQUIRE(saw_instance, "job missing instance block");
  POOLED_REQUIRE(saw_k, "job missing k");
  return job;
}

/// The body of a payload-free request frame -- stats and drain requests
/// are nothing but the `end` line. `what` names the frame in errors.
void load_empty_request_body(std::istream& is, const char* what) {
  std::string line;
  while (read_line(is, line)) {
    if (is_blank(line)) continue;
    POOLED_REQUIRE(trimmed(line) == kEnd,
                   std::string("unexpected ") + what + "-request field '" +
                       trimmed(line) + "'");
    return;
  }
  POOLED_REQUIRE(false, std::string(what) + " frame missing 'end'");
}

}  // namespace

std::optional<DecodeJob> load_job(std::istream& is) {
  const std::optional<int> version = read_header(is, kJobMagic);
  if (!version) return std::nullopt;
  return load_job_body(is, *version);
}

std::optional<ServeRequest> load_request(std::istream& is) {
  std::optional<FrameHeader> header = read_any_header(is);
  if (!header) return std::nullopt;
  if (header->magic == kJobMagic) {
    return ServeRequest(load_job_body(is, parse_version(*header)));
  }
  if (header->magic == kStatsMagic) {
    POOLED_REQUIRE(parse_version(*header) >= 2,
                   "pooled-stats frames need protocol v2");
    load_empty_request_body(is, "stats");
    return ServeRequest(StatsRequest{});
  }
  POOLED_REQUIRE(header->magic == kDrainMagic,
                 "expected a " + std::string(kJobMagic) + ", " + kStatsMagic +
                     ", or " + kDrainMagic + " frame, got '" + header->line +
                     "'");
  POOLED_REQUIRE(parse_version(*header) >= 2,
                 "pooled-drain frames need protocol v2");
  load_empty_request_body(is, "drain");
  return ServeRequest(DrainRequest{});
}

void save_stats_request(std::ostream& os) {
  os << kStatsMagic << ' ' << kVersionV2 << '\n' << kEnd << '\n';
  POOLED_REQUIRE(static_cast<bool>(os), "stats request serialization failed");
}

void save_drain_request(std::ostream& os) {
  os << kDrainMagic << ' ' << kVersionV2 << '\n' << kEnd << '\n';
  POOLED_REQUIRE(static_cast<bool>(os), "drain request serialization failed");
}

void save_drain_summary(std::ostream& os, const DrainSummary& summary) {
  os << kDrainResultMagic << ' ' << kVersionV2 << '\n';
  os << "status ok\n";
  os << "jobs-served " << summary.jobs_served << '\n';
  os << "cache-entries " << summary.cache_entries << '\n';
  os << "snapshot-written " << (summary.snapshot_written ? 1 : 0) << '\n';
  os << "write-failures " << summary.write_failures << '\n';
  os << kEnd << '\n';
  POOLED_REQUIRE(static_cast<bool>(os), "drain summary serialization failed");
}

namespace {

/// The body of a drain-result frame, after the header line.
DrainSummary load_drain_summary_body(std::istream& is) {
  DrainSummary summary;
  bool terminated = false;
  std::string line;
  while (read_line(is, line)) {
    if (is_blank(line)) continue;
    const std::string body = trimmed(line);
    if (body == kEnd) {
      terminated = true;
      break;
    }
    std::istringstream fields(body);
    std::string key;
    fields >> key;
    int flag = 0;
    if (key == "status") {
      std::string status;
      POOLED_REQUIRE(static_cast<bool>(fields >> status) && status == "ok",
                     "unexpected drain status line '" + body + "'");
    } else if (key == "jobs-served") {
      POOLED_REQUIRE(static_cast<bool>(fields >> summary.jobs_served),
                     "truncated jobs-served field");
    } else if (key == "cache-entries") {
      POOLED_REQUIRE(static_cast<bool>(fields >> summary.cache_entries),
                     "truncated cache-entries field");
    } else if (key == "snapshot-written") {
      POOLED_REQUIRE(static_cast<bool>(fields >> flag),
                     "truncated snapshot-written field");
      summary.snapshot_written = flag != 0;
    } else if (key == "write-failures") {
      POOLED_REQUIRE(static_cast<bool>(fields >> summary.write_failures),
                     "truncated write-failures field");
    } else {
      POOLED_REQUIRE(false, "unknown drain-result field '" + key + "'");
    }
  }
  POOLED_REQUIRE(terminated, "drain result frame missing 'end'");
  return summary;
}

}  // namespace

std::optional<DrainSummary> load_drain_summary(std::istream& is) {
  const std::optional<int> version = read_header(is, kDrainResultMagic);
  if (!version) return std::nullopt;
  POOLED_REQUIRE(*version >= 2, "pooled-drain-result frames need protocol v2");
  return load_drain_summary_body(is);
}

void save_stats_snapshot(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << kStatsResultMagic << ' ' << kVersionV2 << '\n';
  os << "status ok\n";
  for (const MetricValue& value : snapshot.values) {
    os << format_metric_line(value) << '\n';
  }
  os << kEnd << '\n';
  POOLED_REQUIRE(static_cast<bool>(os), "stats snapshot serialization failed");
}

namespace {

/// The body of a stats-result frame, after the header line.
MetricsSnapshot load_stats_snapshot_body(std::istream& is) {
  MetricsSnapshot snapshot;
  bool terminated = false;
  std::string line;
  while (read_line(is, line)) {
    if (is_blank(line)) continue;
    const std::string body = trimmed(line);
    if (body == kEnd) {
      terminated = true;
      break;
    }
    if (body.rfind("status", 0) == 0) {
      POOLED_REQUIRE(body == "status ok",
                     "unexpected stats status line '" + body + "'");
      continue;
    }
    snapshot.values.push_back(parse_metric_line(body));
  }
  POOLED_REQUIRE(terminated, "stats result frame missing 'end'");
  return snapshot;
}

}  // namespace

std::optional<MetricsSnapshot> load_stats_snapshot(std::istream& is) {
  const std::optional<int> version = read_header(is, kStatsResultMagic);
  if (!version) return std::nullopt;
  POOLED_REQUIRE(*version >= 2, "pooled-stats-result frames need protocol v2");
  return load_stats_snapshot_body(is);
}

void save_report(std::ostream& os, const DecodeReport& report) {
  os << kResultMagic << ' ' << kVersionV2 << '\n';
  os << "job " << report.index << '\n';
  if (!report.ok()) {
    os << "status error " << one_line(report.error) << '\n';
    os << kEnd << '\n';
    POOLED_REQUIRE(static_cast<bool>(os), "report serialization failed");
    return;
  }
  const auto old_precision = os.precision(17);
  os << "status ok\n";
  os << "decoder " << report.decoder_name << '\n';
  os << "n " << report.n << '\n';
  os << "k " << report.k << '\n';
  os << "seconds " << report.seconds << '\n';
  os << "consistent " << (report.consistent ? 1 : 0) << '\n';
  os << "rounds " << report.rounds << '\n';
  os << "queries " << report.queries << '\n';
  os << "stop " << stop_reason_name(report.stop) << '\n';
  os << "support";
  for (std::uint32_t i : report.support) os << ' ' << i;
  os << '\n';
  if (report.scored) {
    os << "exact " << (report.exact ? 1 : 0) << '\n';
    os << "overlap " << report.overlap << '\n';
  }
  os << kEnd << '\n';
  os.precision(old_precision);
  POOLED_REQUIRE(static_cast<bool>(os), "report serialization failed");
}

namespace {

/// The body of a result frame, after the header line.
DecodeReport load_report_body(std::istream& is, int version_value) {
  const int* version = &version_value;
  DecodeReport report;
  bool terminated = false;
  std::string line;
  while (read_line(is, line)) {
    if (is_blank(line)) continue;
    if (trimmed(line) == kEnd) {
      terminated = true;
      break;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    int flag = 0;
    if (key == "job") {
      POOLED_REQUIRE(static_cast<bool>(fields >> report.index), "truncated job");
    } else if (key == "status") {
      std::string status;
      POOLED_REQUIRE(static_cast<bool>(fields >> status), "truncated status");
      if (status == "error") {
        std::getline(fields, report.error);
        report.error = trimmed(report.error);
        if (report.error.empty()) report.error = "unknown error";
      } else {
        POOLED_REQUIRE(status == "ok", "unknown status '" + status + "'");
      }
    } else if (key == "decoder") {
      std::getline(fields, report.decoder_name);
      report.decoder_name = trimmed(report.decoder_name);
    } else if (key == "n") {
      POOLED_REQUIRE(static_cast<bool>(fields >> report.n), "truncated n");
    } else if (key == "k") {
      POOLED_REQUIRE(static_cast<bool>(fields >> report.k), "truncated k");
    } else if (key == "seconds") {
      POOLED_REQUIRE(static_cast<bool>(fields >> report.seconds),
                     "truncated seconds");
    } else if (key == "consistent") {
      POOLED_REQUIRE(static_cast<bool>(fields >> flag), "truncated consistent");
      report.consistent = flag != 0;
    } else if (key == "rounds") {
      require_v2(*version, key);
      POOLED_REQUIRE(static_cast<bool>(fields >> report.rounds),
                     "truncated rounds");
    } else if (key == "queries") {
      require_v2(*version, key);
      POOLED_REQUIRE(static_cast<bool>(fields >> report.queries),
                     "truncated queries");
    } else if (key == "stop") {
      require_v2(*version, key);
      std::string reason;
      POOLED_REQUIRE(static_cast<bool>(fields >> reason), "truncated stop");
      report.stop = stop_reason_from_name(reason);
    } else if (key == "support") {
      std::uint32_t index = 0;
      report.support.clear();
      while (fields >> index) {
        POOLED_REQUIRE(report.support.size() < limits::kMaxSupportEntries,
                       "support line exceeds the " +
                           std::to_string(limits::kMaxSupportEntries) +
                           " entry limit");
        report.support.push_back(index);
      }
    } else if (key == "exact") {
      POOLED_REQUIRE(static_cast<bool>(fields >> flag), "truncated exact");
      report.exact = flag != 0;
      report.scored = true;
    } else if (key == "overlap") {
      POOLED_REQUIRE(static_cast<bool>(fields >> report.overlap),
                     "truncated overlap");
      report.scored = true;
    } else {
      POOLED_REQUIRE(false, "unknown result field '" + key + "'");
    }
  }
  POOLED_REQUIRE(terminated, "result frame missing 'end'");
  return report;
}

}  // namespace

std::optional<DecodeReport> load_report(std::istream& is) {
  const std::optional<int> version = read_header(is, kResultMagic);
  if (!version) return std::nullopt;
  return load_report_body(is, *version);
}

std::optional<ServeResponse> load_response(std::istream& is) {
  std::optional<FrameHeader> header = read_any_header(is);
  if (!header) return std::nullopt;
  if (header->magic == kResultMagic) {
    return ServeResponse(load_report_body(is, parse_version(*header)));
  }
  if (header->magic == kStatsResultMagic) {
    POOLED_REQUIRE(parse_version(*header) >= 2,
                   "pooled-stats-result frames need protocol v2");
    return ServeResponse(load_stats_snapshot_body(is));
  }
  POOLED_REQUIRE(header->magic == kDrainResultMagic,
                 "expected a " + std::string(kResultMagic) + ", " +
                     kStatsResultMagic + ", or " + kDrainResultMagic +
                     " frame, got '" + header->line + "'");
  POOLED_REQUIRE(parse_version(*header) >= 2,
                 "pooled-drain-result frames need protocol v2");
  return ServeResponse(load_drain_summary_body(is));
}

void ProgressStream::emit(std::uint64_t connection, std::size_t job_index,
                          std::uint32_t round, std::uint64_t queries) {
  const LockGuard lock(mutex_);
  os_ << "progress ";
  if (connection != 0) os_ << "conn=" << connection << ' ';
  os_ << "job=" << job_index << " round=" << round << " queries=" << queries
      << '\n';
  os_.flush();
}

}  // namespace pooled
