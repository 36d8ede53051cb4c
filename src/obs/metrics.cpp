#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <sstream>

#include "support/assert.hpp"

namespace pooled {

// -- LatencyHistogram -------------------------------------------------------

unsigned LatencyHistogram::bucket_of_us(std::uint64_t us) {
  if (us == 0) return 0;
  const auto width = static_cast<unsigned>(std::bit_width(us));
  return width < kBuckets ? width : kBuckets - 1;
}

double LatencyHistogram::bucket_upper_seconds(unsigned bucket) {
  return std::ldexp(1.0, static_cast<int>(bucket)) * 1e-6;
}

void LatencyHistogram::record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  record_us(static_cast<std::uint64_t>(std::llround(seconds * 1e6)));
}

void LatencyHistogram::record_us(std::uint64_t us) {
  buckets_[bucket_of_us(us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
  std::uint64_t seen = min_us_.load(std::memory_order_relaxed);
  while (us < seen &&
         !min_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
  }
  seen = max_us_.load(std::memory_order_relaxed);
  while (us > seen &&
         !max_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  // Concurrent recording makes the bucket sum and count_ drift by a few
  // in-flight samples; quantile ranks use the bucket sum so the walk is
  // self-consistent.
  std::uint64_t buckets[kBuckets];
  std::uint64_t total = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    total += buckets[b];
  }
  snap.count = total;
  if (total == 0) return snap;
  snap.sum_seconds =
      static_cast<double>(sum_us_.load(std::memory_order_relaxed)) * 1e-6;
  snap.min_seconds =
      static_cast<double>(min_us_.load(std::memory_order_relaxed)) * 1e-6;
  snap.max_seconds =
      static_cast<double>(max_us_.load(std::memory_order_relaxed)) * 1e-6;
  const auto quantile = [&](double q) {
    // Rank-th smallest sample (1-based); the estimate is the upper edge
    // of its bucket, clamped to the observed max so p99 of a tight
    // distribution never exceeds the real slowest sample.
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    std::uint64_t cumulative = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      cumulative += buckets[b];
      if (cumulative >= rank) {
        return std::min(bucket_upper_seconds(b), snap.max_seconds);
      }
    }
    return snap.max_seconds;
  };
  snap.p50 = quantile(0.50);
  snap.p90 = quantile(0.90);
  snap.p95 = quantile(0.95);
  snap.p99 = quantile(0.99);
  return snap;
}

// -- MetricValue / MetricsSnapshot ------------------------------------------

MetricValue MetricValue::of_counter(std::string name, std::uint64_t count) {
  MetricValue value;
  value.kind = MetricKind::Counter;
  value.name = std::move(name);
  value.count = count;
  return value;
}

MetricValue MetricValue::of_gauge(std::string name, std::int64_t gauge_value,
                                  std::int64_t peak) {
  MetricValue value;
  value.kind = MetricKind::Gauge;
  value.name = std::move(name);
  value.value = gauge_value;
  value.peak = peak;
  return value;
}

MetricValue MetricValue::of_label(std::string name, std::string label) {
  MetricValue value;
  value.kind = MetricKind::Label;
  value.name = std::move(name);
  value.label = std::move(label);
  return value;
}

MetricValue MetricValue::of_histogram(std::string name, HistogramSnapshot hist) {
  MetricValue value;
  value.kind = MetricKind::Histogram;
  value.name = std::move(name);
  value.hist = hist;
  return value;
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricValue& value : values) {
    if (value.name == name) return &value;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name,
                                             std::uint64_t fallback) const {
  const MetricValue* value = find(name);
  return value != nullptr && value->kind == MetricKind::Counter ? value->count
                                                                : fallback;
}

std::int64_t MetricsSnapshot::gauge_value(const std::string& name,
                                          std::int64_t fallback) const {
  const MetricValue* value = find(name);
  return value != nullptr && value->kind == MetricKind::Gauge ? value->value
                                                              : fallback;
}

std::string format_metric_line(const MetricValue& value) {
  std::ostringstream os;
  os.precision(17);
  switch (value.kind) {
    case MetricKind::Counter:
      os << "counter " << value.name << ' ' << value.count;
      break;
    case MetricKind::Gauge:
      os << "gauge " << value.name << ' ' << value.value << " peak "
         << value.peak;
      break;
    case MetricKind::Label:
      os << "label " << value.name << ' ' << value.label;
      break;
    case MetricKind::Histogram:
      os << "hist " << value.name << " count " << value.hist.count << " sum "
         << value.hist.sum_seconds << " min " << value.hist.min_seconds
         << " max " << value.hist.max_seconds << " p50 " << value.hist.p50
         << " p90 " << value.hist.p90 << " p95 " << value.hist.p95 << " p99 "
         << value.hist.p99;
      break;
  }
  return os.str();
}

namespace {

/// Reads "<tag> <number>" pairs; the tag is asserted so a reordered or
/// truncated histogram line fails loudly instead of misassigning fields.
template <typename T>
void read_tagged(std::istringstream& fields, const char* tag, T& out,
                 const std::string& line) {
  std::string seen;
  POOLED_REQUIRE(static_cast<bool>(fields >> seen >> out) && seen == tag,
                 "malformed metric line (want '" + std::string(tag) +
                     " <value>'): " + line);
}

}  // namespace

MetricValue parse_metric_line(const std::string& line) {
  std::istringstream fields(line);
  std::string kind, name;
  POOLED_REQUIRE(static_cast<bool>(fields >> kind >> name),
                 "malformed metric line: " + line);
  MetricValue value;
  value.name = name;
  if (kind == "counter") {
    value.kind = MetricKind::Counter;
    POOLED_REQUIRE(static_cast<bool>(fields >> value.count),
                   "malformed counter line: " + line);
  } else if (kind == "gauge") {
    value.kind = MetricKind::Gauge;
    POOLED_REQUIRE(static_cast<bool>(fields >> value.value),
                   "malformed gauge line: " + line);
    read_tagged(fields, "peak", value.peak, line);
  } else if (kind == "label") {
    value.kind = MetricKind::Label;
    std::getline(fields, value.label);
    const auto first = value.label.find_first_not_of(' ');
    value.label = first == std::string::npos ? "" : value.label.substr(first);
    POOLED_REQUIRE(!value.label.empty(), "malformed label line: " + line);
  } else if (kind == "hist") {
    value.kind = MetricKind::Histogram;
    read_tagged(fields, "count", value.hist.count, line);
    read_tagged(fields, "sum", value.hist.sum_seconds, line);
    read_tagged(fields, "min", value.hist.min_seconds, line);
    read_tagged(fields, "max", value.hist.max_seconds, line);
    read_tagged(fields, "p50", value.hist.p50, line);
    read_tagged(fields, "p90", value.hist.p90, line);
    read_tagged(fields, "p95", value.hist.p95, line);
    read_tagged(fields, "p99", value.hist.p99, line);
  } else {
    POOLED_REQUIRE(false, "unknown metric kind '" + kind + "' in: " + line);
  }
  return value;
}

void write_snapshot_text(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const MetricValue& value : snapshot.values) {
    os << format_metric_line(value) << '\n';
  }
}

// -- MetricsRegistry --------------------------------------------------------

MetricsRegistry::Slot& MetricsRegistry::resolve(const std::string& name,
                                                MetricKind kind) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Slot& slot = order_[it->second];
    POOLED_REQUIRE(slot.kind == kind,
                   "metric '" + name + "' already registered as a different kind");
    return slot;
  }
  Slot slot;
  slot.kind = kind;
  slot.name = name;
  index_.emplace(name, order_.size());
  order_.push_back(std::move(slot));
  POOLED_DCHECK(index_.size() == order_.size(),
                "name table and slot order must register in lock-step");
  return order_.back();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const LockGuard lock(mutex_);
  Slot& slot = resolve(name, MetricKind::Counter);
  if (slot.counter == nullptr) slot.counter = &counters_.emplace_back();
  return *slot.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const LockGuard lock(mutex_);
  Slot& slot = resolve(name, MetricKind::Gauge);
  if (slot.gauge == nullptr) slot.gauge = &gauges_.emplace_back();
  return *slot.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  const LockGuard lock(mutex_);
  Slot& slot = resolve(name, MetricKind::Histogram);
  if (slot.histogram == nullptr) slot.histogram = &histograms_.emplace_back();
  return *slot.histogram;
}

void MetricsRegistry::set_label(const std::string& name, std::string value) {
  const LockGuard lock(mutex_);
  resolve(name, MetricKind::Label).label = std::move(value);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const LockGuard lock(mutex_);
  MetricsSnapshot snap;
  snap.values.reserve(order_.size());
  for (const Slot& slot : order_) {
    switch (slot.kind) {
      case MetricKind::Counter:
        snap.values.push_back(
            MetricValue::of_counter(slot.name, slot.counter->value()));
        break;
      case MetricKind::Gauge: {
        // Gauge::add raises the peak just after the value, so a racing
        // read can see the new value with the old peak; the high-water
        // mark is at least the level it reports alongside.
        const std::int64_t value = slot.gauge->value();
        snap.values.push_back(MetricValue::of_gauge(
            slot.name, value, std::max(value, slot.gauge->peak())));
        break;
      }
      case MetricKind::Label:
        snap.values.push_back(MetricValue::of_label(slot.name, slot.label));
        break;
      case MetricKind::Histogram:
        snap.values.push_back(
            MetricValue::of_histogram(slot.name, slot.histogram->snapshot()));
        break;
    }
  }
  return snap;
}

}  // namespace pooled
