#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace arrow::obs {

unsigned shard_slot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot & (kShards - 1);
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  const std::size_t buckets = bounds_.size() + 1;
  for (Shard& s : shards_) {
    s.counts = std::make_unique<std::atomic<std::uint64_t>[]>(buckets);
    for (std::size_t b = 0; b < buckets; ++b) {
      s.counts[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::observe(double v) {
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  Shard& s = shards_[shard_slot()];
  s.counts[b].fetch_add(1, std::memory_order_relaxed);
  double cur = s.sum.load(std::memory_order_relaxed);
  while (!s.sum.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.buckets.assign(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      snap.buckets[b] += s.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : snap.buckets) snap.count += c;
  return snap;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    for (std::size_t b = 0; b < bounds_.size() + 1; ++b) {
      s.counts[b].store(0, std::memory_order_relaxed);
    }
    s.sum.store(0.0, std::memory_order_relaxed);
  }
}

std::vector<double> Histogram::seconds_buckets() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2, 0.1,    0.25, 0.5,  1.0,    2.5,  5.0,  10.0,
          30.0, 60.0};
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::seconds_buckets();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->snapshot();
  }
  return snap;
}

std::string Registry::prometheus_text() const {
  const MetricsSnapshot snap = snapshot();
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + format_double(v) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cum += h.buckets[b];
      const std::string le =
          b < h.bounds.size() ? format_double(h.bounds[b]) : "+Inf";
      out += name + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) + "\n";
    }
    out += name + "_sum " + format_double(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string Registry::json_text() const {
  const MetricsSnapshot snap = snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + std::to_string(v);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + json_number(v);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": {\"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      const std::string le =
          b < h.bounds.size() ? json_number(h.bounds[b]) : "\"+Inf\"";
      out += "[" + le + ", " + std::to_string(h.buckets[b]) + "]";
    }
    out += "], \"sum\": " + json_number(h.sum) +
           ", \"count\": " + std::to_string(h.count) + "}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : counters_) kv.second->reset();
  for (auto& kv : gauges_) kv.second->reset();
  for (auto& kv : histograms_) kv.second->reset();
}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // leaked: outlive all users
  return *registry;
}

}  // namespace arrow::obs
