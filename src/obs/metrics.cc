#include "src/obs/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

namespace argus::obs {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

bool SetEnabled(bool enabled) {
  return detail::g_enabled.exchange(enabled, std::memory_order_relaxed);
}

int Histogram::BucketIndex(std::uint64_t value) {
  int index = static_cast<int>(std::bit_width(value));  // 0 for value 0, else floor(log2)+1
  return index < kBuckets ? index : kBuckets - 1;
}

std::uint64_t Histogram::BucketUpperBound(int index) {
  if (index <= 0) {
    return 0;
  }
  return (std::uint64_t{1} << index) - 1;
}

std::uint64_t Histogram::ApproxPercentile(double p) const {
  std::uint64_t total = Count();
  if (total == 0) {
    return 0;
  }
  double rank = (p / 100.0) * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += BucketCount(i);
    if (static_cast<double>(seen) >= rank) {
      return BucketUpperBound(i);
    }
  }
  return Max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::string Labeled(std::string_view name,
                    std::initializer_list<std::pair<std::string_view, std::string_view>> labels) {
  std::string out(name);
  if (labels.size() == 0) {
    return out;
  }
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += k;
    out += '=';
    out += v;
  }
  out += '}';
  return out;
}

Registry& Registry::Global() {
  // Leaked on purpose: cached handles in instrumented objects (including
  // other function-local statics) must stay valid through process teardown.
  static Registry* instance = new Registry();
  return *instance;
}

Counter* Registry::GetCounter(const std::string& name, Counter* total) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
    slot->total_ = total;
  }
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name, Gauge* total) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
    slot->total_ = total;
  }
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name, Histogram* total) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
    slot->total_ = total;
  }
  return slot.get();
}

std::string Scope::Name(std::string_view name) const {
  if (!guardian.has_value()) {
    return std::string(name);
  }
  const std::string g = std::to_string(*guardian);
  if (!shard.has_value()) {
    return Labeled(name, {{"guardian", g}});
  }
  return Labeled(name, {{"guardian", g}, {"shard", std::to_string(*shard)}});
}

Counter* Scope::GetCounter(std::string_view name) const {
  Counter* total = obs::GetCounter(std::string(name));
  return guardian.has_value() ? Registry::Global().GetCounter(Name(name), total) : total;
}

Gauge* Scope::GetGauge(std::string_view name) const {
  Gauge* total = obs::GetGauge(std::string(name));
  return guardian.has_value() ? Registry::Global().GetGauge(Name(name), total) : total;
}

Histogram* Scope::GetHistogram(std::string_view name) const {
  Histogram* total = obs::GetHistogram(std::string(name));
  return guardian.has_value() ? Registry::Global().GetHistogram(Name(name), total) : total;
}

namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

std::string Registry::ToJson() const {
  std::lock_guard<std::mutex> l(mu_);
  std::string out = "{\"schema\":\"argus.metrics.v1\",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonString(out, name);
    out += ':';
    AppendU64(out, c->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonString(out, name);
    out += ':';
    AppendDouble(out, g->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonString(out, name);
    out += ":{\"count\":";
    AppendU64(out, h->Count());
    out += ",\"sum\":";
    AppendU64(out, h->Sum());
    out += ",\"max\":";
    AppendU64(out, h->Max());
    out += ",\"p50\":";
    AppendU64(out, h->ApproxPercentile(50.0));
    out += ",\"p99\":";
    AppendU64(out, h->ApproxPercentile(99.0));
    out += ",\"p999\":";
    AppendU64(out, h->ApproxPercentile(99.9));
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      std::uint64_t n = h->BucketCount(i);
      if (n == 0) {
        continue;
      }
      if (!first_bucket) {
        out += ',';
      }
      first_bucket = false;
      out += '[';
      AppendU64(out, Histogram::BucketUpperBound(i));
      out += ',';
      AppendU64(out, n);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace argus::obs
