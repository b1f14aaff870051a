#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "src/bench.hpp"

namespace perfbench {

int Tracer::begin(const char* name, std::int64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  // Spans close in LIFO order; tolerate a caller closing an outer span first.
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    if (top == span) break;
  }
}

std::vector<double> Tracer::durations_ms(const char* name, const char* under) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    bool inside = under == nullptr;
    for (std::int32_t p = s.parent; !inside && p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) {
      inside = std::strcmp(spans_[static_cast<std::size_t>(p)].name, under) == 0;
    }
    if (inside) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

double Tracer::mean_ms(const char* name, const char* under) const {
  return mean_of(durations_ms(name, under));
}

std::vector<double> Tracer::self_times_ms() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
    const std::int32_t parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<std::size_t>(parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
    }
  }
  return self;
}

double Tracer::self_ms(const char* name) const {
  const std::vector<double> self = self_times_ms();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) total += self[i];
  }
  return total;
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_layer() const {
  const std::vector<double> self = self_times_ms();
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return {layers.begin(), layers.end()};
}

void Tracer::write_jsonl(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"span\": %zu, \"name\": \"%s\", \"id\": %lld, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 workload.c_str(), i, s.name, static_cast<long long>(s.id), s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

double quantile_of(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[lo]) || std::isinf(values[hi])) return frac < 0.5 ? values[lo] : values[hi];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
