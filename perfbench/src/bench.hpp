// Shared pieces of the perfbench driver: span tracing, metric records,
// output checks, digests and small statistics helpers.
//
// Spans are taken only in the benchmark's own code, around calls into the
// library's public functions. They stay in memory and are written out when
// the run ends; a span's self time is its duration minus the time covered by
// its direct children.
#pragma once
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string, "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::int64_t id = 0;       ///< iteration, die, request or tick
};

/// Single-threaded span recorder. When disabled, begin() returns -1 and
/// nothing is stored.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int begin(const char* name, std::int64_t id = 0);
  void end(int span);

  /// Durations (ms) of every span called `name`, optionally only those with
  /// an ancestor called `under`.
  [[nodiscard]] std::vector<double> durations_ms(const char* name,
                                                 const char* under = nullptr) const;
  /// Mean of durations_ms(); 0 when there are none.
  [[nodiscard]] double mean_ms(const char* name, const char* under = nullptr) const;
  /// Self time (ms) summed over all spans called `name`.
  [[nodiscard]] double self_ms(const char* name) const;
  /// Self time (ms) summed per layer, the name part before the first '.'.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_layer() const;
  /// Appends every span as one JSON line to `path`.
  void write_jsonl(const std::string& path, const std::string& workload) const;

 private:
  [[nodiscard]] std::vector<double> self_times_ms() const;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t id = 0)
      : tracer_(tracer), span_(tracer.begin(name, id)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Output checks: every expect() is one attempted check; violations are
/// failures and are listed in the report.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(what);
    }
  }
};

/// FNV-1a 64-bit digest of output bytes.
class Digest {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof(T));
  }
  template <typename T>
  void add_values(const std::vector<T>& v) {
    add(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// What one workload phase returns to the driver.
struct PhaseOutput {
  std::vector<Metric> end_to_end;  ///< untraced metrics this phase owns
  std::vector<Metric> per_layer;   ///< filled in traced runs
  std::vector<double> setup_s;     ///< one sample per set-up
  Checks checks;
  std::string digest;  ///< output digest, comparable across commits
  int threads = 1;     ///< FTPIM_THREADS the phase pinned
  std::vector<std::pair<std::string, double>> self_ms;  ///< traced runs
  std::vector<std::string> not_taken;  ///< per-layer metrics not measurable from outside src/
  std::vector<std::string> report;     ///< human-readable lines
};

struct PhaseInput {
  std::uint64_t seed = 1;
  bool trace = false;
  std::string workdir;    ///< scratch directory inside the checkout, removed after the run
  std::string cache_dir;  ///< kept between runs (pretrained weights)
  std::string source_id;  ///< digest of the library sources; keys the cache
};

/// One workload. The driver interleaves slices of all three workloads over
/// the run, so each metric's samples are spread over the whole run instead
/// of one window of it.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs whole units of work for about `seconds`, at least one unit.
  virtual void run_slice(double seconds) = 0;
  /// Metrics from every slice, the output checks and, in traced runs, the
  /// traced rerun. Called once, after the last slice.
  virtual PhaseOutput finish() = 0;
};

std::unique_ptr<Workload> make_paper_ft_eval(const PhaseInput& input);
std::unique_ptr<Workload> make_serve_open_loop(const PhaseInput& input);
std::unique_ptr<Workload> make_fleet_lifetime(const PhaseInput& input);

// --- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile_of(std::vector<double> values, double q);
[[nodiscard]] inline double median_of(std::vector<double> values) {
  return quantile_of(std::move(values), 0.5);
}
[[nodiscard]] double mean_of(const std::vector<double>& values);

/// Median wall time (seconds) of `fn` over `reps` calls after one warm-up.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  fn();
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median_of(std::move(t));
}

}  // namespace perfbench
