// perfbench driver: runs the three workloads (paper_ft_eval, serve_open_loop,
// fleet_lifetime) in one process, checks their outputs and prints every
// metric by name and unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 reruns each workload
// with spans and reports the per-layer metrics instead.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --workdir <dir> [--cache-dir <dir>] [--source-id <id>]
// The run is cut into kPasses passes of equal length, and in each pass every
// workload runs one slice. fleet_lifetime gets 25% of the pass and
// serve_open_loop 40%, or 50% when it is the named workload. paper_ft_eval
// goes last and gets what is left, about 35% when named and 25% otherwise;
// its units are short, so it absorbs an overrun of the whole fleet rounds
// and serve visits before it, and the run lasts --seconds.
#include <sys/resource.h>

#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "src/bench.hpp"
#include "src/common/parallel.hpp"
#include "src/tensor/kernels/dispatch.hpp"

namespace {

using namespace perfbench;

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(const PhaseInput&);
  double share;  ///< of each pass, before the named workload's extra
};
constexpr WorkloadEntry kWorkloads[] = {
    {"fleet_lifetime", make_fleet_lifetime, 0.25},
    // Serve latency rests on request counts, so it needs the most time.
    {"serve_open_loop", make_serve_open_loop, 0.40},
    {"paper_ft_eval", make_paper_ft_eval, 0.0},  // the rest of each pass
};
constexpr double kNamedExtra = 0.10;
// The run is split into this many passes; each pass gives every workload
// one slice, so every metric is sampled across the whole run.
constexpr int kPasses = 4;

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
}

std::string isa_flags() {
  std::string flags;
  const auto add = [&](bool on, const char* name) {
    if (on) flags += flags.empty() ? name : std::string(" ") + name;
  };
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
  return flags;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void usage_error(const char* what) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper_ft_eval|serve_open_loop|"
               "fleet_lifetime> --seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--cache-dir <dir>] [--source-id <id>]\n",
               what);
  std::exit(2);
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir, cache_dir, source_id = "unknown";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) usage_error("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0 && seconds <= 120.0)) usage_error("--seconds must be in (0, 120]");
    } else if (key == "--trace") {
      trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -2;
    } else if (key == "--workdir") {
      workdir = value;
    } else if (key == "--cache-dir") {
      cache_dir = value;
    } else if (key == "--source-id") {
      source_id = value;
    } else {
      usage_error(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage_error("arguments come in --key value pairs");
  bool known = false;
  for (const WorkloadEntry& w : kWorkloads) known = known || workload == w.name;
  if (!known) usage_error("unknown --workload");
  if (seed < 0 || seconds <= 0.0 || trace < 0 || workdir.empty()) usage_error("missing argument");

  std::filesystem::create_directories(workdir);
  std::printf("host: cpu \"%s\" | isa %s | compiler %s | build %s | kernel %s | source %s\n",
              cpu_model().c_str(), isa_flags().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              ftpim::kernels::kernel_level_name(ftpim::kernels::active_kernel_level()),
              source_id.c_str());
  std::printf("run: workload %s | seed %lld | seconds %g | trace %d\n", workload.c_str(), seed,
              seconds, trace);
  std::fflush(stdout);

  std::vector<Metric> metrics;
  Checks checks;
  double setup_s = 0.0;
  std::vector<std::string> not_taken;
  try {
    PhaseInput in;
    in.seed = static_cast<std::uint64_t>(seed);
    in.trace = trace == 1;
    in.workdir = workdir;
    in.cache_dir = cache_dir.empty() ? workdir : cache_dir;
    in.source_id = source_id;
    std::vector<std::unique_ptr<Workload>> runners;
    for (const WorkloadEntry& w : kWorkloads) runners.push_back(w.make(in));
    const std::int64_t start = now_ns();
    for (int pass = 1; pass <= kPasses; ++pass) {
      const std::int64_t pass_end = start + static_cast<std::int64_t>(seconds * 1e9 * pass / kPasses);
      for (std::size_t i = 0; i + 1 < runners.size(); ++i) {
        const double share = kWorkloads[i].share + (workload == kWorkloads[i].name ? kNamedExtra : 0.0);
        runners[i]->run_slice(seconds * share / kPasses);
      }
      runners.back()->run_slice(std::max(0.0, static_cast<double>(pass_end - now_ns()) * 1e-9));
    }
    for (std::size_t i = 0; i < runners.size(); ++i) {
      const char* name = kWorkloads[i].name;
      const PhaseOutput out = runners[i]->finish();
      setup_s += median_of(out.setup_s);
      for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
      std::printf("%s: threads %d | digest %s | setup median %.4f s over %zu\n", name, out.threads,
                  out.digest.c_str(), median_of(out.setup_s), out.setup_s.size());
      for (const std::string& f : out.checks.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
      checks.attempted += out.checks.attempted;
      checks.failed += out.checks.failed;
      const auto& chosen = trace == 1 ? out.per_layer : out.end_to_end;
      metrics.insert(metrics.end(), chosen.begin(), chosen.end());
      if (trace == 1) {
        std::printf("%s self time by layer (ms):", name);
        for (const auto& [layer, ms] : out.self_ms) std::printf(" %s=%.2f", layer.c_str(), ms);
        std::printf("\n");
        for (const std::string& n : out.not_taken) not_taken.push_back(std::string(name) + ": " + n);
      }
      std::fflush(stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (trace == 0) {
    metrics.insert(metrics.begin(), {{"setup_s", setup_s, "s"}, {"peak_rss_mb", peak_rss_mb(), "MB"}});
  }
  for (const std::string& n : not_taken) std::printf("not taken from outside src/: %s\n", n.c_str());
  for (const Metric& m : metrics) std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
