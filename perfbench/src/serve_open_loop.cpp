// Workload serve_open_loop: open-loop Poisson arrivals on a fixed ladder of
// absolute rates into one InferenceServer running SmallCNN replicas on the
// int8+ABFT engine, with aging, canaries, scrub and repair on.
//
// Each request is timed from the moment it was due: (submit return - due) +
// InferenceResult.latency_ns. Refused, expired and failed requests count as
// over the latency limit. Overflow is kReject and every request carries a
// deadline, so an overloaded server fails requests instead of stalling the
// generator.
#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "src/bench.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "src/reram/aging.hpp"
#include "src/serve/inference_server.hpp"

namespace perfbench {
namespace {

using namespace ftpim;
using namespace ftpim::serve;

constexpr int kThreads = 1;  // per replica worker; 2 workers + 1 generator
// From about a sixth of capacity on the reference host (5-8k req/s,
// depending on how busy the host is) to above it. Only the rates past
// capacity refuse requests, so they make up nearly all of serve.fail_pct.
constexpr double kRates[] = {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000};  // req/s
constexpr std::size_t kMiddle = 1;  // the reference rate for p50/p99: 2000 req/s
constexpr int kMiddleVisits = 4;    // visits to the reference rate per pass
constexpr double kMinVisitS = 0.1;
constexpr double kLatencyLimitMs = 20.0;
constexpr std::int64_t kDeadlineNs = 50'000'000;
constexpr std::int64_t kBacklogLimit = 64;  // in flight when generation stops
constexpr int kWarmup = 64;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The replicas' dies and aging streams are fixed; --seed drives the
/// arrivals and the request images. Seeded dies change how often replicas
/// are quarantined and repaired, which moves the latency tail.
ServerConfig server_config() {
  ServerConfig cfg;
  cfg.queue_capacity = 256;
  cfg.overflow = OverflowPolicy::kReject;
  cfg.batching.max_batch_size = 16;
  cfg.batching.max_linger_ns = 500'000;
  cfg.default_deadline_ns = kDeadlineNs;
  cfg.max_attempts = 2;
  cfg.pool.num_replicas = 2;
  cfg.pool.p_sa = 0.005;
  cfg.pool.seed = 21;
  cfg.pool.engine = ReplicaEngine::kQuantized;
  cfg.pool.quantized.abft.enabled = true;
  cfg.aging.p_new_per_interval = 0.002;
  cfg.aging.interval_batches = 64;
  cfg.aging.seed = 22;
  cfg.health.canary_every_batches = 32;
  cfg.health.canary_samples = 8;
  cfg.health.window = 64;
  cfg.health.quarantine_below = 0.70;
  cfg.health.repair_on_quarantine = true;
  cfg.health.scrub_on_detection = true;
  return cfg;
}

/// Everything measured at one ladder rate, pooled over the run's visits.
struct RateResult {
  explicit RateResult(double r) : rate(r) {}
  double rate;
  std::vector<double> latency_ms;  ///< due -> answer; kInf when not answered
  std::vector<double> server_ms;   ///< latency_ns of answered requests
  std::vector<double> late_ms;     ///< how late the generator submitted
  std::vector<double> submit_us;   ///< time inside submit()
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // One entry per visit: latency percentiles and the in-flight count when
  // generation stopped.
  std::vector<double> visit_p50, visit_p99;
  std::vector<std::int64_t> visit_backlog;
  std::vector<ServerStats> stats;  ///< one per visit, after drain
};

/// Spins: a sleeping generator wakes up late by whole scheduler ticks,
/// which would show up as latency. The generator owns one core.
void wait_until(std::int64_t due_ns) {
  while (now_ns() < due_ns) {
  }
}

/// One visit: a fresh server, a short closed warm-up, then `seconds` of
/// open-loop arrivals at `out.rate`. Returns the set-up time.
double visit(const Module& model, const std::vector<Tensor>& inputs, std::uint64_t stream,
             const ServerConfig& cfg, double seconds, RateResult& out, Tracer& tracer,
             Checks& checks) {
  const std::int64_t t0 = now_ns();
  InferenceServer server(model, cfg);
  server.start();
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  {
    std::vector<std::future<InferenceResult>> warm;
    for (int i = 0; i < kWarmup; ++i) warm.push_back(server.submit(inputs[static_cast<std::size_t>(i) % inputs.size()]));
    for (auto& f : warm) {
      try {
        (void)f.get();
      } catch (const ServeError&) {
      }
    }
  }
  struct Pending {
    std::int64_t due_ns;
    std::int64_t submitted_ns;
    std::future<InferenceResult> answer;
  };
  std::vector<Pending> pending;
  pending.reserve(static_cast<std::size_t>(out.rate * seconds * 1.2) + 16);
  Rng rng(stream);
  std::int64_t due = now_ns() + 1'000'000;
  const std::int64_t stop = due + static_cast<std::int64_t>(seconds * 1e9);
  while (due < stop) {
    wait_until(due);
    const std::int64_t begin = now_ns();
    const Tensor& input = inputs[rng.uniform_int(inputs.size())];
    std::future<InferenceResult> answer;
    {
      Scope span(tracer, "serve.submit", static_cast<std::int64_t>(pending.size()));
      answer = server.submit(input);
    }
    const std::int64_t end = now_ns();
    out.late_ms.push_back(static_cast<double>(begin - due) * 1e-6);
    out.submit_us.push_back(static_cast<double>(end - begin) * 1e-3);
    pending.push_back({due, end, std::move(answer)});
    due += static_cast<std::int64_t>(-std::log(1.0 - rng.uniform_double()) / out.rate * 1e9);
  }
  out.visit_backlog.push_back(server.stats().in_flight);
  server.drain();
  const std::size_t first_latency = out.latency_ms.size();
  for (Pending& p : pending) {
    ++out.attempted;
    try {
      const InferenceResult r = p.answer.get();
      bool finite = r.logits.numel() > 0;
      std::int64_t best = 0;
      for (std::int64_t c = 0; c < r.logits.numel(); ++c) {
        finite = finite && std::isfinite(r.logits[c]);
        if (r.logits[c] > r.logits[best]) best = c;
      }
      checks.expect(finite, "serve: result logits not finite");
      checks.expect(r.predicted == best, "serve: predicted != argmax(logits)");
      out.latency_ms.push_back(static_cast<double>(p.submitted_ns - p.due_ns) * 1e-6 +
                               static_cast<double>(r.latency_ns) * 1e-6);
      out.server_ms.push_back(static_cast<double>(r.latency_ns) * 1e-6);
    } catch (const ServeError&) {
      ++out.failed;
      out.latency_ms.push_back(kInf);
    }
  }
  const std::vector<double> mine(out.latency_ms.begin() + static_cast<std::ptrdiff_t>(first_latency),
                                 out.latency_ms.end());
  out.visit_p50.push_back(quantile_of(mine, 0.50));
  out.visit_p99.push_back(quantile_of(mine, 0.99));
  const ServerStats stats = server.stats();
  checks.expect(stats.submitted == stats.served + stats.failed,
                "serve: after drain, submitted != served + failed");
  checks.expect(stats.worker_exceptions == 0, "serve: worker exceptions");
  checks.expect(stats.poisoned == 0, "serve: poisoned requests");
  out.stats.push_back(stats);
  server.stop();
  return setup_s;
}

bool meets_limit(const RateResult& r, std::size_t visit) {
  return r.visit_p99[visit] <= kLatencyLimitMs && r.visit_backlog[visit] <= kBacklogLimit;
}

/// Highest rate meeting the limit on one pass up the ladder, interpolated in
/// log(p99) from it towards the next rate up. A lower rate that failed does
/// not cap it: a short slow spell on the host fails one visit, not the
/// server's capacity.
double max_rate(const std::vector<RateResult>& ladder, std::size_t visit) {
  std::size_t k = ladder.size();
  while (k > 0 && !meets_limit(ladder[k - 1], visit)) --k;
  const auto clipped_p99 = [visit](const RateResult& r) {
    const double p99 = r.visit_p99[visit];
    if (r.visit_backlog[visit] > kBacklogLimit || !std::isfinite(p99)) return 10.0 * kLatencyLimitMs;
    return std::clamp(p99, 1e-3, 10.0 * kLatencyLimitMs);
  };
  if (k == ladder.size()) return ladder.back().rate;
  if (k == 0) return ladder[0].rate * kLatencyLimitMs / clipped_p99(ladder[0]);
  const double lo = std::log(clipped_p99(ladder[k - 1]));
  const double hi = std::log(std::max(clipped_p99(ladder[k]), kLatencyLimitMs));
  const double frac = hi > lo ? (std::log(kLatencyLimitMs) - lo) / (hi - lo) : 1.0;
  return ladder[k - 1].rate + std::clamp(frac, 0.0, 1.0) * (ladder[k].rate - ladder[k - 1].rate);
}

/// `a` followed by `b`: every visit of both, for one rate.
RateResult merged(RateResult a, const RateResult& b) {
  const auto append = [](auto& to, const auto& from) { to.insert(to.end(), from.begin(), from.end()); };
  append(a.latency_ms, b.latency_ms);
  append(a.server_ms, b.server_ms);
  append(a.late_ms, b.late_ms);
  append(a.submit_us, b.submit_us);
  append(a.visit_p50, b.visit_p50);
  append(a.visit_p99, b.visit_p99);
  append(a.visit_backlog, b.visit_backlog);
  append(a.stats, b.stats);
  a.attempted += b.attempted;
  a.failed += b.failed;
  return a;
}

std::int64_t sum_of(const std::vector<ServerStats>& stats, std::int64_t ServerStats::*field) {
  std::int64_t total = 0;
  for (const ServerStats& s : stats) total += s.*field;
  return total;
}

class ServeOpenLoop final : public Workload {
 public:
  explicit ServeOpenLoop(const PhaseInput& input)
      : input_(input), cfg_(server_config()), tracer_(input.trace) {
    SmallCnnConfig model_cfg;
    model_cfg.image_size = 16;
    model_ = make_small_cnn(model_cfg);
    SynthVisionConfig data_cfg;
    data_cfg.image_size = 16;
    data_cfg.samples = 256;
    const auto data = make_synthvision(data_cfg, derive_seed(input.seed, 20));
    for (std::int64_t i = 0; i < data->size(); ++i) inputs_.push_back(data->get(i).image);
    for (const double rate : kRates) ladder_.emplace_back(rate);
    out_.threads = kThreads;
  }

  /// One pass up the whole ladder, then more visits to the reference rate,
  /// kMiddleVisits in all. Every visit has the same length; a tenth of the
  /// slice is left for each visit's set-up, warm-up and drain.
  void run_slice(double seconds) override {
    set_num_threads(kThreads);
    visit_s_ = std::max(kMinVisitS,
                        0.9 * seconds / static_cast<double>(ladder_.size() - 1 + kMiddleVisits));
    std::uint64_t n = 0;
    const auto run_visit = [&](RateResult& at) {
      const std::uint64_t stream = derive_seed(input_.seed, 1000 * passes_ + n++);
      out_.setup_s.push_back(visit(*model_, inputs_, stream, cfg_, visit_s_, at, tracer_, out_.checks));
    };
    for (RateResult& rung : ladder_) run_visit(rung);
    for (int extra = 1; extra < kMiddleVisits; ++extra) run_visit(reference_);
    ++passes_;
  }

  PhaseOutput finish() override;

 private:
  PhaseInput input_;
  ServerConfig cfg_;
  Tracer tracer_;
  std::unique_ptr<Sequential> model_;
  std::vector<Tensor> inputs_;
  std::vector<RateResult> ladder_;  ///< one visit per rate per pass
  RateResult reference_{kRates[kMiddle]};  ///< the extra visits to the reference rate
  std::uint64_t passes_ = 0;
  double visit_s_ = kMinVisitS;
  PhaseOutput out_;
};

PhaseOutput ServeOpenLoop::finish() {
  if (passes_ == 0) run_slice(0.0);
  PhaseOutput out = std::move(out_);
  const RateResult mid = merged(ladder_[kMiddle], reference_);
  // Other jobs on the host only ever slow the server down, and a slow spell
  // covers some visits of a run and not others. So latency is the lower
  // quartile over the reference rate's visits. The highest passing rate is
  // the mean over the passes: one pass can land a rung higher or lower than
  // the next, and over ten runs the mean spread least (0.08, against 0.13
  // for the best pass and the median).
  std::vector<double> max_rates;
  for (std::size_t v = 0; v < passes_; ++v) max_rates.push_back(max_rate(ladder_, v));
  std::int64_t attempted = reference_.attempted, failed = reference_.failed;
  Digest digest;
  digest.add_value(reference_.attempted);
  for (const RateResult& r : ladder_) {
    attempted += r.attempted;
    failed += r.failed;
    digest.add_value(r.attempted);
  }
  const double fail_pct = 100.0 * static_cast<double>(failed) / static_cast<double>(attempted);
  const double p99_ms = quantile_of(mid.visit_p99, 0.25);
  out.end_to_end = {
      {"serve_p50_ms", quantile_of(mid.visit_p50, 0.25), "ms"},
      {"serve_max_rps", mean_of(max_rates), "req/s"},
  };
  // Arrival counts are a pure function of the seed and the run length; the
  // answers depend on batch composition, which is timing-driven.
  out.digest = digest.hex();
  {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "serve: %zu passes, %zu reference visits of %.3f s | serve.p99_ms %.4f ms | "
                  "serve.fail_pct %.4f %% of %lld attempted, all rates",
                  static_cast<std::size_t>(passes_), mid.visit_p99.size(), visit_s_, p99_ms, fail_pct,
                  static_cast<long long>(attempted));
    out.report.push_back(line);
  }
  for (const RateResult& r : ladder_) {
    const double fill = static_cast<double>(sum_of(r.stats, &ServerStats::served)) /
                        static_cast<double>(std::max<std::int64_t>(1, sum_of(r.stats, &ServerStats::batches)));
    char line[256];
    std::snprintf(line, sizeof(line),
                  "serve: rate %6.0f/s | %6lld sent %5lld failed | p50 %7.3f p99 %8.3f ms | fill "
                  "%5.2f | late p99 %.3f ms | median visit p99 %.3f ms",
                  r.rate, static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
                  quantile_of(r.latency_ms, 0.5), quantile_of(r.latency_ms, 0.99), fill,
                  quantile_of(r.late_ms, 0.99), median_of(r.visit_p99));
    out.report.push_back(line);
  }
  if (!input_.trace) return out;

  // ---- per-layer ---------------------------------------------------------------
  set_num_threads(kThreads);
  auto& pl = out.per_layer;
  pl.push_back({"serve.p99_ms", p99_ms, "ms"});
  pl.push_back({"serve.fail_pct", fail_pct, "%"});
  pl.push_back({"serve.submit_us.p50", quantile_of(mid.submit_us, 0.50), "us"});
  pl.push_back({"serve.submit_us.p99", quantile_of(mid.submit_us, 0.99), "us"});
  pl.push_back({"serve.generator_late_ms.p99", quantile_of(mid.late_ms, 0.99), "ms"});
  pl.push_back({"serve.server_latency_ms.p50", quantile_of(mid.server_ms, 0.50), "ms"});
  pl.push_back({"serve.server_latency_ms.p99", quantile_of(mid.server_ms, 0.99), "ms"});
  pl.push_back({"serve.batch_fill",
                static_cast<double>(sum_of(mid.stats, &ServerStats::served)) /
                    static_cast<double>(std::max<std::int64_t>(1, sum_of(mid.stats, &ServerStats::batches))),
                "requests"});

  // Offline calls on a pool of the same config.
  ReplicaPool pool(*model_, cfg_.pool);
  for (const std::int64_t b : {1, 4, 16}) {
    Tensor batch({b, 3, 16, 16});
    for (std::int64_t i = 0; i < b; ++i) {
      const Tensor& x = inputs_[static_cast<std::size_t>(i)];
      std::copy(x.data(), x.data() + x.numel(), batch.data() + i * x.numel());
    }
    const double s = median_seconds(50, [&] { (void)pool.replica(0).forward(batch, false); });
    pl.push_back({"serve.forward_ms.b" + std::to_string(b), s * 1e3, "ms"});
  }
  pl.push_back({"serve.repair_ms", median_seconds(5, [&] { pool.repair(1); }) * 1e3, "ms"});
  pl.push_back({"serve.refresh_ms", median_seconds(5, [&] { (void)pool.refresh(1); }) * 1e3, "ms"});
  const AgingModel aging(cfg_.aging);
  std::int64_t target = 0;
  pl.push_back({"serve.advance_aging_ms",
                median_seconds(5, [&] { (void)pool.advance_aging(1, aging, ++target); }) * 1e3, "ms"});

  std::vector<ServerStats> all;
  for (const RateResult& r : ladder_) all.insert(all.end(), r.stats.begin(), r.stats.end());
  all.insert(all.end(), reference_.stats.begin(), reference_.stats.end());
  const std::int64_t served = sum_of(all, &ServerStats::served);
  // Sample-forwards: answered requests, failed attempts that ran a forward,
  // and canary probes.
  const double forwards =
      static_cast<double>(served + sum_of(all, &ServerStats::retried) +
                          sum_of(all, &ServerStats::failed) - sum_of(all, &ServerStats::expired)) +
      static_cast<double>(sum_of(all, &ServerStats::canary_batches) * cfg_.health.canary_samples);
  pl.push_back({"serve.useful_forward_ratio", static_cast<double>(served) / forwards, "ratio"});
  const double per_1k = 1000.0 / static_cast<double>(std::max<std::int64_t>(1, served));
  const std::pair<const char*, std::int64_t ServerStats::*> counts[] = {
      {"canary_batches", &ServerStats::canary_batches}, {"quarantines", &ServerStats::quarantines},
      {"repairs", &ServerStats::repairs},               {"aged_cells", &ServerStats::aged_cells},
      {"abft_detections", &ServerStats::abft_detections}, {"abft_scrubs", &ServerStats::abft_scrubs},
      {"abft_escalations", &ServerStats::abft_escalations}, {"retried", &ServerStats::retried},
      {"expired", &ServerStats::expired},
  };
  for (const auto& [name, field] : counts) {
    pl.push_back({std::string("serve.") + name + "_per_1k", static_cast<double>(sum_of(all, field)) * per_1k, "count"});
  }
  std::int64_t rejected = 0;
  for (const ServerStats& s : all) rejected += s.rejected();
  pl.push_back({"serve.rejected_per_1k", static_cast<double>(rejected) * per_1k, "count"});

  // Tracing cost: the reference rate once more without spans.
  Tracer off(false);
  Checks scratch;
  RateResult untraced(kRates[kMiddle]);
  (void)visit(*model_, inputs_, derive_seed(input_.seed, 999), cfg_,
              std::max(0.5, visit_s_), untraced, off, scratch);
  pl.push_back({"trace_overhead_pct.serve_open_loop",
                (median_of(mid.visit_p50) / untraced.visit_p50.front() - 1.0) * 100.0,
                "%"});
  out.self_ms = tracer_.self_ms_by_layer();
  out.not_taken = {
      "serve queue wait, linger, forward and answer per request: the stages run inside "
      "InferenceServer's worker loop; only client-side spans and ServerStats are visible",
      "serve.repair_ms/refresh_ms/advance_aging_ms while serving: measured offline on a pool of "
      "the same config, since the worker calls them internally",
  };
  tracer_.write_jsonl(input_.workdir + "/trace_serve_open_loop.jsonl", "serve_open_loop");
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_serve_open_loop(const PhaseInput& input) {
  return std::make_unique<ServeOpenLoop>(input);
}

}  // namespace perfbench
