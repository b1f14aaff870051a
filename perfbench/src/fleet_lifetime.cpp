// Workload fleet_lifetime: FleetSimulator over ~1000 MLP 16-24-4 devices,
// 75% on the quantized datapath, transient upsets on, the
// detection_driven_scrub policy, and an FTCK checkpoint every 16 ticks.
// Compute per device is tiny, so the work is clone, redeploy, defect maps,
// ABFT, repair and checkpointing.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/bench.hpp"
#include "src/common/parallel.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "src/fleet/repair_policy.hpp"
#include "src/fleet/survival.hpp"
#include "src/fleet/virtual_device.hpp"
#include "src/models/mlp.hpp"

namespace perfbench {
namespace {

using namespace ftpim;
using namespace ftpim::fleet;

constexpr int kThreads = 2;
constexpr int kDevices = 1000;
constexpr std::int64_t kTicks = 20;
constexpr std::int64_t kCheckpointEvery = 16;
constexpr int kSampleStride = 16;  // serial per-device sample: every 16th device

FleetConfig fleet_config(const std::string& checkpoint_path) {
  FleetConfig cfg;
  cfg.num_devices = kDevices;
  cfg.ticks = kTicks;
  cfg.sample_shape = {16};
  cfg.probe_samples = 16;
  cfg.accuracy_floor = 0.55;
  cfg.interval_batches = 16;
  cfg.p_transient_per_tick = 0.002;
  // The population is fixed and --seed does not change it: device-ticks per
  // second depends strongly on which devices die early (6.7k-12k/s across
  // population seeds), which would hide any change in the code's speed.
  cfg.seed = 2024;
  cfg.profile.p_sa_min = 0.01;
  cfg.profile.p_sa_max = 0.08;
  cfg.profile.aging_min = 0.001;
  cfg.profile.aging_max = 0.01;
  cfg.profile.traffic_min = 8;
  cfg.profile.traffic_max = 32;
  cfg.profile.quantized_fraction = 0.75;
  cfg.policy = RepairPolicyKind::kDetectionDrivenScrub;
  cfg.policy_config.max_scrub_retries = 1;
  cfg.quantized.adc.bits = 0;
  cfg.checkpoint_path = checkpoint_path;
  cfg.checkpoint_every_ticks = kCheckpointEvery;
  return cfg;
}

std::string timeline_digest(const std::vector<TickAggregate>& timeline,
                            const std::vector<std::int64_t>& deaths) {
  Digest d;
  for (const TickAggregate& t : timeline) {
    d.add_value(t.tick);
    d.add_value(t.alive);
    d.add_value(t.deaths);
    d.add_value(t.acc_mean);
    d.add_value(t.acc_p10);
    d.add_value(t.acc_p50);
    d.add_value(t.acc_p90);
    d.add_value(t.repairs);
    d.add_value(t.scrubs);
    d.add_value(t.detections);
    d.add_value(t.aged_cells);
    d.add_value(t.transient_cells);
  }
  d.add_values(deaths);
  return d.hex();
}

struct RoundResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> step_ms;
  std::string digest;
  std::vector<TickAggregate> timeline;
  std::vector<std::int64_t> deaths;
};

/// Builds a fleet and runs it to the horizon, timing each tick. When
/// `mid_copy` is set, the checkpoint the simulator writes at the first
/// cadence tick is copied there (outside the timed ticks).
RoundResult run_round(const Module& model, const FleetConfig& cfg, const std::string& mid_copy,
                      Tracer& tracer) {
  RoundResult r;
  std::int64_t t0 = now_ns();
  std::unique_ptr<FleetSimulator> sim;
  {
    Scope span(tracer, "fleet.construct");
    sim = std::make_unique<FleetSimulator>(model, cfg);
  }
  r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  Scope run_span(tracer, "fleet.run");
  while (sim->next_tick() < cfg.ticks) {
    t0 = now_ns();
    {
      Scope span(tracer, "fleet.step", sim->next_tick());
      sim->step();
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    r.step_ms.push_back(ms);
    r.run_s += ms * 1e-3;
    if (!mid_copy.empty() && sim->next_tick() == kCheckpointEvery) {
      std::filesystem::copy_file(cfg.checkpoint_path, mid_copy,
                                 std::filesystem::copy_options::overwrite_existing);
    }
  }
  r.timeline = sim->timeline();
  r.deaths = sim->death_ticks();
  r.digest = timeline_digest(r.timeline, r.deaths);
  return r;
}

void check_timeline(const std::vector<TickAggregate>& timeline, Checks& checks) {
  for (std::size_t t = 1; t < timeline.size(); ++t) {
    checks.expect(timeline[t].alive <= timeline[t - 1].alive - timeline[t - 1].deaths,
                  "fleet: alive count increased");
  }
  double prev = 1.0;
  for (const double s : survival_curve(timeline)) {
    checks.expect(s >= 0.0 && s <= 1.0 && s <= prev, "fleet: Kaplan-Meier value outside [0,1] or rising");
    prev = s;
  }
}

class FleetLifetime final : public Workload {
 public:
  explicit FleetLifetime(const PhaseInput& input)
      : input_(input),
        model_(make_mlp({16, 24, 4}, 7)),
        cfg_(fleet_config(input.workdir + "/fleet.ftck")),
        mid_(input.workdir + "/fleet_mid.ftck") {
    out_.threads = kThreads;
  }

  void run_slice(double seconds) override {
    set_num_threads(kThreads);
    const std::int64_t start = now_ns();
    Tracer off(false);
    double round_s = 0.0;
    // At least one round, and another only while it should fit.
    do {
      const std::int64_t round_start = now_ns();
      rounds_.push_back(run_round(*model_, cfg_, rounds_.empty() ? mid_ : "", off));
      const RoundResult& r = rounds_.back();
      out_.setup_s.push_back(r.setup_s);
      out_.checks.expect(r.digest == rounds_.front().digest, "fleet: timeline differs between repeats");
      check_timeline(r.timeline, out_.checks);
      round_s = static_cast<double>(now_ns() - round_start) * 1e-9;
    } while (static_cast<double>(now_ns() - start) * 1e-9 + round_s <= seconds);
  }

  PhaseOutput finish() override;

 private:
  /// Horizon time as the sum over ticks of each tick's fastest time over
  /// the rounds. A tick does the same work in every round and other jobs on
  /// the host only ever slow it, so a slow spell that hits part of a run
  /// does not move the estimate.
  [[nodiscard]] double best_run_s() const {
    double total = 0.0;
    for (std::size_t t = 0; t < static_cast<std::size_t>(kTicks); ++t) {
      std::vector<double> tick;
      for (const RoundResult& r : rounds_) tick.push_back(r.step_ms[t]);
      total += quantile_of(std::move(tick), 0.0) * 1e-3;
    }
    return total;
  }

  PhaseInput input_;
  std::unique_ptr<Sequential> model_;
  FleetConfig cfg_;
  std::string mid_;  ///< copy of the first round's tick-16 checkpoint
  std::vector<RoundResult> rounds_;
  PhaseOutput out_;
};

PhaseOutput FleetLifetime::finish() {
  if (rounds_.empty()) run_slice(0.0);
  set_num_threads(kThreads);
  PhaseOutput out = std::move(out_);
  const FleetConfig& cfg = cfg_;
  const Module& model = *model_;
  const RoundResult& first = rounds_.front();
  const PhaseInput& input = input_;

  // Crash-safety: a fresh simulator resumed from the mid-run checkpoint must
  // reproduce the uninterrupted timeline bit-exactly.
  FleetConfig resume_cfg = cfg;
  resume_cfg.checkpoint_path = input.workdir + "/fleet_resumed.ftck";
  FleetSimulator resumed(model, resume_cfg);
  const std::int64_t t0 = now_ns();
  resumed.resume(mid_);
  const double resume_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  resumed.run();
  out.checks.expect(timeline_digest(resumed.timeline(), resumed.death_ticks()) == first.digest,
                    "fleet: resumed timeline differs from the uninterrupted one");

  out.end_to_end = {{"fleet_device_ticks_per_s",
                     static_cast<double>(kDevices) * static_cast<double>(kTicks) / best_run_s(), "1/s"}};
  out.digest = first.digest;
  const FleetSummary summary = summarize_fleet(first.timeline, first.deaths,
                                               cfg.policy_config.repair_cost, cfg.policy_config.scrub_cost);
  char line[200];
  std::snprintf(line, sizeof(line),
                "fleet: %zu rounds | %d devices x %lld ticks | survival %.3f | repairs %lld scrubs "
                "%lld detections %lld | timeline %s",
                rounds_.size(), kDevices, static_cast<long long>(kTicks), summary.survival_fraction,
                static_cast<long long>(summary.repairs), static_cast<long long>(summary.scrubs),
                static_cast<long long>(summary.detections), first.digest.c_str());
  out.report.push_back(line);
  if (!input.trace) return out;

  // ---- traced round ----------------------------------------------------------
  Tracer tracer(true);
  const RoundResult traced = run_round(model, cfg, "", tracer);
  out.checks.expect(traced.digest == first.digest, "fleet: traced timeline differs from untraced");
  auto& pl = out.per_layer;
  std::vector<double> all_steps;
  for (const RoundResult& r : rounds_) all_steps.insert(all_steps.end(), r.step_ms.begin(), r.step_ms.end());
  pl.push_back({"fleet.step_ms.p50", quantile_of(all_steps, 0.5), "ms"});
  pl.push_back({"fleet.step_ms.max", quantile_of(all_steps, 1.0), "ms"});

  FleetSimulator probe_sim(model, fleet_config(""));
  const std::string extra = input.workdir + "/fleet_extra.ftck";
  const double ckpt_s = median_seconds(3, [&] { probe_sim.checkpoint_to(extra); });
  pl.push_back({"fleet.checkpoint_ms", ckpt_s * 1e3, "ms"});
  pl.push_back({"fleet.checkpoint_mb", static_cast<double>(std::filesystem::file_size(extra)) / 1e6, "MB"});
  pl.push_back({"fleet.resume_ms", resume_ms, "ms"});
  pl.push_back({"fleet.construct_ms_per_device", median_of(out.setup_s) * 1e3 / kDevices, "ms"});

  // Serial per-device sample: the same devices the simulator built, stepped
  // one at a time with the fleet's probe set and policy.
  set_num_threads(1);
  const auto policy = make_repair_policy(cfg.policy, cfg.policy_config);
  std::vector<double> plain_us, repair_us, scrub_us;
  double sample_total_s = 0.0;
  std::vector<std::unique_ptr<VirtualDevice>> sample;
  for (int i = 0; i < kDevices; i += kSampleStride) {
    sample.push_back(std::make_unique<VirtualDevice>(model, cfg, i));
  }
  for (std::int64_t tick = 0; tick < kTicks; ++tick) {
    for (auto& dev : sample) {
      const std::int64_t s0 = now_ns();
      const DeviceTick dt = dev->step(*policy, tick, probe_sim.probe());
      const double us = static_cast<double>(now_ns() - s0) * 1e-3;
      sample_total_s += us * 1e-6;
      if (!dt.was_alive) continue;
      (dt.repairs > 0 ? repair_us : dt.scrubs > 0 ? scrub_us : plain_us).push_back(us);
    }
  }
  for (auto& dev : sample) {
    out.checks.expect(dev->dead_at() == first.deaths[static_cast<std::size_t>(dev->index())],
                      "fleet: serially stepped device diverged from the simulator");
  }
  set_num_threads(kThreads);
  pl.push_back({"fleet.device_step_us.plain", median_of(plain_us), "us"});
  pl.push_back({"fleet.device_step_us.repair", median_of(repair_us), "us"});
  pl.push_back({"fleet.device_step_us.scrub", median_of(scrub_us), "us"});
  // Against a typical round, like the serial sample it is set against.
  std::vector<double> run_s;
  for (const RoundResult& r : rounds_) run_s.push_back(r.run_s);
  const double fleet_step_s = sample_total_s * kSampleStride;
  pl.push_back({"fleet.parallel_efficiency", fleet_step_s / (kThreads * median_of(run_s)), "ratio"});
  std::int64_t totals[6] = {0, 0, 0, 0, 0, 0};
  for (const TickAggregate& t : first.timeline) {
    totals[0] += t.repairs;
    totals[1] += t.scrubs;
    totals[2] += t.detections;
    totals[3] += t.deaths;
    totals[4] += t.aged_cells;
    totals[5] += t.transient_cells;
  }
  const char* const names[] = {"repairs", "scrubs", "detections", "deaths", "aged_cells", "transient_cells"};
  const double per_1k = 1000.0 / (static_cast<double>(kDevices) * kTicks);
  for (int k = 0; k < 6; ++k) {
    pl.push_back({std::string("fleet.") + names[k] + "_per_1k", static_cast<double>(totals[k]) * per_1k, "count"});
  }
  pl.push_back({"trace_overhead_pct.fleet_lifetime", (traced.run_s / median_of(run_s) - 1.0) * 100.0, "%"});
  out.self_ms = tracer.self_ms_by_layer();
  out.not_taken = {
      "fleet.device_step_us inside FleetSimulator::step: devices step inside the simulator's "
      "parallel loop, so the figures come from a serial sample of every 16th device",
      "fleet.parallel_efficiency: summed device-step time is extrapolated from that sample",
  };
  tracer.write_jsonl(input.workdir + "/trace_fleet_lifetime.jsonl", "fleet_lifetime");
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_fleet_lifetime(const PhaseInput& input) {
  return std::make_unique<FleetLifetime>(input);
}

}  // namespace perfbench
