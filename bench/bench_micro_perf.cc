// Micro-benchmarks (google-benchmark) for the hot paths of the reproduction:
// event dispatch, the training step loop, stack aggregation, topology
// queries, backup planning, dual-phase replay, and one end-to-end campaign
// seed. These bound the simulation cost of campaign benches.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <string>

#include "src/analyzer/aggregation.h"
#include "src/ckpt/backup_strategy.h"
#include "src/core/production_presets.h"
#include "src/core/scenario.h"
#include "src/faults/domain_injector.h"
#include "src/fleet/fleet_presets.h"
#include "src/topology/fault_domains.h"
#include "src/replay/dual_phase_replay.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/sim/simulator.h"
#include "src/tracer/stack_synth.h"
#include "src/training/job_config.h"
#include "src/training/train_job.h"

namespace byterobust {
namespace {

void BM_SimulatorScheduleDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    long sink = 0;
    for (int i = 0; i < events; ++i) {
      sim.Schedule(Seconds(i % 100), [&sink] { ++sink; });
    }
    sim.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleDispatch)->Arg(1000)->Arg(10000)->Arg(100000);

// The traffic campaign seeds actually send: N events stay pending and each
// dispatch schedules one successor at a fresh timestamp (94% of fleet-mixed
// and 87% of dense-month events open a new one). Chain j only ever fires at
// times congruent to j mod N, so pending timestamps never coincide, while
// random strides keep the chains interleaving.
struct SteadyStateChains {
  Simulator* sim;
  std::int64_t chains;
  std::int64_t left_to_schedule;
  std::uint64_t lcg = 1;

  void Fire() {
    if (left_to_schedule == 0) {
      return;
    }
    --left_to_schedule;
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const auto stride = static_cast<SimDuration>(1 + (lcg >> 61));
    sim->Schedule(chains * stride, [this] { Fire(); });
  }
};

void BM_SimulatorSteadyState(benchmark::State& state) {
  const std::int64_t pending = state.range(0);
  constexpr std::int64_t kEvents = 100000;
  for (auto _ : state) {
    Simulator sim;
    SteadyStateChains chains{&sim, pending, kEvents - pending};
    for (std::int64_t j = 0; j < pending; ++j) {
      sim.ScheduleAt(j, [&chains] { chains.Fire(); });
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SimulatorSteadyState)->Arg(16)->Arg(256);

// Sums the steps it sees, one run per step (a horizon of one step).
struct StepSink final : StepObserver {
  std::int64_t Horizon(const StepRun&) const override { return 1; }
  void OnRun(const StepRun& run) override { sum += run.first_step; }

  std::int64_t sum = 0;
};

// The simulated training-step hot path: epoch-cached perf-model queries plus
// inline step runs (no interfering events, so every step after the first
// runs without a queue round-trip; the sink's horizon makes each run one
// step).
void BM_TrainJobStepLoop(benchmark::State& state) {
  const std::int64_t steps = state.range(0);
  JobConfig cfg;
  cfg.name = "bench-step-loop";
  cfg.parallelism.tp = 2;
  cfg.parallelism.pp = 4;
  cfg.parallelism.dp = 16;
  cfg.parallelism.gpus_per_machine = 8;  // 128 ranks on 16 machines
  cfg.base_step_time = Seconds(10);
  for (auto _ : state) {
    Simulator sim;
    Cluster cluster(cfg.parallelism.num_machines(), cfg.parallelism.gpus_per_machine);
    TrainJob job(cfg, &sim, &cluster, 7);
    StepSink sink;
    job.AddStepObserver(&sink);
    job.Start();
    sim.RunUntil(cfg.base_step_time * steps);
    benchmark::DoNotOptimize(sink.sum);
    if (job.steps_completed() != steps) {
      state.SkipWithError("unexpected step count");
    }
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_TrainJobStepLoop)->Arg(10000)->Arg(100000);

// One full dense-campaign seed (Sec. 8.1 production scenario, 9,600 GPUs) at
// one simulated day: fault injection, monitoring, diagnosis, recovery and the
// step loop together — the end-to-end cost the campaign CLI pays per seed.
void BM_DenseCampaignSeed(benchmark::State& state) {
  for (auto _ : state) {
    Scenario scenario(DenseCampaignConfig(/*days=*/1.0, /*seed=*/2024));
    scenario.Run();
    benchmark::DoNotOptimize(scenario.stats().incidents_injected);
  }
}
BENCHMARK(BM_DenseCampaignSeed)->Unit(benchmark::kMillisecond)->Repetitions(5)
    ->ReportAggregatesOnly(true);

// One month-scale dense seed: 30 simulated days on 9,600 GPUs. Exercises the
// quiescence-driven schedule end to end — with monitoring parked while the
// cluster is healthy and checkpoint durability folded lazily, the cost is
// dominated by the ~170 incidents, not the ~130k simulated steps.
void BM_DenseMonthCampaignSeed(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioConfig cfg = DenseCampaignConfig(/*days=*/30.0, /*seed=*/2024);
    cfg.system.metrics_retention = Hours(2);
    Scenario scenario(cfg);
    scenario.Run();
    benchmark::DoNotOptimize(scenario.stats().incidents_injected);
  }
}
BENCHMARK(BM_DenseMonthCampaignSeed)->Unit(benchmark::kMillisecond);

// One fleet-mixed campaign seed: three concurrent jobs (52 machines total)
// with their full per-job control-plane stacks, a shared spare arbiter and
// staggered starts, at half a simulated day — the end-to-end cost the fleet
// CLI pays per seed.
void BM_FleetCampaignSeed(benchmark::State& state) {
  for (auto _ : state) {
    Fleet fleet(FleetMixedConfig(/*days=*/0.5, /*seed=*/2024));
    fleet.Run();
    benchmark::DoNotOptimize(fleet.arbiter().preemptions_total());
  }
}
BENCHMARK(BM_FleetCampaignSeed)->Unit(benchmark::kMillisecond)->Repetitions(5)
    ->ReportAggregatesOnly(true);

// One request/response roundtrip against a live serve daemon on a local
// socket: connect, send, one-seed quickstart campaign (0.02 simulated days),
// receive + decode. This is the service-layer overhead a client pays on top
// of the engine itself (BM_DenseCampaignSeed et al. measure the engine).
void BM_ServeRequestRoundtrip(benchmark::State& state) {
  // One daemon per process, torn down at exit: function-local static so the
  // benchmark registers cheaply and the socket path is per-process unique.
  struct Fixture {
    ServeDaemon daemon;
    std::string socket_path;
    bool ok;
    Fixture()
        : daemon([] {
            ServeOptions opts;
            opts.socket_path =
                "/tmp/byterobust_bench_" + std::to_string(getpid()) + ".sock";
            opts.workers = 1;
            opts.jobs = 1;
            return opts;
          }()),
          socket_path("/tmp/byterobust_bench_" + std::to_string(getpid()) + ".sock") {
      std::string error;
      ok = daemon.Start(&error);
    }
    ~Fixture() { daemon.Drain(); }
  };
  static Fixture fixture;
  if (!fixture.ok) {
    state.SkipWithError("serve daemon failed to start");
    return;
  }
  const std::string request =
      "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1,\"days\":0.02}";
  for (auto _ : state) {
    std::string response;
    std::string error;
    if (!ServeRoundtrip(fixture.socket_path, request, /*connect_wait_s=*/5.0,
                        /*io_timeout_s=*/60.0, &response, &error)) {
      state.SkipWithError("roundtrip failed");
      return;
    }
    std::string body;
    if (!ExtractJsonStringField(response, "body", &body) || body.empty()) {
      state.SkipWithError("response carried no body");
      return;
    }
    benchmark::DoNotOptimize(body.size());
  }
}
// Gated on the process CPU time per request (the daemon runs in-process), the
// median of five repetitions: wall time on a shared host mostly measures the
// host.
BENCHMARK(BM_ServeRequestRoundtrip)
    ->MeasureProcessCPUTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

// Sustained service throughput: four concurrent clients hammer one daemon
// (--workers 4, --jobs 1 engines) with one-seed quickstart campaigns.
// items/sec in the report is campaigns/sec — the service-level throughput
// number ROADMAP's campaign-service item calls for, covering admission,
// queueing, engine execution and response framing under real contention.
void BM_ServeThroughput(benchmark::State& state) {
  struct Fixture {
    ServeDaemon daemon;
    std::string socket_path;
    bool ok;
    Fixture()
        : daemon([] {
            ServeOptions opts;
            opts.socket_path = "/tmp/byterobust_bench_tp_" +
                               std::to_string(getpid()) + ".sock";
            opts.workers = 4;
            opts.jobs = 1;
            return opts;
          }()),
          socket_path("/tmp/byterobust_bench_tp_" + std::to_string(getpid()) +
                      ".sock") {
      std::string error;
      ok = daemon.Start(&error);
    }
    ~Fixture() { daemon.Drain(); }
  };
  static Fixture fixture;
  if (!fixture.ok) {
    state.SkipWithError("serve daemon failed to start");
    return;
  }
  const std::string request =
      "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1,\"days\":0.02}";
  for (auto _ : state) {
    std::string response;
    std::string error;
    if (!ServeRoundtrip(fixture.socket_path, request, /*connect_wait_s=*/5.0,
                        /*io_timeout_s=*/60.0, &response, &error)) {
      state.SkipWithError("roundtrip failed");
      return;
    }
    std::string body;
    if (!ExtractJsonStringField(response, "body", &body) || body.empty()) {
      state.SkipWithError("response carried no body");
      return;
    }
    benchmark::DoNotOptimize(body.size());
  }
  state.SetItemsProcessed(state.iterations());  // one campaign per iteration
}
BENCHMARK(BM_ServeThroughput)
    ->Threads(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

Topology MakeTopo(int dp) {
  ParallelismConfig cfg;
  cfg.tp = 2;
  cfg.pp = 4;
  cfg.dp = dp;
  cfg.gpus_per_machine = 8;
  return Topology(cfg);
}

void BM_StackAggregation(benchmark::State& state) {
  const Topology topo = MakeTopo(static_cast<int>(state.range(0)));
  const auto stacks = SynthesizeFullPodStacks(topo, topo.world_size() - 1,
                                              HangSite::kTensorCollective);
  AggregationAnalyzer analyzer;
  for (auto _ : state) {
    auto result = analyzer.Analyze(stacks, topo);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int>(stacks.size()));
  state.counters["ranks"] = topo.world_size();
}
BENCHMARK(BM_StackAggregation)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The controller's hang-analysis path on the 9,600-rank dense job: the
// whole-pod snapshot synthesized as rank runs (a dozen, not 28,800 process
// stacks) and aggregated. BM_StackAggregation above times the per-rank
// adapter on the same kind of pod.
void BM_PodRunAggregation(benchmark::State& state) {
  const Topology topo(ProductionDenseJob().parallelism);
  const AggregationAnalyzer analyzer;
  const Rank culprit = topo.world_size() / 2 + 3;
  for (auto _ : state) {
    const AggregationResult result = analyzer.Analyze(
        SynthesizeFullPodRuns(topo, culprit, HangSite::kTensorCollective), topo);
    benchmark::DoNotOptimize(result.machines_to_evict.data());
  }
  state.counters["ranks"] = topo.world_size();
}
BENCHMARK(BM_PodRunAggregation)->Unit(benchmark::kMicrosecond);

void BM_FindCoveringGroup(benchmark::State& state) {
  const Topology topo = MakeTopo(static_cast<int>(state.range(0)));
  const std::vector<MachineId> machines = topo.MachinesOfGroup(topo.Groups(GroupKind::kPipeline)[0]);
  for (auto _ : state) {
    ParallelGroup group;
    bool found = topo.FindCoveringGroup(machines, &group);
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_FindCoveringGroup)->Arg(16)->Arg(64)->Arg(256);

void BM_BackupPlanConstruction(benchmark::State& state) {
  const Topology topo = MakeTopo(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    BackupPlan plan(topo);
    benchmark::DoNotOptimize(plan);
  }
  state.counters["ranks"] = topo.world_size();
}
BENCHMARK(BM_BackupPlanConstruction)->Arg(16)->Arg(64)->Arg(256);

void BM_DualPhaseReplayLocate(benchmark::State& state) {
  const int z = static_cast<int>(state.range(0));
  int m = 1;
  for (int cand = 2; cand * cand <= z; ++cand) {
    if (z % cand == 0) {
      m = cand;
    }
  }
  DualPhaseReplay replay(z, m);
  Rng rng(1);
  for (auto _ : state) {
    auto oracle = DualPhaseReplay::FaultOracle({z / 2}, 1.0, &rng);
    auto outcome = replay.Locate(oracle, Minutes(10));
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_DualPhaseReplayLocate)->Arg(24)->Arg(144)->Arg(1200);

// One correlated fault round-trip over the fault-domain graph at cluster
// scale: strike a spine (flipping the health of every machine beneath it),
// force the health-index + congestion refresh a monitor pass would pay, then
// heal. Bounds the per-event cost of the domain streams in campaign seeds.
void BM_DomainFaultPropagation(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  Cluster cluster(machines, 8);
  FaultDomainConfig domains;
  domains.machines_per_tor = 8;
  domains.tors_per_spine = 4;
  cluster.AttachFaultDomains(domains);
  const DomainId spine = cluster.fault_domains()->DomainIdAt(DomainLevel::kSpine, 0);
  for (auto _ : state) {
    const DomainFaultEffect effect = DomainInjector::ApplyToDomain(
        DomainFaultKind::kSpineFlap, spine, /*degradation_factor=*/1.0, &cluster, 0);
    benchmark::DoNotOptimize(cluster.SuspectServingMachines().size());
    benchmark::DoNotOptimize(cluster.CongestionFactor());
    DomainInjector::HealDomain(DomainFaultKind::kSpineFlap, spine, &cluster, 0);
    benchmark::DoNotOptimize(effect.affected.size());
  }
  state.SetItemsProcessed(state.iterations() * 32);  // machines per spine
}
BENCHMARK(BM_DomainFaultPropagation)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace byterobust

BENCHMARK_MAIN();
