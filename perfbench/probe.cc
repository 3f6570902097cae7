// perfbench_probe: the benchmark's per-layer timing harness.
//
// Links libbyterobust and times calls into each layer's public functions from
// outside, so the program under test is unchanged. perfbench/run.py drives it
// in the traced (--trace 1) run and folds its JSON into the per-layer metrics.
//
//   perfbench_probe layers --jobs N JOB...
//       One-thread and N-thread timings of the per-seed simulation (RunOne,
//       or Fleet construction + Fleet::Run), exact per-seed work counts,
//       rendering cost, the fault-free step cost of the dense-month job, and
//       stack synthesis / aggregation on the 9,600-rank dense topology.
//   perfbench_probe engine --jobs N --out-dir DIR JOB...
//       Runs each JOB through the campaign engine in-process with tracing on
//       (DIR/<k>.trace.json), writes its document to DIR/<k>.doc and reports
//       how long every run_seed call took, so run.py can subtract it from the
//       engine's "seed" span (the per-attempt harness overhead).
//
// JOB is command:scenario:days:base_seed:seeds[:stream[:journal]], e.g.
// campaign:dense-month:30:42:6 or fleet:fleet-mixed:0.5:42:24:stream:j.bin.
// Output is one JSON object on stdout; exit 2 on a usage error.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analyzer/aggregation.h"
#include "src/campaign/engine.h"
#include "src/campaign/json_writer.h"
#include "src/campaign/scenarios.h"
#include "src/core/byterobust_system.h"
#include "src/core/production_presets.h"
#include "src/core/scenario.h"
#include "src/fleet/fleet.h"
#include "src/obs/trace.h"
#include "src/tracer/stack_synth.h"

namespace byterobust {
namespace {

using Clock = std::chrono::steady_clock;

// Calls per thread for the stack synthesis and aggregation timings.
constexpr int kReps = 40;
// Fault-free dense-month runs behind training.quiet_step_ns.
constexpr int kQuietRuns = 4;
// Paired run_seed / Fleet::Run timings per fleet seed (see Layers).
constexpr int kRenderPairs = 5;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

struct Job {
  std::string command;  // "campaign" | "fleet"
  std::string scenario;
  double days = 0.0;
  std::uint64_t base_seed = 0;
  int seeds = 0;
  bool stream = false;
  std::string journal;
};

bool ParseJob(const std::string& text, Job* job) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  std::string part;
  while (std::getline(in, part, ':')) {
    parts.push_back(part);
  }
  if (parts.size() < 5 || parts.size() > 7 ||
      (parts[0] != "campaign" && parts[0] != "fleet")) {
    return false;
  }
  job->command = parts[0];
  job->scenario = parts[1];
  job->days = std::atof(parts[2].c_str());
  job->base_seed = std::strtoull(parts[3].c_str(), nullptr, 10);
  job->seeds = std::atoi(parts[4].c_str());
  job->stream = parts.size() > 5 && parts[5] == "stream";
  if (parts.size() > 6) {
    job->journal = parts[6];
  }
  if (job->command == "campaign" ? FindSpec(job->scenario) == nullptr
                                 : FindFleetSpec(job->scenario) == nullptr) {
    return false;
  }
  return job->days > 0.0 && job->seeds > 0;
}

// The campaign engine spec the CLI would build for this job.
CampaignEngineSpec EngineSpec(const Job& job, int jobs) {
  CampaignRequest req;
  req.command = job.command;
  req.scenario = job.scenario;
  req.seeds = job.seeds;
  req.base_seed = job.base_seed;
  req.days = job.days;
  req.jobs = jobs;
  req.stream = job.stream;
  req.journal_path = job.journal;
  CampaignEngineSpec spec;
  std::string error;
  if (!BuildCampaignEngineSpec(req, &spec, &error)) {
    std::fprintf(stderr, "probe: %s\n", error.c_str());
    std::exit(2);
  }
  return spec;
}

// The campaign CLI's per-seed defaults (batched stepping on, two-hour metric
// retention), applied where the probe builds a system itself.
void ApplyCampaignDefaults(SystemConfig* system) {
  system->job.batched_stepping = true;
  system->metrics_retention = Hours(2);
}

// What one seed did, read from the layers after the run.
struct SeedCounts {
  bool has_sim_counts = false;  // events/steps reachable through public presets
  double events = 0.0;
  double steps = 0.0;
  double restarts = 0.0;
  double incidents = 0.0;
  double evictions = 0.0;
};

void AddSystemCounts(ByteRobustSystem& sys, SeedCounts* c) {
  c->steps += static_cast<double>(sys.job().steps_completed());
  c->restarts += sys.job().run_count();
  c->incidents += static_cast<double>(sys.controller().log().entries().size());
  c->evictions += sys.controller().evictions_total();
}

// One seed's core simulation: RunOne for campaigns, Fleet construction +
// Fleet::Run for fleets. Returns wall ms; fills *counts when non-null.
double TimeSeed(const Job& job, std::uint64_t seed, SeedCounts* counts, RunResult* result) {
  if (job.command == "fleet") {
    const Clock::time_point start = Clock::now();
    FleetConfig cfg = FindFleetSpec(job.scenario)->make(job.days, seed);
    for (FleetJobSpec& member : cfg.jobs) {
      ApplyCampaignDefaults(&member.scenario.system);
    }
    Fleet fleet(cfg);
    fleet.Run();
    const double ms = MsSince(start);
    if (counts != nullptr) {
      counts->has_sim_counts = true;
      counts->events = static_cast<double>(fleet.sim().events_dispatched());
      for (int i = 0; i < fleet.num_jobs(); ++i) {
        AddSystemCounts(fleet.system(i), counts);
      }
    }
    return ms;
  }
  const ScenarioSpec& spec = *FindSpec(job.scenario);
  const Clock::time_point start = Clock::now();
  RunResult r = RunOne(spec, job.days, seed);
  const double ms = MsSince(start);
  if (counts != nullptr) {
    counts->restarts = r.runs;
    counts->evictions = r.evictions;
    for (const auto& [mechanism, n] : r.mechanisms) {
      counts->incidents += n;
    }
  }
  if (result != nullptr) {
    *result = std::move(r);
  }
  return ms;
}

// Events dispatched and steps completed are not part of RunResult; for the
// dense presets the probe rebuilds the same scenario and reads them off the
// simulator and the job. Returns false when the rebuilt run disagrees with
// RunOne's result (the mirror would then be measuring something else).
bool DenseSimCounts(const Job& job, std::uint64_t seed, const RunResult& r, SeedCounts* c) {
  if (job.scenario != "dense" && job.scenario != "dense-month") {
    return true;
  }
  ScenarioConfig cfg = DenseCampaignConfig(job.days, seed);
  ApplyCampaignDefaults(&cfg.system);
  Scenario scenario(cfg);
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  c->has_sim_counts = true;
  c->events = static_cast<double>(sys.sim().events_dispatched());
  c->steps = static_cast<double>(sys.job().steps_completed());
  return sys.job().run_count() == r.runs && sys.controller().evictions_total() == r.evictions &&
         sys.job().max_step_reached() == r.steps;
}

// Runs `calls(&ms)` on `threads` fresh threads released together; each thread
// appends the wall ms of every call it times. Returns all threads' timings.
// Fresh threads also keep the main thread's allocator state out of the
// figures.
template <typename Calls>
std::vector<double> TimeOnThreads(int threads, const Calls& calls) {
  std::mutex mu;
  std::condition_variable all_arrived;
  int arrived = 0;
  std::vector<double> all;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++arrived == threads) {
          all_arrived.notify_all();
        } else {
          all_arrived.wait(lock, [&] { return arrived == threads; });
        }
      }
      std::vector<double> mine;
      calls(&mine);
      const std::lock_guard<std::mutex> lock(mu);
      all.insert(all.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return all;
}

// Wall ms of each of `reps` calls of `fn` on each of `threads` threads.
template <typename Fn>
std::vector<double> TimeCalls(int threads, int reps, const Fn& fn) {
  return TimeOnThreads(threads, [&](std::vector<double>* ms) {
    for (int i = 0; i < reps; ++i) {
      const Clock::time_point start = Clock::now();
      fn();
      ms->push_back(MsSince(start));
    }
  });
}

int Layers(int jobs, const std::vector<Job>& work) {
  // Counts and rendering, one seed at a time. One untimed seed per job goes
  // first, so process-wide caches (shared topologies, interned stacks) are
  // built before anything is timed.
  for (const Job& job : work) {
    TimeSeed(job, job.base_seed, nullptr, nullptr);
  }
  std::vector<double> render_us;
  std::vector<double> element_bytes;
  std::vector<SeedCounts> counts;
  bool mirror_ok = true;
  for (const Job& job : work) {
    const CampaignEngineSpec spec = EngineSpec(job, 1);
    for (int i = 0; i < job.seeds; ++i) {
      const std::uint64_t seed = job.base_seed + static_cast<std::uint64_t>(i);
      SeedCounts c;
      RunResult r;
      TimeSeed(job, seed, &c, &r);
      if (job.command == "fleet") {
        // Fleet rendering is inlined in the engine's run_seed and its writer
        // is not public: time the whole call and Fleet::Run of the same seed
        // back to back, alternating which goes first, and take the median of
        // the paired differences (unclamped: run-to-run jitter is as large as
        // the render, so a single difference can be negative).
        std::vector<double> diffs;
        std::size_t bytes = 0;
        for (int p = 0; p < kRenderPairs; ++p) {
          const auto time_run_seed = [&] {
            const Clock::time_point start = Clock::now();
            const SeedOutcome outcome = spec.run_seed(i);
            bytes = outcome.element.size();
            return MsSince(start);
          };
          double run_seed_ms = 0.0;
          double sim_ms = 0.0;
          if (p % 2 == 0) {
            run_seed_ms = time_run_seed();
            sim_ms = TimeSeed(job, seed, nullptr, nullptr);
          } else {
            sim_ms = TimeSeed(job, seed, nullptr, nullptr);
            run_seed_ms = time_run_seed();
          }
          diffs.push_back((run_seed_ms - sim_ms) * 1e3);
        }
        render_us.push_back(Median(diffs));
        element_bytes.push_back(static_cast<double>(bytes));
      } else {
        std::string element;
        const Clock::time_point start = Clock::now();
        for (int k = 0; k < 20; ++k) {
          JsonWriter w(/*depth=*/2, /*need_comma=*/false);
          WriteRun(&w, r);
          element = w.Take();
        }
        render_us.push_back(MsSince(start) * 1e3 / 20.0);
        element_bytes.push_back(static_cast<double>(element.size()));
        mirror_ok = DenseSimCounts(job, seed, r, &c) && mirror_ok;
      }
      counts.push_back(c);
    }
  }

  // Per-seed simulation time on one thread, then from `jobs` threads at once
  // (each thread runs every seed).
  const auto time_seeds = [&](std::vector<double>* ms) {
    for (const Job& job : work) {
      for (int i = 0; i < job.seeds; ++i) {
        ms->push_back(
            TimeSeed(job, job.base_seed + static_cast<std::uint64_t>(i), nullptr, nullptr));
      }
    }
  };
  const std::vector<double> seed_ms = TimeOnThreads(1, time_seeds);
  const std::vector<double> contended_ms = TimeOnThreads(jobs, time_seeds);

  // Fault-free stepping of the dense-month job with every observer wired.
  const std::uint64_t base_seed = work.front().base_seed;
  std::vector<double> quiet_ns;
  for (int i = 0; i < kQuietRuns; ++i) {
    ScenarioConfig cfg = DenseCampaignConfig(30.0, base_seed);
    ApplyCampaignDefaults(&cfg.system);
    ByteRobustSystem sys(cfg.system);
    const Clock::time_point start = Clock::now();
    sys.Start();
    sys.sim().RunUntil(cfg.duration);
    const double ms = MsSince(start);
    quiet_ns.push_back(ms * 1e6 / static_cast<double>(std::max<std::int64_t>(
                                      1, sys.job().steps_completed())));
  }

  // Stack synthesis and aggregation over the 9,600-rank dense topology.
  const Topology topology(DenseCampaignConfig(30.0, base_seed).system.job.parallelism);
  const Rank culprit = static_cast<Rank>(base_seed % static_cast<std::uint64_t>(
                                                          topology.world_size()));
  const auto synthesize = [&] {
    const std::vector<ProcessStack> stacks =
        SynthesizeFullPodStacks(topology, culprit, HangSite::kTensorCollective);
    if (stacks.empty()) {
      std::abort();
    }
  };
  const std::vector<ProcessStack> pod =
      SynthesizeFullPodStacks(topology, culprit, HangSite::kTensorCollective);
  const AggregationAnalyzer analyzer;
  const AggregationResult check = analyzer.Analyze(pod, topology);
  const bool analyzer_ok = !check.outlier_machines.empty() && !check.machines_to_evict.empty();
  const auto aggregate = [&] {
    const AggregationResult result = analyzer.Analyze(pod, topology);
    if (result.groups.empty()) {
      std::abort();
    }
  };

  std::vector<double> events;
  std::vector<double> steps;
  std::vector<double> restarts;
  std::vector<double> incidents;
  std::vector<double> evictions;
  for (const SeedCounts& c : counts) {
    if (c.has_sim_counts) {
      events.push_back(c.events);
      steps.push_back(c.steps);
    }
    restarts.push_back(c.restarts);
    incidents.push_back(c.incidents);
    evictions.push_back(c.evictions);
  }
  std::printf(
      "{\"seeds\": %zu, \"seed_ms\": %.6f, \"seed_contended_ms\": %.6f, "
      "\"events_per_seed\": %.3f, \"steps_per_seed\": %.3f, \"sim_count_seeds\": %zu, "
      "\"restarts_per_seed\": %.4f, \"incidents_per_seed\": %.4f, "
      "\"evictions_per_seed\": %.4f, \"render_us_per_seed\": %.4f, "
      "\"element_bytes_per_seed\": %.2f, \"quiet_step_ns\": %.4f, \"quiet_runs\": %zu, "
      "\"pod_synth_ms\": %.6f, \"pod_synth_contended_ms\": %.6f, "
      "\"aggregate_ms\": %.6f, \"aggregate_contended_ms\": %.6f, "
      "\"reps\": %d, \"mirror_ok\": %s, \"analyzer_ok\": %s}\n",
      seed_ms.size(), Mean(seed_ms), Mean(contended_ms), Mean(events), Mean(steps),
      events.size(), Mean(restarts), Mean(incidents), Mean(evictions), Mean(render_us),
      Mean(element_bytes), Median(quiet_ns), quiet_ns.size(),
      Median(TimeCalls(1, kReps, synthesize)), Median(TimeCalls(jobs, kReps, synthesize)),
      Median(TimeCalls(1, kReps, aggregate)), Median(TimeCalls(jobs, kReps, aggregate)), kReps,
      mirror_ok ? "true" : "false", analyzer_ok ? "true" : "false");
  return 0;
}

int Engine(int jobs, const std::string& out_dir, const std::vector<Job>& work) {
  std::printf("[");
  for (std::size_t k = 0; k < work.size(); ++k) {
    CampaignEngineSpec spec = EngineSpec(work[k], jobs);
    std::mutex mu;
    std::vector<double> run_seed_us(static_cast<std::size_t>(work[k].seeds), 0.0);
    const auto inner = spec.run_seed;
    spec.run_seed = [&, inner](int i) {
      const Clock::time_point start = Clock::now();
      SeedOutcome outcome = inner(i);
      const double us = MsSince(start) * 1e3;
      const std::lock_guard<std::mutex> lock(mu);
      run_seed_us[static_cast<std::size_t>(i)] = us;
      return outcome;
    };
    std::string document;
    spec.capture = &document;
    const std::string prefix = out_dir + "/" + std::to_string(k);
    std::string error;
    if (!obs::StartTrace(prefix + ".trace.json", &error)) {
      std::fprintf(stderr, "probe: %s\n", error.c_str());
      return 1;
    }
    const int code = RunCampaignEngine(spec);
    obs::StopTrace();
    std::ofstream(prefix + ".doc", std::ios::binary) << document;
    std::printf("%s{\"exit\": %d, \"run_seed_us\": [", k == 0 ? "" : ", ", code);
    for (std::size_t i = 0; i < run_seed_us.size(); ++i) {
      std::printf("%s%.3f", i == 0 ? "" : ", ", run_seed_us[i]);
    }
    std::printf("]}");
  }
  std::printf("]\n");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe layers|engine [options] JOB...\n");
    return 2;
  }
  const std::string mode = argv[1];
  int jobs = 1;
  std::string out_dir;
  std::vector<Job> work;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      Job job;
      if (!ParseJob(arg, &job)) {
        std::fprintf(stderr, "probe: bad job '%s'\n", arg.c_str());
        return 2;
      }
      work.push_back(job);
    }
  }
  if (work.empty()) {
    std::fprintf(stderr, "probe: no JOB given\n");
    return 2;
  }
  if (mode == "layers") {
    return Layers(jobs, work);
  }
  if (mode == "engine" && !out_dir.empty()) {
    return Engine(jobs, out_dir, work);
  }
  std::fprintf(stderr, "probe: unknown mode '%s' (or engine without --out-dir)\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace byterobust

int main(int argc, char** argv) { return byterobust::Main(argc, argv); }
