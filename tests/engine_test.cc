// Campaign engine pipeline, driven with a synthetic per-seed runner so the
// ordering, layout, quarantine, interrupt and memory-window contracts are
// checked without simulating anything.

#include "src/campaign/engine.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/exit_codes.h"

namespace byterobust {
namespace {

// One "runs" element per seed, rendered the way real runners do (depth 2).
std::string Element(int i) {
  JsonWriter w(/*depth=*/2, /*need_comma=*/false);
  w.BeginObject();
  w.Field("index", i);
  w.EndObject();
  return w.Take();
}

CampaignEngineSpec SyntheticSpec(int seeds, int jobs, bool stream) {
  CampaignEngineSpec spec;
  spec.seeds = seeds;
  spec.jobs = jobs;
  spec.stream = stream;
  spec.label = "campaign:synthetic";
  spec.identity.base_seed = 7;
  spec.run_seed = [](int i) {
    // Scramble completion order across workers: later seeds often finish
    // first.
    std::this_thread::sleep_for(std::chrono::microseconds((i * 7919) % 13 * 100));
    return SeedOutcome{Element(i), {static_cast<double>(i)}, false};
  };
  spec.header_fields = [](JsonWriter* w) { w->Field("tool", "engine_test"); };
  spec.aggregates = [](JsonWriter* w, const std::vector<std::vector<double>>& summaries) {
    w->Key("aggregate");
    w->BeginObject();
    WriteAggregate(w, "index", FoldAggregateAt(summaries, 0));
    w->Field("count", static_cast<int>(summaries.size()));
    w->EndObject();
  };
  return spec;
}

// The whole document for `spec`, with the engine's exit code.
std::string RunCaptured(CampaignEngineSpec spec, int* code) {
  std::string document;
  spec.capture = &document;
  *code = RunCampaignEngine(spec);
  return document;
}

// The document every layout and --jobs value must reproduce, written out by
// hand from the same pieces.
std::string Expected(int seeds, bool stream, const std::vector<int>& skipped = {}) {
  std::vector<std::vector<double>> summaries;
  std::string runs;
  for (int i = 0; i < seeds; ++i) {
    if (std::find(skipped.begin(), skipped.end(), i) != skipped.end()) {
      continue;
    }
    if (!summaries.empty()) {
      runs += ",";
    }
    runs += Element(i);
    summaries.push_back({static_cast<double>(i)});
  }
  const CampaignEngineSpec spec = SyntheticSpec(seeds, 1, stream);
  JsonWriter head;
  head.BeginObject();
  spec.header_fields(&head);
  if (!stream) {
    spec.aggregates(&head, summaries);
  }
  head.Key("runs");
  head.BeginArray();
  std::string doc = head.Take() + runs + "\n  ]";
  if (stream) {
    JsonWriter tail(/*depth=*/1, /*need_comma=*/true);
    spec.aggregates(&tail, summaries);
    doc += tail.Take();
  }
  return doc + "\n}\n";
}

TEST(EngineTest, BothLayoutsAreSeedOrderedAtEveryJobCount) {
  for (const bool stream : {false, true}) {
    for (const int jobs : {1, 2, 3, 8}) {
      int code = -1;
      const std::string doc = RunCaptured(SyntheticSpec(40, jobs, stream), &code);
      EXPECT_EQ(code, kExitOk);
      EXPECT_EQ(doc, Expected(40, stream)) << "stream=" << stream << " jobs=" << jobs;
    }
  }
}

TEST(EngineTest, QuarantinedSeedLeavesNoElementAndIsReported) {
  for (const bool stream : {false, true}) {
    CampaignEngineSpec spec = SyntheticSpec(6, 3, stream);
    spec.retries_override = 0;
    const auto inner = spec.run_seed;
    spec.run_seed = [inner](int i) {
      if (i == 2) {
        throw std::runtime_error("poisoned");
      }
      return inner(i);
    };
    int code = -1;
    const std::string doc = RunCaptured(spec, &code);
    EXPECT_EQ(code, kExitQuarantine);
    // The surviving runs and aggregates are exactly a campaign without seed 2.
    const std::string clean = Expected(6, stream, {2});
    const std::size_t runs_end = clean.find("\n  ]") + 4;
    EXPECT_EQ(doc.substr(0, runs_end), clean.substr(0, runs_end)) << "stream=" << stream;
    EXPECT_NE(doc.find("\"failed_runs\""), std::string::npos);
    EXPECT_NE(doc.find("poisoned"), std::string::npos);
  }
}

TEST(EngineTest, StopDrainsInFlightSeedsAndKeepsTheCommittedPrefix) {
  for (const bool stream : {false, true}) {
    std::atomic<bool> stop{false};
    CampaignEngineSpec spec = SyntheticSpec(10, 1, stream);
    spec.external_stop = &stop;
    const auto inner = spec.run_seed;
    spec.run_seed = [inner, &stop](int i) {
      if (i == 3) {
        stop.store(true);
      }
      return inner(i);
    };
    int code = -1;
    const std::string doc = RunCaptured(spec, &code);
    EXPECT_EQ(code, kExitInterrupted);
    if (stream) {
      // A valid partial document: the four seeds that ran, aggregated.
      EXPECT_EQ(doc, Expected(4, /*stream=*/true));
    } else {
      // The journal, not a half-document, is the restart artifact.
      EXPECT_EQ(doc, "");
    }
  }
}

TEST(EngineTest, StragglerStallsClaimsAtTheCommitWindow) {
  constexpr int kJobs = 2;
  constexpr int kWindow = kCommitWindowPerWorker * kJobs;
  std::atomic<bool> straggler_done{false};
  std::atomic<int> furthest_started{-1};
  CampaignEngineSpec spec = SyntheticSpec(kWindow * 3, kJobs, /*stream=*/false);
  spec.run_seed = [&](int i) {
    if (i == 0) {
      // Long enough for the other worker to run into the window.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      straggler_done.store(true);
    } else if (!straggler_done.load()) {
      int seen = furthest_started.load();
      while (i > seen && !furthest_started.compare_exchange_weak(seen, i)) {
      }
    }
    return SeedOutcome{Element(i), {static_cast<double>(i)}, false};
  };
  int code = -1;
  const std::string doc = RunCaptured(spec, &code);
  EXPECT_EQ(code, kExitOk);
  EXPECT_EQ(doc, Expected(kWindow * 3, /*stream=*/false));
  // While seed 0 ran, no seed at or past the window started.
  EXPECT_GE(furthest_started.load(), 1);
  EXPECT_LT(furthest_started.load(), kWindow);
}

TEST(EngineTest, UnwritableOutFailsBeforeAnySeedRuns) {
  CampaignEngineSpec spec = SyntheticSpec(4, 2, /*stream=*/false);
  std::atomic<int> ran{0};
  spec.run_seed = [&ran](int i) {
    ran.fetch_add(1);
    return SeedOutcome{Element(i), {static_cast<double>(i)}, false};
  };
  spec.out_path = "/nonexistent-dir/engine_test.json";
  int code = -1;
  RunCaptured(spec, &code);
  EXPECT_EQ(code, kExitIoError);
  EXPECT_EQ(ran.load(), 0);
}

TEST(EngineTest, SpillWriteFailureStopsEveryWorker) {
  // A file-size limit makes the default layout's tmpfile fill up after a few
  // elements; SIGXFSZ is ignored so the write fails with EFBIG instead.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit limited = saved;
  limited.rlim_cur = 64 * 1024;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &limited), 0);

  constexpr int kSeeds = 400;
  std::atomic<int> ran{0};
  CampaignEngineSpec spec = SyntheticSpec(kSeeds, 2, /*stream=*/false);
  spec.run_seed = [&ran](int i) {
    ran.fetch_add(1);
    return SeedOutcome{Element(i) + std::string(8 * 1024, ' '), {static_cast<double>(i)}, false};
  };
  std::string error;
  try {
    int code = -1;
    RunCaptured(spec, &code);
  } catch (const std::exception& e) {
    error = e.what();
  }
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_NE(error.find("campaign spill write failed"), std::string::npos) << error;
  // The workers stop at the failure instead of running the remaining seeds.
  EXPECT_LT(ran.load(), kSeeds / 4);
}

TEST(EngineTest, ProgressGaugeCountsEverySeed) {
  std::atomic<int> done{0};
  CampaignEngineSpec spec = SyntheticSpec(12, 4, /*stream=*/true);
  spec.seeds_done = &done;
  int code = -1;
  RunCaptured(spec, &code);
  EXPECT_EQ(code, kExitOk);
  EXPECT_EQ(done.load(), 12);
}

}  // namespace
}  // namespace byterobust
