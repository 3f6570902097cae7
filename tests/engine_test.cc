// Campaign engine pipeline, driven with a synthetic per-seed runner so the
// ordering, layout, quarantine, interrupt and memory-window contracts, and
// the supervision of every seed attempt (retry, watchdog, abandonment,
// injected faults), are checked without simulating anything.

#include "src/campaign/engine.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/exit_codes.h"
#include "src/harness/journal.h"
#include "src/harness/wallclock.h"

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


// ---------------------------------------------------------------------------
// Seed supervision, end to end: the coordinator's retry, watchdog,
// abandonment and quarantine paths.
// ---------------------------------------------------------------------------

// Sets one of the engine's two environment knobs for a scope; the engine
// reads them at every RunCampaignEngine call.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

// The document's "failed_runs" block, or "" when there is none.
std::string FailedRuns(const std::string& doc) {
  const std::size_t begin = doc.find("\"failed_runs\"");
  if (begin == std::string::npos) {
    return "";
  }
  return doc.substr(begin, doc.find("\n  ]", begin) - begin);
}

// The document up to the end of its runs array.
std::string RunsPrefix(const std::string& doc) {
  return doc.substr(0, doc.find("\n  ]") + 4);
}

TEST(EngineSupervisionTest, TransientFailureIsRetriedToSuccess) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  CampaignEngineSpec spec = SyntheticSpec(8, 3, /*stream=*/false);
  const auto inner = spec.run_seed;
  spec.run_seed = [inner, calls](int i) {
    if (i == 5 && calls->fetch_add(1) < 2) {
      throw std::runtime_error("transient worker death");
    }
    return inner(i);
  };
  int code = -1;
  const std::string doc = RunCaptured(spec, &code);
  EXPECT_EQ(code, kExitOk);
  EXPECT_EQ(doc, Expected(8, /*stream=*/false));
  EXPECT_EQ(calls->load(), 3);  // two failures, then the default third attempt
}

TEST(EngineSupervisionTest, PersistentFailureQuarantinesWithAttemptCount) {
  CampaignEngineSpec spec = SyntheticSpec(8, 3, /*stream=*/true);
  const auto inner = spec.run_seed;
  spec.run_seed = [inner](int i) {
    if (i == 7) {
      throw std::runtime_error("always broken");
    }
    return inner(i);
  };
  int code = -1;
  const std::string doc = RunCaptured(spec, &code);
  EXPECT_EQ(code, kExitQuarantine);
  EXPECT_EQ(RunsPrefix(doc), RunsPrefix(Expected(8, /*stream=*/true, {7})));
  const std::string failed = FailedRuns(doc);
  EXPECT_NE(failed.find("\"index\": 7,"), std::string::npos) << failed;
  EXPECT_NE(failed.find("\"attempts\": 3,"), std::string::npos) << failed;
  EXPECT_NE(failed.find("\"timed_out\": false,"), std::string::npos) << failed;
  EXPECT_NE(failed.find("always broken"), std::string::npos) << failed;
}

// The injected hang fault is the one attempt that polls its cancel token: it
// yields only once the watchdog fires, and a seed under the same deadline
// that finishes in time is never cancelled.
TEST(EngineSupervisionTest, WatchdogFiresOnlyPastDeadline) {
  const ScopedEnv timeout("BYTEROBUST_SEED_TIMEOUT_S", "0.15");
  {
    const ScopedEnv faults("BYTEROBUST_HARNESS_FAULTS", "hang:1");
    CampaignEngineSpec spec = SyntheticSpec(1, 1, /*stream=*/true);
    spec.retries_override = 0;
    const double start = WallSeconds();
    int code = -1;
    const std::string doc = RunCaptured(spec, &code);
    EXPECT_GE(WallSeconds() - start, 0.15);
    EXPECT_EQ(code, kExitQuarantine);
    const std::string failed = FailedRuns(doc);
    EXPECT_NE(failed.find("\"timed_out\": true,"), std::string::npos) << failed;
    EXPECT_NE(failed.find("cancelled by watchdog"), std::string::npos) << failed;
  }
  int code = -1;
  EXPECT_EQ(RunCaptured(SyntheticSpec(6, 2, /*stream=*/false), &code),
            Expected(6, /*stream=*/false));
  EXPECT_EQ(code, kExitOk);
}

// A seed that ignores cancellation is abandoned once the cancel grace ends:
// the campaign finishes without it, and its late finish reaches neither the
// document nor the journal.
TEST(EngineSupervisionTest, NonCooperativeHangIsAbandonedWithoutRetry) {
  struct Gate {
    std::atomic<bool> release{false};
    std::atomic<bool> finished{false};
  };
  const ScopedEnv timeout("BYTEROBUST_SEED_TIMEOUT_S", "0.1");
  auto gate = std::make_shared<Gate>();
  CampaignEngineSpec spec = SyntheticSpec(6, 3, /*stream=*/false);
  spec.identity = {"campaign", "synthetic", 6, 7, 1.0, "unknown"};
  spec.journal_path = ::testing::TempDir() + "/engine_abandon.journal";
  const auto inner = spec.run_seed;
  spec.run_seed = [inner, gate](int i) {
    if (i == 3) {
      while (!gate->release.load()) {  // never looks at a cancel token
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      SeedOutcome late = inner(i);
      gate->finished.store(true);
      return late;
    }
    return inner(i);
  };
  int code = -1;
  const std::string doc = RunCaptured(spec, &code);
  EXPECT_FALSE(gate->finished.load());  // returned while seed 3 is still blocked
  EXPECT_EQ(code, kExitQuarantine);
  EXPECT_EQ(RunsPrefix(doc), RunsPrefix(Expected(6, /*stream=*/false, {3})));
  const std::string failed = FailedRuns(doc);
  EXPECT_NE(failed.find("\"index\": 3,"), std::string::npos) << failed;
  EXPECT_NE(failed.find("\"attempts\": 1,"), std::string::npos) << failed;
  EXPECT_NE(failed.find("\"timed_out\": true,"), std::string::npos) << failed;
  EXPECT_NE(failed.find("did not yield"), std::string::npos) << failed;

  gate->release.store(true);
  while (!gate->finished.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it report
  CampaignIdentity identity;
  std::map<int, JournalEntry> journaled;
  long valid_end = 0;
  std::string error;
  ASSERT_TRUE(CampaignJournal::Load(spec.journal_path, &identity, &journaled, &valid_end, &error))
      << error;
  EXPECT_EQ(journaled.size(), 5u);
  EXPECT_EQ(journaled.count(3), 0u);
  std::remove(spec.journal_path.c_str());
}

TEST(EngineSupervisionTest, CrashSeedFaultQuarantinesThatSeedOnly) {
  const ScopedEnv faults("BYTEROBUST_HARNESS_FAULTS", "crash_seed:2");
  int code = -1;
  const std::string doc = RunCaptured(SyntheticSpec(5, 2, /*stream=*/true), &code);
  EXPECT_EQ(code, kExitQuarantine);
  EXPECT_EQ(RunsPrefix(doc), RunsPrefix(Expected(5, /*stream=*/true, {2})));
  const std::string failed = FailedRuns(doc);
  EXPECT_NE(failed.find("\"index\": 2,"), std::string::npos) << failed;
  EXPECT_EQ(failed.find("\"index\":", failed.find("\"index\": 2,") + 1), std::string::npos)
      << failed;
  EXPECT_NE(failed.find("\"attempts\": 3,"), std::string::npos) << failed;
  EXPECT_NE(failed.find("persistent crash"), std::string::npos) << failed;
}

}  // namespace
}  // namespace byterobust
