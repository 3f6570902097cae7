#include "src/campaign/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/harness/exit_codes.h"
#include "src/harness/supervisor.h"
#include "src/harness/wallclock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace byterobust {

void WriteAggregate(JsonWriter* w, const std::string& key, const Aggregate& a) {
  w->Key(key);
  w->BeginObject();
  w->Field("mean", a.mean);
  w->Field("min", a.min);
  w->Field("max", a.max);
  w->EndObject();
}

Aggregate FoldAggregateAt(const std::vector<std::vector<double>>& summaries, std::size_t slot) {
  Aggregate a;
  if (summaries.empty()) {
    return a;
  }
  a.min = a.max = summaries.front().at(slot);
  for (const std::vector<double>& s : summaries) {
    const double v = s.at(slot);
    a.mean += v;
    a.min = std::min(a.min, v);
    a.max = std::max(a.max, v);
  }
  a.mean /= static_cast<double>(summaries.size());
  return a;
}

namespace {

// Rendered as a primed depth-1 block so it splices after the closed "runs"
// array; emitted only when non-empty, so clean campaigns keep their exact
// byte layout.
std::string RenderFailedRuns(const std::vector<FailedRun>& failures) {
  JsonWriter w(/*depth=*/1, /*need_comma=*/true);
  w.Key("failed_runs");
  w.BeginArray();
  for (const FailedRun& f : failures) {
    w.BeginObject();
    w.Field("index", f.index);
    w.Field("seed", f.seed);
    w.Field("attempts", f.attempts);
    w.Field("timed_out", f.timed_out);
    w.Field("error", f.error);
    w.EndObject();
  }
  w.EndArray();
  return w.Take();
}

// Incremental output: everything goes to stdout — or the spec's capture
// string — and (optionally) to --out, written as produced instead of
// accumulated in one string. Construct — and check ok() — BEFORE any seed
// starts, so an unwritable --out fails fast instead of after minutes of
// simulation.
class OutputSink {
 public:
  OutputSink(const std::string& out_path, std::string* capture)
      : path_(out_path), capture_(capture) {
    if (!path_.empty()) {
      file_ = std::fopen(path_.c_str(), "wb");
      if (file_ == nullptr) {
        ok_ = false;
      }
    }
  }
  ~OutputSink() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }
  OutputSink(const OutputSink&) = delete;
  OutputSink& operator=(const OutputSink&) = delete;

  // False when --out could not be opened; Finish() reports it.
  bool ok() const { return ok_; }

  void Write(std::string_view text) {
    if (capture_ != nullptr) {
      capture_->append(text);
    } else if (std::fwrite(text.data(), 1, text.size(), stdout) != text.size()) {
      // SIGPIPE is ignored, so a reader hanging up surfaces as a short write
      // here instead of killing the process mid-campaign.
      stdout_ok_ = false;
    }
    if (file_ != nullptr && std::fwrite(text.data(), 1, text.size(), file_) != text.size()) {
      ok_ = false;
    }
  }

  // kExitOk on success, mirroring the CLI Emit() contract.
  int Finish() {
    if (capture_ == nullptr && (std::fflush(stdout) != 0 || std::ferror(stdout) != 0)) {
      stdout_ok_ = false;
    }
    if (!stdout_ok_) {
      std::fprintf(stderr, "error: short write on stdout\n");
      return kExitIoError;
    }
    if (!ok_) {
      std::fprintf(stderr, "error: could not write %s\n", path_.c_str());
      return kExitIoError;
    }
    return kExitOk;
  }

 private:
  std::string path_;
  std::string* capture_ = nullptr;
  std::FILE* file_ = nullptr;
  bool ok_ = true;
  bool stdout_ok_ = true;
};

// The default layout's runs array, parked in one sequential tmpfile while
// seeds commit: the aggregate block that precedes it in the document needs
// every seed first. Memory stays at one commit window instead of --seeds
// elements.
class RunsSpill {
 public:
  RunsSpill() : file_(std::tmpfile()), ok_(file_ != nullptr) {}
  ~RunsSpill() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }
  RunsSpill(const RunsSpill&) = delete;
  RunsSpill& operator=(const RunsSpill&) = delete;

  // False once creating or writing the tmpfile failed.
  bool ok() const { return ok_; }

  void Write(std::string_view text) {
    if (ok_ && std::fwrite(text.data(), 1, text.size(), file_) != text.size()) {
      ok_ = false;
    }
  }

  // Copies everything written so far to `sink`; false on a read error.
  bool CopyTo(OutputSink* sink) {
    const obs::ScopedSpan merge_span("spill_merge", "campaign");
    if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
      return false;
    }
    std::string chunk(std::size_t{1} << 16, '\0');
    for (std::size_t n = 0; (n = std::fread(chunk.data(), 1, chunk.size(), file_)) > 0;) {
      sink->Write(std::string_view(chunk.data(), n));
    }
    return std::ferror(file_) == 0;
  }

 private:
  std::FILE* file_;
  bool ok_;
};

// ---------------------------------------------------------------------------
// Seed attempts. Every attempt runs on a fresh thread that shares only heap
// state with the coordinator: its own Attempt and the campaign's Mailbox.
// It never touches the journal, the sink, the supervisor or any engine
// frame, so an attempt the watchdog abandons may finish late without harm.
// ---------------------------------------------------------------------------

// Where attempt threads report that they finished. One per campaign, co-owned
// by every attempt, so a late finish after abandonment still posts into live
// memory (and the coordinator, if still running, ignores it).
struct Mailbox {
  Mutex mu;
  CondVar cv;
  std::vector<int> finished BR_GUARDED_BY(mu);  // seed indices
};

// One attempt's result. The attempt thread fills it in and then posts its
// seed index; the coordinator reads it only after joining that thread.
struct Attempt {
  std::atomic<bool> cancel{false};  // the attempt's CancelToken flag
  bool ok = false;
  bool yielded = false;  // threw SeedCancelledError: a cooperative timeout
  SeedOutcome outcome;
  std::string error;
};

using SeedFn = std::function<SeedOutcome(int)>;

// An attempt thread's body: its retry backoff, then the seed. Every argument
// is the thread's own copy.
void RunAttempt(const std::shared_ptr<Attempt>& self, const std::shared_ptr<Mailbox>& mailbox,
                const std::shared_ptr<const SeedFn>& run_seed, const HarnessFaultSpec& faults,
                std::uint64_t seed, int index, int attempt, double backoff_ms, double launch_s) {
  // This thread's occupancy, from its launch (thread creation included) to
  // its report.
  const obs::ScopedSpan seed_span("seed", "campaign", index, launch_s);
  if (backoff_ms > 0.0) {
    const obs::ScopedSpan backoff_span("retry_backoff", "harness", index);
    SleepMs(backoff_ms);
  }
  {
    const obs::ScopedSpan attempt_span("seed_attempt", "harness", index);
    try {
      InjectHarnessFault(faults, seed, index, attempt,
                         CancelToken(std::shared_ptr<std::atomic<bool>>(self, &self->cancel)));
      self->outcome = (*run_seed)(index);
      self->ok = true;
    } catch (const SeedCancelledError& e) {
      self->yielded = true;
      self->error = e.what();
    } catch (const std::exception& e) {
      self->error = e.what();
    } catch (...) {
      self->error = "unknown exception";
    }
  }
  Mailbox& box = *mailbox;
  const MutexLock lock(&box.mu);
  box.finished.push_back(index);
  box.cv.NotifyOne();
}

struct HarnessCounters {
  obs::Counter* attempts = obs::GlobalMetrics().GetCounter("harness.attempts");
  obs::Counter* retries = obs::GlobalMetrics().GetCounter("harness.retries");
  obs::Counter* watchdog_fires = obs::GlobalMetrics().GetCounter("harness.watchdog_fires");
  obs::Counter* quarantines = obs::GlobalMetrics().GetCounter("harness.quarantines");
};

// Registered on the first launch, so a fully resumed campaign adds none.
const HarnessCounters& Counters() {
  static const HarnessCounters counters;
  return counters;
}

SupervisorConfig SupervisorConfigFor(const CampaignEngineSpec& spec) {
  SupervisorConfig config;
  std::string error;
  if (!SupervisorConfig::FromEnv(spec.identity.base_seed, &config, &error)) {
    throw EngineSetupError(error);
  }
  if (spec.retries_override >= 0) {
    config.max_attempts = 1 + spec.retries_override;
  }
  config.external_stop = spec.external_stop;
  return config;
}

// ---------------------------------------------------------------------------
// Coordinator: the thread that called RunCampaignEngine, and the only one
// that touches this state. It launches attempts in seed order while fewer
// than `workers` run and the next seed lies inside the commit window; waits
// on the mailbox for completions or the earliest watchdog deadline; journals
// successes; decides retries and quarantines; and writes finished elements
// in seed order. A resumed seed is taken from the --resume journal instead.
// ---------------------------------------------------------------------------
class Coordinator {
 public:
  Coordinator(const CampaignEngineSpec& spec, int workers)
      : spec_(spec),
        workers_(workers),
        window_(kCommitWindowPerWorker * workers),
        supervisor_(SupervisorConfigFor(spec)),
        run_seed_(std::make_shared<const SeedFn>(spec.run_seed)) {
    std::string error;
    if (!spec.resume_path.empty()) {
      if (!journal_.OpenForResume(spec.resume_path, spec.identity, &resumed_, &error,
                                  spec.journal_sync)) {
        throw EngineSetupError(error);
      }
    } else if (!spec.journal_path.empty()) {
      if (!journal_.Create(spec.journal_path, spec.identity, &error, spec.journal_sync)) {
        throw EngineSetupError(error);
      }
    }
  }
  // Run() returns only once nothing runs, so attempts are still in flight
  // here only when an unexpected exception unwinds: abandon them like hung
  // ones (they hold only heap state).
  ~Coordinator() {
    for (auto& [index, f] : running_) {
      f.state->cancel.store(true, std::memory_order_relaxed);
      f.thread.detach();
    }
  }
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Runs the campaign until every seed is committed or quarantined, or until
  // a stop or a commit failure ends launching; returns once every attempt
  // still in flight then has been joined or abandoned. Elements go to
  // `write` in seed order. Rethrows the first commit failure, with its seed.
  void Run(const std::function<void(std::string_view)>& write) {
    write_ = &write;
    for (;;) {
      const bool window_full = LaunchReady();
      if (running_.empty()) {
        break;
      }
      AwaitEvents(window_full);
    }
    write_ = nullptr;
    if (error_) {
      std::rethrow_exception(error_);
    }
  }

  bool stop_requested() const { return supervisor_.stop_requested(); }
  // Seeds committed so far, a prefix of the seed order.
  int committed() const { return next_commit_; }
  // Committed seeds' summaries in seed order.
  std::vector<std::vector<double>> TakeSummaries() { return std::move(summaries_); }
  // Quarantined seeds in index order.
  std::vector<FailedRun> TakeFailures() {
    std::sort(failures_.begin(), failures_.end(),
              [](const FailedRun& a, const FailedRun& b) { return a.index < b.index; });
    return std::move(failures_);
  }

 private:
  struct InFlight {
    std::shared_ptr<Attempt> state;
    std::thread thread;
    int attempt = 1;
    double start_s = 0.0;    // WallSeconds() when the attempt's backoff ends
    double timeout_s = 0.0;  // the watchdog deadline it runs under
    bool cancelled = false;
  };

  // Launches (or takes from the resume journal) seeds in order. True when
  // only the commit window holds the next launch back.
  bool LaunchReady() {
    while (!error_ && !supervisor_.stop_requested() && next_launch_ < spec_.seeds) {
      if (running_.size() >= static_cast<std::size_t>(workers_)) {
        return false;
      }
      if (next_launch_ >= next_commit_ + window_) {
        return true;
      }
      const int i = next_launch_++;
      const auto resumed = resumed_.find(i);
      if (resumed == resumed_.end()) {
        Guarded(i, [&] { Launch(i, 1); });
        continue;
      }
      NoteSeedDone();
      Guarded(i, [&] {
        Park(i, SeedOutcome{resumed->second.element, resumed->second.summary, false});
      });
    }
    return false;
  }

  void Launch(int i, int attempt) {
    Counters().attempts->Add();
    InFlight f;
    f.state = std::make_shared<Attempt>();
    f.attempt = attempt;
    f.timeout_s = supervisor_.AttemptTimeoutS();
    const double backoff_ms = attempt > 1 ? supervisor_.BackoffMs(i, attempt - 1) : 0.0;
    const double now = WallSeconds();
    f.start_s = now + backoff_ms / 1e3;
    const SupervisorConfig& config = supervisor_.config();
    f.thread = std::thread(RunAttempt, f.state, mailbox_, run_seed_, config.faults, config.seed,
                           i, attempt, backoff_ms, now);
    running_.emplace(i, std::move(f));
  }

  // Blocks until an attempt reports or the earliest watchdog deadline (or
  // the end of a cancel grace) passes, then handles both.
  void AwaitEvents(bool window_full) {
    const double grace_s = supervisor_.config().cancel_grace_s;
    double wake_s = std::numeric_limits<double>::infinity();
    for (const auto& [index, f] : running_) {
      wake_s = std::min(wake_s, f.start_s + f.timeout_s + (f.cancelled ? grace_s : 0.0));
    }
    std::vector<int> finished;
    {
      // How long the commit window held the next launch back.
      std::optional<obs::ScopedSpan> stall;
      if (window_full) {
        stall.emplace("commit_wait", "campaign", next_launch_);
      }
      Mailbox& box = *mailbox_;
      const MutexLock lock(&box.mu);
      while (box.finished.empty()) {
        const double left_s = wake_s - WallSeconds();
        if (left_s <= 0.0) {
          break;
        }
        box.cv.WaitFor(&box.mu, left_s);
      }
      finished.swap(box.finished);
    }
    for (const int i : finished) {
      Finish(i);
    }
    Watchdog(grace_s);
  }

  void Finish(int i) {
    const auto it = running_.find(i);
    if (it == running_.end()) {
      return;  // abandoned earlier: its seed is already quarantined
    }
    it->second.thread.join();
    const std::shared_ptr<Attempt> done = std::move(it->second.state);
    const int attempt = it->second.attempt;
    const double run_s = WallSeconds() - it->second.start_s;
    running_.erase(it);
    Guarded(i, [&] {
      if (done->ok) {
        supervisor_.NoteDuration(run_s);
        Commit(i, std::move(done->outcome));
      } else if (attempt < supervisor_.max_attempts()) {
        if (!error_) {
          Counters().retries->Add();
          obs::TraceInstantArg("seed_retry", "harness", i);
          Launch(i, attempt + 1);  // the new thread sleeps its own backoff
        }
      } else {
        Quarantine(i, attempt, done->yielded, std::move(done->error));
      }
    });
  }

  // Cancels attempts past their deadline, and abandons cancelled ones that
  // did not return within the grace: the thread is detached (it owns only
  // heap state) and the seed quarantined without a retry, because a
  // deterministic hang would only hang again.
  void Watchdog(double grace_s) {
    const double now = WallSeconds();
    for (auto it = running_.begin(); it != running_.end();) {
      const int i = it->first;
      InFlight& f = it->second;
      const double deadline_s = f.start_s + f.timeout_s;
      if (!f.cancelled && now >= deadline_s) {
        Counters().watchdog_fires->Add();
        obs::TraceInstantArg("watchdog_fire", "harness", i);
        f.state->cancel.store(true, std::memory_order_relaxed);
        f.cancelled = true;
      }
      if (!f.cancelled || now < deadline_s + grace_s) {
        ++it;
        continue;
      }
      f.thread.detach();
      const int attempt = f.attempt;
      const double timeout_s = f.timeout_s;
      it = running_.erase(it);
      Guarded(i, [&] {
        Quarantine(i, attempt, /*timed_out=*/true, SeedSupervisor::WatchdogMessage(timeout_s));
      });
    }
  }

  void Commit(int i, SeedOutcome outcome) {
    if (error_) {
      return;
    }
    if (journal_.open()) {
      static obs::Counter* const commit_counter =
          obs::GlobalMetrics().GetCounter("harness.journal_commits");
      commit_counter->Add();
      const obs::ScopedSpan commit_span("journal_commit", "harness", i);
      if (!journal_.Append({i, outcome.summary, outcome.element})) {
        throw std::runtime_error("journal append failed for seed index " + std::to_string(i));
      }
    }
    supervisor_.NoteCommitted();
    NoteSeedDone();
    Park(i, std::move(outcome));
  }

  void Quarantine(int i, int attempts, bool timed_out, std::string error) {
    if (error_) {
      return;
    }
    Counters().quarantines->Add();
    obs::TraceInstantArg("seed_quarantine", "harness", i);
    failures_.push_back({i, spec_.identity.base_seed + static_cast<std::uint64_t>(i), attempts,
                         timed_out, std::move(error)});
    NoteSeedDone();
    SeedOutcome failed;
    failed.failed = true;
    Park(i, std::move(failed));
  }

  // Holds seed i until every earlier seed is in, then writes it and every
  // consecutive successor already parked. Quarantined seeds advance the
  // order without an element.
  void Park(int i, SeedOutcome outcome) {
    parked_.emplace(i, std::move(outcome));
    while (!parked_.empty() && parked_.begin()->first == next_commit_) {
      SeedOutcome& ready = parked_.begin()->second;
      if (!ready.failed) {
        if (emitted_++ > 0) {
          (*write_)(",");
        }
        (*write_)(ready.element);
        summaries_.push_back(std::move(ready.summary));
      }
      parked_.erase(parked_.begin());
      ++next_commit_;
    }
  }

  // Runs one step of seed i's bookkeeping. The first failure stops the
  // campaign: launches, retries and commits cease, the attempts in flight
  // drain, and Run() rethrows it with the seed's context.
  template <typename Step>
  void Guarded(int i, Step step) {
    try {
      step();
    } catch (const std::exception& e) {
      if (!error_) {
        error_ = std::make_exception_ptr(std::runtime_error(
            spec_.label + ", seed index " + std::to_string(i) + ": " + e.what()));
      }
    }
  }

  void NoteSeedDone() {
    if (spec_.seeds_done != nullptr) {
      spec_.seeds_done->fetch_add(1, std::memory_order_relaxed);
    }
  }

  const CampaignEngineSpec& spec_;
  const int workers_;
  const int window_;
  SeedSupervisor supervisor_;
  CampaignJournal journal_;
  std::map<int, JournalEntry> resumed_;
  // Shared with every attempt thread, which may outlive this object.
  const std::shared_ptr<const SeedFn> run_seed_;
  const std::shared_ptr<Mailbox> mailbox_ = std::make_shared<Mailbox>();
  const std::function<void(std::string_view)>* write_ = nullptr;  // set during Run()
  std::map<int, InFlight> running_;
  std::map<int, SeedOutcome> parked_;
  int next_launch_ = 0;
  int next_commit_ = 0;
  int emitted_ = 0;
  std::vector<std::vector<double>> summaries_;
  std::vector<FailedRun> failures_;
  std::exception_ptr error_;
};

// Reports a graceful interrupt (stderr note + kExitInterrupted) and where to
// point the user.
int FinishInterrupted(const CampaignEngineSpec& spec, int processed) {
  const std::string& path = spec.resume_path.empty() ? spec.journal_path : spec.resume_path;
  const std::string hint = path.empty()
                               ? "; rerun with --journal FILE to make campaigns resumable"
                               : "; resume with --resume " + path;
  std::fprintf(stderr, "note: campaign interrupted after %d of %d seeds%s\n", processed,
               spec.seeds, hint.c_str());
  return kExitInterrupted;
}

// Exit code for a campaign that ran to completion: any I/O error wins, then
// quarantined seeds map to the distinct completed-with-failures code.
int FinishCompleted(OutputSink* sink, const std::vector<FailedRun>& failures) {
  const int io = sink->Finish();
  if (io != kExitOk) {
    return io;
  }
  return failures.empty() ? kExitOk : kExitQuarantine;
}

// The document up to its open "runs" array. The default layout carries the
// aggregate block here (`summaries` non-null); --stream cannot, since it
// writes the head before any seed has run.
std::string DocumentHead(const CampaignEngineSpec& spec,
                         const std::vector<std::vector<double>>* summaries) {
  JsonWriter head;
  head.BeginObject();
  spec.header_fields(&head);
  if (summaries != nullptr) {
    spec.aggregates(&head, *summaries);
  }
  head.Key("runs");
  head.BeginArray();
  return head.Take();
}

// The one campaign pipeline. The Coordinator runs seeds under the harness
// and emits finished elements in seed order, either straight to the sink
// behind the document head (--stream, for live consumption: the aggregate
// block then trails the runs array) or into a RunsSpill that follows the
// head and aggregate block once every seed is in (default layout). Both
// layouts carry the same runs and aggregate values.
int RunPipeline(const CampaignEngineSpec& spec) {
  const int seeds = spec.seeds;
  const int workers = std::max(1, std::min(spec.jobs, seeds));
  Coordinator coordinator(spec, workers);
  OutputSink sink(spec.out_path, spec.capture);
  if (!sink.ok()) {
    return sink.Finish();  // fail fast: --out unwritable, nothing simulated
  }
  std::optional<RunsSpill> spill;
  if (spec.stream) {
    sink.Write(DocumentHead(spec, nullptr));
  } else {
    spill.emplace();
    if (!spill->ok()) {
      std::fprintf(stderr, "error: could not create campaign spill file\n");
      return kExitIoError;
    }
  }

  coordinator.Run([&](std::string_view text) {
    if (spill) {
      spill->Write(text);
      // Thrown from the coordinator's commit, so launching stops now instead
      // of after the remaining seeds ran.
      if (!spill->ok()) {
        throw std::runtime_error("campaign spill write failed");
      }
    } else {
      sink.Write(text);
    }
  });

  // Aggregates fold over exactly the seeds that made it into the runs array.
  const int committed = coordinator.committed();
  const bool interrupted = coordinator.stop_requested() && committed < seeds;
  const std::vector<std::vector<double>> summaries = coordinator.TakeSummaries();
  const std::vector<FailedRun> failures = coordinator.TakeFailures();
  if (spill) {
    if (interrupted) {
      // Nothing merged: the journal, not a half-document, is the restart
      // artifact.
      return FinishInterrupted(spec, committed);
    }
    sink.Write(DocumentHead(spec, &summaries));
    if (!spill->CopyTo(&sink)) {
      std::fprintf(stderr, "error: campaign spill read failed\n");
      return kExitIoError;
    }
  }
  // --stream closes a valid document even when interrupted.
  sink.Write("\n  ]");
  if (!failures.empty()) {
    sink.Write(RenderFailedRuns(failures));
  }
  if (!spill) {
    JsonWriter tail(/*depth=*/1, /*need_comma=*/true);
    spec.aggregates(&tail, summaries);
    sink.Write(tail.Take());
  }
  sink.Write("\n}\n");
  if (interrupted) {
    sink.Finish();
    return FinishInterrupted(spec, committed);
  }
  return FinishCompleted(&sink, failures);
}

}  // namespace

int RunCampaignEngine(const CampaignEngineSpec& spec, std::string* setup_error) {
  try {
    return RunPipeline(spec);
  } catch (const EngineSetupError& e) {
    if (setup_error != nullptr) {
      *setup_error = e.what();
    } else {
      std::fprintf(stderr, "error: %s\n", e.what());
    }
    return kExitUsage;
  }
}

}  // namespace byterobust
