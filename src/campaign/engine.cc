#include "src/campaign/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/harness/exit_codes.h"
#include "src/harness/supervisor.h"
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

// ---------------------------------------------------------------------------
// Worker-pool plumbing. All cross-thread mutable state lives in the small
// classes below with BR_GUARDED_BY-annotated members, so the clang
// `-Wthread-safety` CI job statically proves every access holds the right
// lock. (Annotations only attach to members and globals — lambda-captured
// locals are invisible to the analysis — which is why this state is hoisted
// out of the engine function.)
// ---------------------------------------------------------------------------

// First-failure latch for a worker pool: the first captured exception wins,
// and failed() flips so the other workers stop claiming seeds.
class FailureLatch {
 public:
  // Records an exception (usually std::current_exception(), or one re-wrapped
  // with seed/worker context); the first capture wins.
  void Capture(std::exception_ptr error) {
    failed_.store(true, std::memory_order_relaxed);
    const MutexLock lock(&mu_);
    if (!first_error_) {
      first_error_ = std::move(error);
    }
  }

  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  // Rethrows the first captured exception, if any. Call after the pool joined.
  void RethrowIfFailed() {
    std::exception_ptr error;
    {
      const MutexLock lock(&mu_);
      error = first_error_;
    }
    if (error) {
      std::rethrow_exception(error);
    }
  }

 private:
  Mutex mu_;
  std::atomic<bool> failed_{false};
  std::exception_ptr first_error_ BR_GUARDED_BY(mu_);
};

// Seed-ordered commit without a dedicated committer thread. Workers finish
// seeds out of order and hand each outcome to Commit(); whichever worker
// completes the oldest uncommitted seed writes it — and every consecutive
// successor already parked — through `write`, so elements leave in seed
// order. Summaries of committed, non-quarantined seeds collect in the same
// order for the aggregate fold.
class OrderedCommitter {
 public:
  OrderedCommitter(int window, std::function<void(std::string_view)> write)
      : window_(window), write_(std::move(write)) {}

  // Blocks while seed `index` lies beyond the commit window. Returns false
  // when the claim should be dropped instead: `abandon()` (a latched failure
  // or a requested stop) holds. `abandon()` flips outside mu_ (a signal,
  // another worker's exception), yet no waiter sleeps through it: the oldest
  // uncommitted seed always belongs to a worker that is not waiting, and
  // that worker's next Commit() or Wake() notifies.
  bool AwaitTurn(int index, const std::function<bool()>& abandon) {
    const MutexLock lock(&mu_);
    if (index >= next_ + window_ && !abandon()) {
      // How long this worker idled for the ordered commit to catch up.
      const obs::ScopedSpan wait_span("commit_wait", "campaign", index);
      while (index >= next_ + window_ && !abandon()) {
        cv_.Wait(&mu_);
      }
    }
    return !abandon();
  }

  void Commit(int index, SeedOutcome outcome) {
    {
      const MutexLock lock(&mu_);
      parked_.emplace(index, std::move(outcome));
      while (!parked_.empty() && parked_.begin()->first == next_) {
        SeedOutcome& ready = parked_.begin()->second;
        // Quarantined seeds advance the order without emitting an element.
        if (!ready.failed) {
          if (emitted_++ > 0) {
            write_(",");
          }
          write_(ready.element);
          summaries_.push_back(std::move(ready.summary));
        }
        parked_.erase(parked_.begin());
        ++next_;
      }
    }
    cv_.NotifyAll();
  }

  // Wakes every worker blocked in AwaitTurn so it re-checks `abandon()`. A
  // worker calls this when it stops claiming: the seed it dropped (or failed)
  // may be the one the blocked workers wait on. Acquiring mu_ (even briefly)
  // orders the notification after a waiter's condition check: either the
  // waiter already saw the new state, or it has released mu_ inside
  // cv_.Wait() and the NotifyAll cannot be lost.
  void Wake() {
    { const MutexLock lock(&mu_); }
    cv_.NotifyAll();
  }

  // Seeds committed so far, a prefix of the seed order.
  int committed() const {
    const MutexLock lock(&mu_);
    return next_;
  }

  // Committed seeds' summaries in seed order. Call after the pool joins.
  std::vector<std::vector<double>> TakeSummaries() {
    const MutexLock lock(&mu_);
    return std::move(summaries_);
  }

 private:
  const int window_;
  const std::function<void(std::string_view)> write_;
  mutable Mutex mu_;
  CondVar cv_;
  int next_ BR_GUARDED_BY(mu_) = 0;
  int emitted_ BR_GUARDED_BY(mu_) = 0;
  std::map<int, SeedOutcome> parked_ BR_GUARDED_BY(mu_);
  std::vector<std::vector<double>> summaries_ BR_GUARDED_BY(mu_);
};

// Runs `body(worker_index)` on `workers` threads — the calling thread doubles
// as worker 0 — and joins them all.
void RunWorkerPool(int workers, const std::function<void(int)>& body) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 1; t < workers; ++t) {
    pool.emplace_back(body, t);
  }
  body(0);
  for (std::thread& t : pool) {
    t.join();
  }
}

// Incremental output: everything goes to stdout — or the spec's capture
// string — and (optionally) to --out, written as produced instead of
// accumulated in one string. Construct — and check ok() — BEFORE spawning
// workers, so an unwritable --out fails fast instead of after minutes of
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
// CampaignHarness: the per-seed fault-tolerance wrapper around spec.run_seed.
// RunSeed(i) short-circuits seeds already committed in a --resume journal,
// runs fresh seeds under the SeedSupervisor (watchdog, deterministic
// retry/backoff, self-fault-injection), journals each success, and converts
// persistent failures into quarantine outcomes instead of exceptions.
// Thread-safe: workers call RunSeed concurrently.
// ---------------------------------------------------------------------------
class CampaignHarness {
 public:
  explicit CampaignHarness(const CampaignEngineSpec& spec) : spec_(spec) {
    SupervisorConfig config;
    std::string error;
    if (!SupervisorConfig::FromEnv(spec.identity.base_seed, &config, &error)) {
      throw EngineSetupError(error);
    }
    if (spec.retries_override >= 0) {
      config.max_attempts = 1 + spec.retries_override;
    }
    config.external_stop = spec.external_stop;
    supervisor_.emplace(config);
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

  SeedOutcome RunSeed(int i) {
    // resumed_ is read-only after construction — safe without a lock.
    const auto it = resumed_.find(i);
    if (it != resumed_.end()) {
      NoteSeedDone();
      return SeedOutcome{it->second.element, it->second.summary, false};
    }
    SeedOutcome outcome;
    SeedFailure failure;
    const std::function<SeedOutcome(const CancelToken&)> attempt =
        [this, i](const CancelToken&) { return spec_.run_seed(i); };
    if (supervisor_->Supervise<SeedOutcome>(i, attempt, &outcome, &failure)) {
      if (journal_.open()) {
        static obs::Counter* const commit_counter =
            obs::GlobalMetrics().GetCounter("harness.journal_commits");
        commit_counter->Add();
        const obs::ScopedSpan commit_span("journal_commit", "harness", i);
        if (!journal_.Append({i, outcome.summary, outcome.element})) {
          throw std::runtime_error("journal append failed for seed index " +
                                   std::to_string(i));
        }
      }
      supervisor_->NoteCommitted();
      NoteSeedDone();
      return outcome;
    }
    {
      const MutexLock lock(&mu_);
      failures_.push_back({i,
                           spec_.identity.base_seed + static_cast<std::uint64_t>(i),
                           failure.attempts, failure.timed_out, failure.error});
    }
    outcome.element.clear();
    outcome.summary.clear();
    outcome.failed = true;
    NoteSeedDone();
    return outcome;
  }

  bool stop_requested() const { return supervisor_->stop_requested(); }

  // Quarantined seeds in index order. Call after the pool joins.
  std::vector<FailedRun> failures() const {
    const MutexLock lock(&mu_);
    std::vector<FailedRun> sorted = failures_;
    std::sort(sorted.begin(), sorted.end(),
              [](const FailedRun& a, const FailedRun& b) { return a.index < b.index; });
    return sorted;
  }

  // Where to point the user when a run was interrupted mid-campaign.
  std::string ResumeHint() const {
    const std::string& path =
        spec_.resume_path.empty() ? spec_.journal_path : spec_.resume_path;
    if (path.empty()) {
      return "; rerun with --journal FILE to make campaigns resumable";
    }
    return "; resume with --resume " + path;
  }

 private:
  void NoteSeedDone() {
    if (spec_.seeds_done != nullptr) {
      spec_.seeds_done->fetch_add(1, std::memory_order_relaxed);
    }
  }

  const CampaignEngineSpec& spec_;
  std::optional<SeedSupervisor> supervisor_;
  CampaignJournal journal_;
  std::map<int, JournalEntry> resumed_;
  mutable Mutex mu_;
  std::vector<FailedRun> failures_ BR_GUARDED_BY(mu_);
};

// Reports a graceful interrupt (stderr note + kExitInterrupted).
int FinishInterrupted(const CampaignHarness& harness, int processed, int seeds) {
  std::fprintf(stderr, "note: campaign interrupted after %d of %d seeds%s\n",
               processed, seeds, harness.ResumeHint().c_str());
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

// The one campaign pipeline. Workers claim seeds in order and run them under
// the harness; the OrderedCommitter emits finished elements in seed order,
// either straight to the sink behind the document head (--stream, for live
// consumption: the aggregate block then trails the runs array) or into a
// RunsSpill that follows the head and aggregate block once every seed is in
// (default layout). Both layouts carry the same runs and aggregate values.
int RunPipeline(const CampaignEngineSpec& spec) {
  const int seeds = spec.seeds;
  const int workers = std::max(1, std::min(spec.jobs, seeds));
  CampaignHarness harness(spec);
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

  OrderedCommitter committer(kCommitWindowPerWorker * workers, [&](std::string_view text) {
    if (spill) {
      spill->Write(text);
      // Thrown from inside the committing worker's Commit(), so the latch
      // stops every worker now instead of after the remaining seeds ran.
      if (!spill->ok()) {
        throw std::runtime_error("campaign spill write failed");
      }
    } else {
      sink.Write(text);
    }
  });
  std::atomic<int> next{0};
  FailureLatch latch;
  RunWorkerPool(workers, [&](int w) {
    // Stop claiming once any worker failed, or on a graceful stop (in-flight
    // seeds finish and commit; nothing new starts).
    const std::function<bool()> abandon = [&] {
      return latch.failed() || harness.stop_requested();
    };
    for (int i = next.fetch_add(1); i < seeds; i = next.fetch_add(1)) {
      if (!committer.AwaitTurn(i, abandon)) {
        break;
      }
      try {
        SeedOutcome outcome;
        {
          // Worker-occupancy span: one "seed" interval per claim on this
          // worker's trace track, so idle gaps between seeds are visible.
          // It closes before Commit(), whose ordered writes are not seed work.
          const obs::ScopedSpan seed_span("seed", "campaign", i);
          outcome = harness.RunSeed(i);
        }
        committer.Commit(i, std::move(outcome));
      } catch (const std::exception& e) {
        latch.Capture(std::make_exception_ptr(std::runtime_error(
            spec.label + ", seed index " + std::to_string(i) + ", worker " +
            std::to_string(w) + ": " + e.what())));
        break;
      } catch (...) {
        latch.Capture(std::current_exception());
        break;
      }
    }
    committer.Wake();
  });
  latch.RethrowIfFailed();

  // Aggregates fold over exactly the seeds that made it into the runs array.
  const int committed = committer.committed();
  const bool interrupted = harness.stop_requested() && committed < seeds;
  const std::vector<std::vector<double>> summaries = committer.TakeSummaries();
  const std::vector<FailedRun> failures = harness.failures();
  if (spill) {
    if (interrupted) {
      // Nothing merged: the journal, not a half-document, is the restart
      // artifact.
      return FinishInterrupted(harness, committed, seeds);
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
    return FinishInterrupted(harness, committed, seeds);
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
