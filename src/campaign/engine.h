// Campaign engine: the seed-parallel, ordered-commit pipeline shared by the
// `campaign` and `fleet` CLI subcommands and by the `serve` daemon. The
// thread that calls RunCampaignEngine coordinates the campaign; every seed
// attempt runs on a fresh thread of its own, at most `jobs` at once. It is generic over the per-seed runner (one RunResult per seed, or
// a whole multi-job fleet per seed) and over the output target (stdout/--out
// for the CLI, an in-memory capture string for serve responses). Output is
// byte-identical for the same request across --jobs values and across an
// interrupt + journal resume; the default and --stream layouts carry the same
// runs and aggregate values. tests/golden/ pins the bytes of both layouts.
//
// Campaigns run under the src/harness fault-tolerance layer: every seed is
// supervised (watchdog + deterministic retry/backoff; a seed that does not
// return by the end of the cancel grace is abandoned), persistently failing
// seeds are quarantined into a "failed_runs" block instead of aborting the
// campaign, journal/resume give crash-safe restartability, and a cooperative
// stop (signal, serve deadline or client disconnect) drains in-flight seeds
// before exiting with kExitInterrupted.

#ifndef SRC_CAMPAIGN_ENGINE_H_
#define SRC_CAMPAIGN_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/campaign/json_writer.h"
#include "src/harness/journal.h"

namespace byterobust {

// What one seed contributes to the document: its rendered "runs" array
// element (depth 2, byte-identical to the same element written inline by a
// full-document writer) and the numbers the aggregate block consumes, in a
// fixed per-command order.
struct SeedOutcome {
  std::string element;
  std::vector<double> summary;
  bool failed = false;  // quarantined: no element, no summary slot
};

struct CampaignEngineSpec {
  int seeds = 0;
  int jobs = 1;
  bool stream = false;         // --stream: runs emitted as committed, aggregates trail
  std::string out_path;
  std::string label;           // "campaign:dense" etc — exception context
  CampaignIdentity identity;   // what --journal records / --resume verifies
  std::string journal_path;    // --journal: record committed seeds here
  std::string resume_path;     // --resume: skip seeds already journaled here
  int retries_override = -1;   // --retries; < 0 keeps the default (2)
  bool journal_sync = false;   // --journal-sync: fdatasync per committed record
  // Cooperative stop flag (the CLI's signal flag, or a serve request's cancel
  // flag): when it flips, no further seed is launched, in-flight seeds drain,
  // and the engine exits kExitInterrupted. May be null (never stops).
  std::atomic<bool>* external_stop = nullptr;
  // When set, the document is appended here instead of being written to
  // stdout (serve responses). --out still works alongside.
  std::string* capture = nullptr;
  // Optional progress gauge: incremented once per seed processed (resumed,
  // committed or quarantined). Serve uses it for in-flight accounting and the
  // partial-response seed count.
  std::atomic<int>* seeds_done = nullptr;
  // Runs seed index i. Each attempt calls it on its own thread, up to `jobs`
  // at once, so a run must bind only thread-local / run-local state. The
  // engine keeps a copy alive for attempts it abandons: whatever the
  // function captures must stay valid until such an attempt returns.
  std::function<SeedOutcome(int)> run_seed;
  std::function<void(JsonWriter*)> header_fields;
  std::function<void(JsonWriter*, const std::vector<std::vector<double>>&)> aggregates;
};

// A setup-stage problem (bad env knob, unreadable or mismatched journal):
// reported before any seed starts, exit code kExitUsage.
class EngineSetupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// One quarantined seed, rendered into the document's "failed_runs" block.
struct FailedRun {
  int index = 0;
  std::uint64_t seed = 0;
  int attempts = 0;
  bool timed_out = false;
  std::string error;
};

struct Aggregate {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

void WriteAggregate(JsonWriter* w, const std::string& key, const Aggregate& a);

// Seed-order fold over one summary slot, shared by every command's
// aggregate block in both layouts.
Aggregate FoldAggregateAt(const std::vector<std::vector<double>>& summaries, std::size_t slot);

// How far past the oldest uncommitted seed the engine may launch, per job.
// This caps the finished-but-uncommitted elements held in memory at 16 per
// job whatever --seeds is: a straggler seed (a slow draw, a watchdog retry)
// stalls new launches instead of letting the rest pile up behind it.
inline constexpr int kCommitWindowPerWorker = 16;

// Runs the campaign and returns the process exit code (src/harness/
// exit_codes.h). A setup-stage failure returns kExitUsage: the message goes
// to *setup_error when non-null, to stderr otherwise. A commit failure
// (journal append, spill write), wrapped with campaign and seed context,
// propagates to the caller once every attempt still in flight has been
// joined or abandoned.
int RunCampaignEngine(const CampaignEngineSpec& spec, std::string* setup_error = nullptr);

}  // namespace byterobust

#endif  // SRC_CAMPAIGN_ENGINE_H_
