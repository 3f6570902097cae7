// byterobust: the campaign CLI for the ByteRobust reproduction.
//
// Subcommands:
//   run          run one named scenario for one seed, emit a JSON summary
//   campaign     run a scenario across N seeds, emit per-seed + aggregate JSON
//   fleet        run a named multi-job fleet scenario across N seeds
//   serve        host campaigns as a service on a local socket (src/serve)
//   request      send one request line to a serve daemon and print the reply
//   bench-report emit the restart-cost / WAS model as JSON across scales
//   list         list the named scenarios (single-job and fleet)
//
//   ./build/tools/byterobust run --preset quickstart --seed 2024
//   ./build/tools/byterobust campaign --scenario gpu-fault --seeds 8
//   ./build/tools/byterobust fleet --scenario fleet-contention --seeds 4
//   ./build/tools/byterobust serve --socket /tmp/br.sock --workers 2 --jobs 8
//   ./build/tools/byterobust request --socket /tmp/br.sock
//       --body '{"op":"campaign","scenario":"quickstart","seeds":2}'
//
// The scenario registries and per-seed runners live in src/campaign/
// (scenarios.{h,cc}); the seed-parallel, ordered-commit campaign engine in
// src/campaign/engine.{h,cc}; the serve daemon in src/serve/. `campaign`,
// `fleet` and every serve request share the engine, so output is
// byte-identical across --jobs values, --stream on/off, and CLI vs service.
//
// Campaigns run under the src/harness fault-tolerance layer: every seed is
// supervised (watchdog + deterministic retry/backoff), persistently failing
// seeds are quarantined into a "failed_runs" block instead of aborting the
// campaign, --journal/--resume give crash-safe restartability, and
// SIGINT/SIGTERM drain in-flight seeds before exiting.
//
// Exit codes (src/harness/exit_codes.h): kExitOk 0 success; kExitIoError 1
// I/O or worker error; kExitUsage 2 usage/setup error; kExitQuarantine 20
// campaign completed with quarantined seeds; kExitInterrupted 30 campaign or
// daemon interrupted (signal, deadline or injected stop) after a graceful
// drain; kExitShed 75 a serve request was load-shed.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "src/campaign/engine.h"
#include "src/campaign/json_writer.h"
#include "src/campaign/scenarios.h"
#include "src/common/sim_time.h"
#include "src/harness/exit_codes.h"
#include "src/metrics/report.h"
#include "src/obs/dashboard.h"
#include "src/obs/trace.h"
#include "src/recovery/restart_model.h"
#include "src/recovery/was_model.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"

namespace byterobust {
namespace {

int Emit(JsonWriter* w, const std::string& out_path) {
  std::string text = w->Take();
  text += '\n';
  // SIGPIPE is ignored, so a closed pipe surfaces here as a short write.
  if (std::fwrite(text.data(), 1, text.size(), stdout) != text.size() ||
      std::fflush(stdout) != 0) {
    std::fprintf(stderr, "error: short write on stdout\n");
    return kExitIoError;
  }
  if (!out_path.empty() && !WriteFile(out_path, text)) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return kExitIoError;
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// Graceful shutdown: SIGINT/SIGTERM flip one lock-free flag that the campaign
// engine (and the serve supervision loop) polls — in-flight seeds finish, the
// journal and any partial --stream output are flushed, and the process exits
// kExitInterrupted. A second signal falls through to the default disposition
// (immediate kill). `request` polls no flag, so it keeps the default
// disposition: a signal ends it at once.
// ---------------------------------------------------------------------------
std::atomic<bool> g_signal_stop{false};

void HandleStopSignal(int sig) {
  g_signal_stop.store(true, std::memory_order_release);
  std::signal(sig, SIG_DFL);
}

// Options shared by every subcommand (parsed below).
struct Options {
  // --scenario/--preset, --seed/--base-seed, --seeds, --days, --jobs,
  // --stream, --out, --journal, --resume, --retries and --journal-sync, with
  // the campaign defaults. `run` reads its scenario, seed and days from here,
  // `serve` its --jobs cap, and every subcommand its --out.
  CampaignRequest campaign;
  // Observability side channels (never change output bytes; see src/obs/).
  std::string trace_path;      // --trace: Chrome trace_event JSON span file
  std::string dashboard_path;  // --dashboard: sliding ETTR/MFU series export
  // serve
  std::string socket_path;   // --socket (also used by request)
  int workers = 2;           // --workers: requests executing at once
  int max_queue = 16;        // --max-queue: waiting slots beyond the workers' (0 = none)
  int max_seeds = 4096;      // --max-seeds: per-request seed cap
  std::string pid_file;      // --pid-file
  // request
  std::string body;          // --body: one request line
  std::string body_file;     // --body-file: read the request line from a file
  bool raw = false;          // --raw: print the whole response envelope
  double wait_s = 10.0;      // --wait-s: connect-retry window (daemon starting)
  double timeout_s = 300.0;  // --timeout-s: response wait bound
};

int Usage() {
  std::fprintf(stderr,
               "usage: byterobust <run|campaign|fleet|serve|request|bench-report|list> "
               "[options]\n"
               "\n"
               "  run          --preset NAME   [--seed S] [--days D] [--out FILE]\n"
               "  campaign     --scenario NAME [--seeds N] [--base-seed S] [--days D]\n"
               "               [--jobs N] [--stream] [--out FILE] [--retries N]\n"
               "               [--journal FILE [--journal-sync] | --resume FILE]\n"
               "               [--trace FILE] [--dashboard FILE]\n"
               "  fleet        --scenario NAME [--seeds N] [--base-seed S] [--days D]\n"
               "               [--jobs N] [--stream] [--out FILE] [--retries N]\n"
               "               [--journal FILE [--journal-sync] | --resume FILE]\n"
               "               [--trace FILE] [--dashboard FILE]\n"
               "  serve        --socket PATH   [--workers N] [--jobs N] [--max-queue N]\n"
               "               [--max-seeds N] [--pid-file FILE] [--trace FILE]\n"
               "  request      --socket PATH   (--body JSON | --body-file FILE) [--raw]\n"
               "               [--wait-s S] [--timeout-s S] [--out FILE]\n"
               "  bench-report [--out FILE]\n"
               "  list\n"
               "\n"
               "  --stream emits each seed's JSON as soon as it is next in seed order\n"
               "  (the aggregate block then follows the runs array instead of preceding\n"
               "  it); without it, seeds are committed in order to one temp file that\n"
               "  follows the aggregate block. Memory stays O(--jobs) either way.\n"
               "\n"
               "  --journal FILE appends each committed seed to a crash-safe manifest\n"
               "  (--journal-sync additionally fdatasyncs every record, surviving\n"
               "  machine crashes, not just process crashes); --resume FILE skips the\n"
               "  seeds that manifest already holds and appends the rest, producing\n"
               "  byte-identical merged output. --retries N bounds per-seed retry\n"
               "  attempts (default 2); seeds that still fail are quarantined into a\n"
               "  \"failed_runs\" block (exit 20). SIGINT/SIGTERM drain in-flight\n"
               "  seeds and exit 30. --days D must be in (0, 36500]. Environment:\n"
               "  BYTEROBUST_SEED_TIMEOUT_S pins the per-seed watchdog (seconds, at\n"
               "  most 1e6) and BYTEROBUST_HARNESS_FAULTS injects harness faults.\n"
               "\n"
               "  --trace FILE records Chrome trace_event JSON spans (harness\n"
               "  attempts/retries/watchdog, seed occupancy and commit waits, serve\n"
               "  request lifecycle) viewable in Perfetto or chrome://tracing;\n"
               "  --dashboard FILE exports per-job sliding-window ETTR/MFU series.\n"
               "  Both are side channels: output bytes are identical with or without\n"
               "  them.\n"
               "\n"
               "  serve hosts campaigns as a service: newline-delimited JSON requests\n"
               "  (ops campaign / fleet / status / shutdown) over a local socket, each\n"
               "  run as a supervised campaign. Admission control sheds structured\n"
               "  responses when the queue or seed cap is exceeded; per-request\n"
               "  deadline_s (or a client disconnect) cancels cooperatively into a\n"
               "  valid partial document; SIGTERM drains the daemon and exits 30.\n"
               "  request sends one body and exits with the response's exit_code.\n"
               "\nscenarios:\n");
  for (const ScenarioSpec& s : Specs()) {
    std::fprintf(stderr, "  %-12s %s\n", s.name, s.summary);
  }
  std::fprintf(stderr, "\nfleet scenarios:\n");
  for (const FleetSpec& s : FleetSpecs()) {
    std::fprintf(stderr, "  %-18s %s\n", s.name, s.summary);
  }
  return kExitUsage;
}

bool ParseNumber(const char* flag, const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "error: %s expects a number, got '%s'\n", flag, text);
    return false;
  }
  return true;
}

// A number inside `range`; NaN is out of every range.
bool ParseNumberIn(const char* flag, const char* text, const ExternalRange& range,
                   double* out) {
  if (!ParseNumber(flag, text, out)) {
    return false;
  }
  if (!range.Contains(*out)) {
    std::fprintf(stderr, "error: %s must be in %s\n", flag, range.text);
    return false;
  }
  return true;
}

// Ranges of the serve and request flags. --wait-s / --timeout-s share the
// per-seed watchdog's 1e6 s cap (BYTEROBUST_SEED_TIMEOUT_S), which keeps them
// finite and inside the socket timeout's time_t.
constexpr ExternalRange kWorkersRange{1.0, 64.0, "[1, 64]"};
constexpr ExternalRange kMaxQueueRange{0.0, 1024.0, "[0, 1024]"};
constexpr ExternalRange kClientSecondsRange{0.0, 1e6, "[0, 1e6]"};

// Which flags each subcommand accepts; anything else is rejected so a typo'd
// or misplaced flag (e.g. `run --seeds 8`) fails loudly instead of being
// silently ignored.
bool FlagAllowed(const std::string& command, const std::string& flag) {
  if (flag == "--out") {
    return true;
  }
  if (command == "run") {
    return flag == "--preset" || flag == "--scenario" || flag == "--seed" ||
           flag == "--days";
  }
  if (command == "campaign" || command == "fleet") {
    return flag == "--preset" || flag == "--scenario" || flag == "--seed" ||
           flag == "--base-seed" || flag == "--seeds" || flag == "--days" ||
           flag == "--jobs" || flag == "--stream" || flag == "--journal" ||
           flag == "--resume" || flag == "--retries" || flag == "--journal-sync" ||
           flag == "--trace" || flag == "--dashboard";
  }
  if (command == "serve") {
    return flag == "--socket" || flag == "--workers" || flag == "--jobs" ||
           flag == "--max-queue" || flag == "--max-seeds" || flag == "--pid-file" ||
           flag == "--trace";
  }
  if (command == "request") {
    return flag == "--socket" || flag == "--body" || flag == "--body-file" ||
           flag == "--raw" || flag == "--wait-s" || flag == "--timeout-s";
  }
  return false;  // bench-report / list take only --out
}

bool ParseOptions(const std::string& command, int argc, char** argv, Options* opts) {
  CampaignRequest& c = opts->campaign;
  c.command = command;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* flag = arg.c_str();
    const bool has_value = i + 1 < argc;
    double value = 0.0;
    if (arg.rfind("--", 0) == 0 && !FlagAllowed(command, arg)) {
      std::fprintf(stderr, "error: option '%s' is not valid for '%s'\n", flag,
                   command.c_str());
      return false;
    }
    if ((arg == "--preset" || arg == "--scenario") && has_value) {
      c.scenario = argv[++i];
    } else if ((arg == "--seed" || arg == "--base-seed") && has_value) {
      if (!ParseNumberIn(flag, argv[++i], kExternalBaseSeed, &value)) {
        return false;
      }
      c.base_seed = static_cast<std::uint64_t>(value);
    } else if (arg == "--seeds" && has_value) {
      if (!ParseNumberIn(flag, argv[++i], kExternalSeeds, &value)) {
        return false;
      }
      c.seeds = static_cast<int>(value);
    } else if (arg == "--jobs" && has_value) {
      if (!ParseNumberIn(flag, argv[++i], kExternalJobs, &value)) {
        return false;
      }
      c.jobs = static_cast<int>(value);
    } else if (arg == "--days" && has_value) {
      if (!ParseNumber(flag, argv[++i], &value)) {
        return false;
      }
      if (!(value > 0.0 && value <= kMaxExternalDays)) {  // also rejects NaN
        std::fprintf(stderr, "error: --days must be in (0, 36500]\n");
        return false;
      }
      c.days = value;
    } else if (arg == "--stream") {
      c.stream = true;
    } else if (arg == "--out" && has_value) {
      c.out_path = argv[++i];
    } else if (arg == "--journal" && has_value) {
      c.journal_path = argv[++i];
    } else if (arg == "--resume" && has_value) {
      c.resume_path = argv[++i];
    } else if (arg == "--journal-sync") {
      c.journal_sync = true;
    } else if (arg == "--retries" && has_value) {
      if (!ParseNumberIn(flag, argv[++i], kExternalRetries, &value)) {
        return false;
      }
      c.retries = static_cast<int>(value);
    } else if (arg == "--socket" && has_value) {
      opts->socket_path = argv[++i];
    } else if (arg == "--workers" && has_value) {
      if (!ParseNumberIn(flag, argv[++i], kWorkersRange, &value)) {
        return false;
      }
      opts->workers = static_cast<int>(value);
    } else if (arg == "--max-queue" && has_value) {
      if (!ParseNumberIn(flag, argv[++i], kMaxQueueRange, &value)) {
        return false;
      }
      opts->max_queue = static_cast<int>(value);
    } else if (arg == "--max-seeds" && has_value) {
      if (!ParseNumberIn(flag, argv[++i], kExternalSeeds, &value)) {
        return false;
      }
      opts->max_seeds = static_cast<int>(value);
    } else if (arg == "--pid-file" && has_value) {
      opts->pid_file = argv[++i];
    } else if (arg == "--trace" && has_value) {
      opts->trace_path = argv[++i];
    } else if (arg == "--dashboard" && has_value) {
      opts->dashboard_path = argv[++i];
    } else if (arg == "--body" && has_value) {
      opts->body = argv[++i];
    } else if (arg == "--body-file" && has_value) {
      opts->body_file = argv[++i];
    } else if (arg == "--raw") {
      opts->raw = true;
    } else if ((arg == "--wait-s" || arg == "--timeout-s") && has_value) {
      if (!ParseNumberIn(flag, argv[++i], kClientSecondsRange, &value)) {
        return false;
      }
      (arg == "--wait-s" ? opts->wait_s : opts->timeout_s) = value;
    } else {
      std::fprintf(stderr, "error: unknown or incomplete option '%s'\n", flag);
      return false;
    }
  }
  if (!c.journal_path.empty() && !c.resume_path.empty()) {
    std::fprintf(stderr,
                 "error: --journal and --resume are mutually exclusive "
                 "(--resume already appends to the journal it resumes)\n");
    return false;
  }
  return true;
}

int CmdRun(const Options& opts) {
  const CampaignRequest& c = opts.campaign;
  const ScenarioSpec* spec = FindSpec(c.scenario);
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown scenario '%s' (try: byterobust list)\n",
                 c.scenario.c_str());
    return kExitUsage;
  }
  const double days = c.days > 0.0 ? c.days : spec->default_days;
  const RunResult r = RunOne(*spec, days, c.base_seed);
  JsonWriter w;
  w.BeginObject();
  w.Field("tool", "byterobust");
  w.Field("command", "run");
  w.Key("result");
  WriteRun(&w, r);
  w.EndObject();
  return Emit(&w, opts.campaign.out_path);
}

// campaign / fleet: one shared body, differing only in the registry the
// request's command resolves against (src/campaign/scenarios.cc).
int RunCampaignCommand(const Options& opts) {
  CampaignEngineSpec engine;
  std::string error;
  if (!BuildCampaignEngineSpec(opts.campaign, &engine, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitUsage;
  }
  engine.external_stop = &g_signal_stop;
  if (!opts.dashboard_path.empty()) {
    obs::EnableDashboard();
  }
  int code = RunCampaignEngine(engine);
  if (!opts.dashboard_path.empty()) {
    // Written after the campaign document is complete, like --out; a
    // dashboard I/O failure taints an otherwise-clean exit but never masks
    // a more specific engine code.
    if (!obs::WriteDashboard(opts.dashboard_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      if (code == kExitOk) {
        code = kExitIoError;
      }
    }
  }
  return code;
}

int CmdServe(const Options& opts) {
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "error: serve requires --socket PATH\n");
    return kExitUsage;
  }
  ServeOptions sopts;
  sopts.socket_path = opts.socket_path;
  sopts.workers = opts.workers;
  sopts.jobs = opts.campaign.jobs;
  sopts.max_queue = opts.max_queue;
  sopts.max_seeds = opts.max_seeds;
  ServeDaemon daemon(sopts);
  std::string error;
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitIoError;
  }
  if (!opts.pid_file.empty()) {
    std::FILE* f = std::fopen(opts.pid_file.c_str(), "wb");
    if (f == nullptr || std::fprintf(f, "%d\n", static_cast<int>(getpid())) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "error: could not write pid file %s\n",
                   opts.pid_file.c_str());
      daemon.Drain();
      return kExitIoError;
    }
  }
  std::fprintf(stderr,
               "note: byterobust serve listening on %s "
               "(workers=%d, jobs<=%d, queue<=%d, seeds<=%d)\n",
               opts.socket_path.c_str(), std::max(1, opts.workers), opts.campaign.jobs,
               opts.max_queue, opts.max_seeds);
  return daemon.RunUntilStopped(&g_signal_stop);
}

int CmdRequest(const Options& opts) {
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "error: request requires --socket PATH\n");
    return kExitUsage;
  }
  if (!opts.body.empty() && !opts.body_file.empty()) {
    std::fprintf(stderr, "error: --body and --body-file are mutually exclusive\n");
    return kExitUsage;
  }
  std::string body = opts.body;
  if (!opts.body_file.empty()) {
    std::FILE* f = std::fopen(opts.body_file.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: could not read %s\n", opts.body_file.c_str());
      return kExitIoError;
    }
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      body.append(chunk, n);
    }
    std::fclose(f);
    while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
      body.pop_back();
    }
  }
  if (body.empty()) {
    std::fprintf(stderr, "error: request requires --body JSON or --body-file FILE\n");
    return kExitUsage;
  }
  std::string response;
  std::string error;
  if (!ServeRoundtrip(opts.socket_path, body, opts.wait_s, opts.timeout_s, &response,
                      &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitIoError;
  }
  long exit_code = kExitIoError;
  if (!ExtractJsonIntField(response, "exit_code", &exit_code)) {
    std::fprintf(stderr, "error: response carries no exit_code: %s\n", response.c_str());
    return kExitIoError;
  }
  std::string text;
  std::string decoded;
  if (!opts.raw && ExtractJsonStringField(response, "body", &decoded)) {
    text = decoded;  // the campaign document, byte-identical to CLI --stream
  } else {
    text = response + "\n";  // envelope (status/shed/error, or --raw)
  }
  if (std::fwrite(text.data(), 1, text.size(), stdout) != text.size() ||
      std::fflush(stdout) != 0) {
    std::fprintf(stderr, "error: short write on stdout\n");
    return kExitIoError;
  }
  const std::string& out_path = opts.campaign.out_path;
  if (!out_path.empty() && !WriteFile(out_path, text)) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return kExitIoError;
  }
  if (exit_code != kExitOk) {
    std::string status;
    std::string message;
    ExtractJsonStringField(response, "status", &status);
    if (!ExtractJsonStringField(response, "error", &message)) {
      message = "see response";
    }
    std::fprintf(stderr, "note: serve response status=%s (%s)\n",
                 status.empty() ? "?" : status.c_str(), message.c_str());
  }
  return static_cast<int>(exit_code);
}

int CmdBenchReport(const Options& opts) {
  const RestartCostModel model;
  JsonWriter w;
  w.BeginObject();
  w.Field("tool", "byterobust");
  w.Field("command", "bench-report");
  w.Key("restart_cost_model");
  w.BeginArray();
  for (int machines : {128, 256, 512, 1024}) {
    const WasEstimate est = EstimateWas(machines);
    w.BeginObject();
    w.Field("machines", machines);
    w.Field("requeue_s", ToSeconds(model.RequeueTime(machines)));
    w.Field("reschedule_1_s", ToSeconds(model.RescheduleTime(machines, 1)));
    w.Field("standby_wake_1_s", ToSeconds(model.StandbyWakeTime(1)));
    w.Field("hot_update_s", ToSeconds(model.HotUpdateTime(machines)));
    w.Field("p99_evictions", est.p99_evictions);
    w.Field("was_byterobust_s", est.byterobust_s);
    w.Field("was_requeue_s", est.requeue_s);
    w.Field("was_reschedule_s", est.reschedule_s);
    w.Field("was_oracle_s", est.oracle_s);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Emit(&w, opts.campaign.out_path);
}

int CmdList(const Options& opts) {
  JsonWriter w;
  w.BeginObject();
  w.Field("tool", "byterobust");
  w.Field("command", "list");
  w.Key("scenarios");
  w.BeginArray();
  for (const ScenarioSpec& s : Specs()) {
    w.BeginObject();
    w.Field("name", s.name);
    w.Field("summary", s.summary);
    w.Field("targeted", s.targeted);
    w.Field("default_days", s.default_days);
    w.EndObject();
  }
  w.EndArray();
  w.Key("fleet_scenarios");
  w.BeginArray();
  for (const FleetSpec& s : FleetSpecs()) {
    w.BeginObject();
    w.Field("name", s.name);
    w.Field("summary", s.summary);
    w.Field("default_days", s.default_days);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Emit(&w, opts.campaign.out_path);
}

int Main(int argc, char** argv) {
  // A reader hanging up must surface as a short write (checked at every
  // sink), not a SIGPIPE kill mid-campaign; SIGINT/SIGTERM drain gracefully.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command != "request") {
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
  }
  Options opts;
  if (!ParseOptions(command, argc - 2, argv + 2, &opts)) {
    return Usage();
  }
  // Tracing starts before the command and stops after it, so a graceful
  // SIGTERM drain still closes the trace file properly.
  if (!opts.trace_path.empty()) {
    std::string trace_error;
    if (!obs::StartTrace(opts.trace_path, &trace_error)) {
      std::fprintf(stderr, "error: %s\n", trace_error.c_str());
      return kExitIoError;
    }
  }
  int code = kExitUsage;
  if (command == "run") {
    code = CmdRun(opts);
  } else if (command == "campaign" || command == "fleet") {
    code = RunCampaignCommand(opts);
  } else if (command == "serve") {
    code = CmdServe(opts);
  } else if (command == "request") {
    code = CmdRequest(opts);
  } else if (command == "bench-report") {
    code = CmdBenchReport(opts);
  } else if (command == "list") {
    code = CmdList(opts);
  } else {
    code = Usage();
  }
  obs::StopTrace();
  return code;
}

}  // namespace
}  // namespace byterobust

int main(int argc, char** argv) {
  // Single exit funnel: campaign engine exceptions (already wrapped with
  // campaign/seed context) print exactly once.
  try {
    return byterobust::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return byterobust::kExitIoError;
  }
}
