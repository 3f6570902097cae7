// Wire protocol for the `byterobust serve` campaign service: newline-
// delimited JSON over a local socket. One request line in, one response line
// out; the campaign document itself travels as an escaped string in the
// response's "body" field and is byte-identical to what the CLI's
// `campaign --stream` / `fleet --stream` would print for the same
// parameters — that equivalence is pinned by ctest cli_serve_determinism.
//
// Requests are flat JSON objects (string / number / bool / null values
// only); unknown fields and nested values are rejected so a typo'd request
// fails loudly instead of silently running defaults. Ops:
//
//   {"op":"campaign","scenario":"quickstart","seeds":4,"base_seed":42}
//   {"op":"fleet","scenario":"fleet-mixed","seeds":2,"deadline_s":5.5}
//   {"op":"status"}
//   {"op":"shutdown"}
//
// Responses carry "status" ("ok" | "quarantined" | "interrupted" |
// "rejected" | "shed" | "error") and the matching CLI "exit_code"
// (src/harness/exit_codes.h), so a response maps 1:1 onto what the
// equivalent CLI invocation would have exited with.

#ifndef SRC_SERVE_PROTOCOL_H_
#define SRC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "src/campaign/scenarios.h"

namespace byterobust {

// One parsed request line. The campaign parameters are the CLI's own
// CampaignRequest (same defaults), so a request body is exactly as sparse as
// the equivalent command line. The parser fills scenario, seeds, base_seed,
// days, jobs (capped later by the daemon's --jobs), journal_path ("journal"),
// resume_path ("resume"), retries and journal_sync; the daemon sets command,
// stream and the jobs cap when it runs the request.
struct ServeRequest {
  std::string op;  // "campaign" | "fleet" | "status" | "shutdown"
  CampaignRequest campaign;
  double deadline_s = 0.0;  // > 0: cancel (drain) the request after this long
};

// Strict parse of one request line. On failure fills *error (no "error: "
// prefix) and returns false; *request may be partially filled.
bool ParseServeRequest(const std::string& line, ServeRequest* request, std::string* error);

// JSON string escaping that round-trips arbitrary bytes (the campaign
// document embeds newlines): quotes, backslashes, and every control
// character (\n \t \r \b \f, \u00XX otherwise).
std::string JsonEscapeFull(const std::string& s);

// "ok" | "quarantined" | "interrupted" | "rejected" | "shed" | "error" for
// the given exit code.
const char* ServeStatusLabel(int exit_code);

// Completed campaign/fleet request (possibly partial: deadline or drain).
// `body` is the raw campaign document; `seeds_done` counts seeds processed
// (committed, resumed or quarantined) before the response was cut.
std::string RenderResultResponse(const std::string& op, const std::string& scenario,
                                 int exit_code, int seeds_requested, int seeds_done,
                                 const std::string& body);

// Request that never ran: parse/validation failure (kExitUsage -> "rejected")
// or an internal error (kExitIoError -> "error").
std::string RenderErrorResponse(const std::string& op, const std::string& message,
                                int exit_code);

// Structured load-shed: admission control refused the request (queue full,
// seed cap, or daemon draining). Nothing ran; clients may retry later.
std::string RenderShedResponse(const std::string& op, const std::string& reason,
                               int queue_depth, int max_queue);

// /healthz-style snapshot for {"op":"status"} responses. Per-state request
// accounting: queue_depth (admitted, waiting) + active_requests (executing)
// are the live states; admitted/completed/shed/cancelled are the lifetime
// counters the soak script asserts on. The latency fields summarize the
// daemon's request-latency histogram (src/obs/metrics.h): admission to
// completion, in milliseconds.
struct ServeStatus {
  bool draining = false;
  std::uint64_t uptime_ticks = 0;  // 200ms supervision ticks since Start()
  int queue_depth = 0;             // admitted, not yet executing
  int max_queue = 0;
  int active_requests = 0;         // executing right now
  int inflight_seeds = 0;          // seeds still owed by active requests
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  // Completed requests whose stop flag had flipped first (deadline, client
  // disconnect, or daemon drain) — they still returned a valid partial body.
  std::uint64_t cancelled = 0;
  int workers = 0;
  int max_seeds = 0;
  std::uint64_t latency_count = 0;  // completed requests measured
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
};

std::string RenderStatusResponse(const ServeStatus& status);

// Response-side field extraction for clients (the `request` subcommand,
// tests, the roundtrip bench): minimal, keyed lookups over one response
// line. Return false when the key is absent or not of the asked-for type.
bool ExtractJsonStringField(const std::string& line, const std::string& key,
                            std::string* out);
bool ExtractJsonIntField(const std::string& line, const std::string& key, long* out);

}  // namespace byterobust

#endif  // SRC_SERVE_PROTOCOL_H_
