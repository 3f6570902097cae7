// Process exit codes shared by the byterobust CLI, the campaign engine and
// the serve daemon's error -> response mapping. One definition so the CLI
// contract (documented in tools/byterobust_cli.cc and README.md) and the
// serve envelope "exit_code" field cannot drift apart.

#ifndef SRC_HARNESS_EXIT_CODES_H_
#define SRC_HARNESS_EXIT_CODES_H_

namespace byterobust {

// Clean completion.
inline constexpr int kExitOk = 0;

// I/O or worker error: short write on stdout/--out, spill failure, or an
// exception escaping the campaign engine.
inline constexpr int kExitIoError = 1;

// Usage or setup error: bad flags, unknown scenario, bad env knob, or an
// unreadable/mismatched resume journal. Nothing was simulated.
inline constexpr int kExitUsage = 2;

// Campaign completed but one or more seeds exhausted their retries and were
// quarantined into the document's "failed_runs" block.
inline constexpr int kExitQuarantine = 20;

// Campaign (or daemon) interrupted — signal, deadline, client disconnect or
// injected stop — after a graceful drain of in-flight work.
inline constexpr int kExitInterrupted = 30;

// Serve admission control shed the request (queue full or daemon draining):
// nothing ran, retry later. Value follows sysexits.h EX_TEMPFAIL.
inline constexpr int kExitShed = 75;

}  // namespace byterobust

#endif  // SRC_HARNESS_EXIT_CODES_H_
