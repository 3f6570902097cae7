// The `byterobust serve` daemon: campaigns as a service on a local (unix
// domain) socket, layered on the same fault-bounded campaign engine the CLI
// uses. Robustness layers:
//
//  - every request runs as a supervised campaign (src/harness supervisor:
//    watchdog, deterministic retry/backoff, quarantine into "failed_runs"),
//    so a crashing or hanging seed stays contained inside its request;
//  - admission control: a bounded request queue and a per-request seed cap,
//    with structured load-shed responses when either is exceeded — an
//    overloaded daemon degrades by rejecting crisply, never by dying;
//  - per-request deadlines and cooperative cancel: a request's `deadline_s`
//    or its client hanging up flips that request's stop flag (noticed by the
//    accept loop's scan within one 200 ms tick), in-flight seeds drain, and
//    the client gets a valid partial document;
//  - graceful whole-daemon drain (SIGTERM/SIGINT or {"op":"shutdown"}):
//    stop admitting, cancel-and-finish in-flight requests (journaled
//    requests stay resumable), exit kExitInterrupted.
//
// Threads: one accept thread, and one thread per client connection that
// reads each request line and also runs the request it admits. `workers`
// bounds how many admitted requests execute at once: a connection thread
// waits for a slot in admission (FIFO) order.
//
// Determinism: a response body is a pure function of the request parameters
// — byte-identical across the daemon's --jobs, concurrent client count,
// injected harness faults, and a drain + restart + resume cycle.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/serve/protocol.h"

namespace byterobust {

struct ServeOptions {
  std::string socket_path;
  int workers = 2;          // requests executing at once (the rest wait in FIFO order)
  int jobs = 8;             // per-request seed-worker cap (request jobs is clamped)
  int max_queue = 16;       // waiting slots beyond the workers' before shedding
  int max_seeds = 4096;     // per-request seed cap
  int max_connections = 64; // concurrent client connections before shedding
};

class ServeDaemon {
 public:
  explicit ServeDaemon(const ServeOptions& opts) : opts_(opts) {}
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  // Binds the socket and spawns the accept thread. False + *error if the
  // socket cannot be bound.
  bool Start(std::string* error);

  // Flips draining: admission stops (new campaign requests get a draining
  // shed response) and every queued or executing request's stop flag is set,
  // so in-flight seeds drain and clients get valid partial responses.
  // Idempotent, safe from any thread (including a signal-watching loop).
  void RequestDrain();

  // RequestDrain + join everything + close the socket. Returns
  // kExitInterrupted (the daemon only exits by being asked to stop).
  int Drain();

  // CLI driver: 200ms supervision loop until *signal_stop flips (SIGTERM /
  // SIGINT handler) or a shutdown request arrives, then Drain().
  int RunUntilStopped(const std::atomic<bool>* signal_stop);

  // /healthz snapshot (also served to {"op":"status"} requests).
  ServeStatus Snapshot() const;

 private:
  // One admitted campaign/fleet request, owned by the stack of the connection
  // thread that parsed and runs it. queue_/running_ hold the pointer only
  // while that thread is inside Execute(), and the accept loop's cancel scan
  // reads it under mu_.
  struct PendingRequest {
    PendingRequest(const ServeRequest& r, int client_fd) : request(r), fd(client_fd) {}
    const ServeRequest request;
    const int fd;                      // the client, probed for a hang-up
    std::atomic<bool> stop{false};     // engine external_stop for this request
    std::atomic<int> seeds_done{0};
    double deadline_wall = 0.0;        // > 0: cancel once the wall clock passes it
    // Observability only (never in the response): admission wall time feeds
    // the queue_wait trace span and the request-latency histogram, and the
    // admission ordinal labels this request's trace events.
    double admitted_wall_s = 0.0;
    std::uint64_t admit_ordinal = 0;
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  // Runs one admitted request on the calling connection thread: waits for a
  // slot in admission order, executes, and takes the request off the
  // daemon's books. Returns its response line (result, partial result, or
  // error envelope).
  std::string Execute(PendingRequest* request);
  // Admission decision + enqueue; returns the response to send immediately
  // (shed/draining), or empty when admitted (caller then calls Execute).
  std::string Admit(PendingRequest* request);
  // One accept-loop tick: flips the stop flag of every queued or running
  // request whose deadline passed or whose client hung up.
  void CancelExpiredRequests();
  void ReapConnections(bool join_all);
  // Journal/resume path reservation: two in-flight requests writing (or one
  // writing while another resumes) the same server-side file would truncate
  // and interleave each other's records, silently corrupting the crash-safe
  // journal. Admission reserves a request's paths; completion releases them.
  // Returns the first already-reserved path, or empty when all are free.
  std::string FindBusyRequestPathLocked(const CampaignRequest& req) const
      BR_REQUIRES(mu_);
  void ReserveRequestPathsLocked(const CampaignRequest& req) BR_REQUIRES(mu_);
  void ReleaseRequestPathsLocked(const CampaignRequest& req) BR_REQUIRES(mu_);

  const ServeOptions opts_;
  int listen_fd_ = -1;
  std::atomic<bool> running_flag_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};  // {"op":"shutdown"} arrived
  std::atomic<std::uint64_t> uptime_ticks_{0};

  mutable Mutex mu_;
  CondVar changed_cv_;  // queue_ or running_ changed: a slot may be free
  std::deque<PendingRequest*> queue_ BR_GUARDED_BY(mu_);
  std::vector<PendingRequest*> running_ BR_GUARDED_BY(mu_);
  std::uint64_t admitted_ BR_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ BR_GUARDED_BY(mu_) = 0;
  std::uint64_t shed_ BR_GUARDED_BY(mu_) = 0;
  // Completed with the stop flag already set (deadline/disconnect/drain).
  std::uint64_t cancelled_ BR_GUARDED_BY(mu_) = 0;
  // Admission-to-completion latency. Internally sharded atomics (its own
  // concurrency story, src/obs/metrics.h), so no BR_GUARDED_BY needed.
  obs::LatencyHistogram request_latency_;
  // Journal/resume paths of queued + running requests (see Find/Reserve/
  // ReleaseRequestPathsLocked above).
  std::set<std::string> busy_paths_ BR_GUARDED_BY(mu_);

  // Connection threads: reaped opportunistically on accept, joined on Drain.
  struct ConnSlot {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  mutable Mutex conn_mu_;
  std::list<ConnSlot> conns_ BR_GUARDED_BY(conn_mu_);

  std::thread accept_thread_;
};

}  // namespace byterobust

#endif  // SRC_SERVE_SERVER_H_
