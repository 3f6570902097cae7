#include "src/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include "src/campaign/engine.h"
#include "src/campaign/scenarios.h"
#include "src/harness/exit_codes.h"
#include "src/harness/wallclock.h"
#include "src/obs/trace.h"

namespace byterobust {
namespace {

// A request line bigger than this is a broken client, not a campaign.
constexpr std::size_t kMaxRequestBytes = 1 << 20;

// Supervision granularity: the accept loop (with its deadline/hang-up
// scan), connection read loops and the CLI driver all poll at this period,
// so drains, deadlines and client hang-ups are noticed within one tick.
constexpr int kTickMs = 200;

bool SendAll(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    // MSG_NOSIGNAL: a vanished client must surface as a send error here,
    // never as a SIGPIPE — the daemon also runs in-process under gtest,
    // where no signal disposition is installed for it.
    const ssize_t n = send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string ShutdownAck() {
  return "{\"tool\":\"byterobust\",\"op\":\"shutdown\",\"status\":\"ok\",\"exit_code\":0}\n";
}

// True when the client on `fd` has gone: an orderly EOF or an abortive
// error (ECONNRESET et al.). Bytes the client pipelined are left unread.
bool ClientHungUp(int fd) {
  char probe;
  const ssize_t peeked = recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  return peeked == 0 ||
         (peeked < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR);
}

// The engine run behind one admitted request: its response line (result,
// partial result, or error envelope).
std::string RunRequest(const ServeRequest& req, int max_jobs, std::atomic<bool>* stop,
                       std::atomic<int>* seeds_done) {
  CampaignRequest creq = req.campaign;
  creq.command = req.op;
  creq.jobs = std::min(creq.jobs, max_jobs);
  // Direct streaming always: a deadline / disconnect / drain mid-request
  // then still yields a valid partial document (closed runs array,
  // failed_runs, aggregates over committed seeds) — and --jobs or partiality
  // never change the bytes of what did commit.
  creq.stream = true;

  CampaignEngineSpec spec;
  std::string error;
  if (!BuildCampaignEngineSpec(creq, &spec, &error)) {
    return RenderErrorResponse(req.op, error, kExitUsage);
  }
  std::string body;
  spec.capture = &body;
  spec.external_stop = stop;
  spec.seeds_done = seeds_done;
  std::string setup_error;
  int code = kExitIoError;
  try {
    code = RunCampaignEngine(spec, &setup_error);
  } catch (const std::exception& e) {
    // A worker-pool failure (already wrapped with campaign/seed/worker
    // context) is this request's failure, not the daemon's.
    return RenderErrorResponse(req.op, e.what(), kExitIoError);
  }
  if (code == kExitUsage) {
    return RenderErrorResponse(
        req.op, setup_error.empty() ? "request setup failed" : setup_error, kExitUsage);
  }
  return RenderResultResponse(req.op, creq.scenario, code, creq.seeds,
                              seeds_done->load(std::memory_order_relaxed), body);
}

}  // namespace

ServeDaemon::~ServeDaemon() {
  if (running_flag_.load(std::memory_order_acquire)) {
    Drain();
  }
}

bool ServeDaemon::Start(std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (opts_.socket_path.empty()) {
    *error = "serve requires a socket path";
    return false;
  }
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path " + opts_.socket_path + " is too long (max " +
             std::to_string(sizeof(addr.sun_path) - 1) + " bytes)";
    return false;
  }
  listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    *error = std::string("could not create socket: ") + std::strerror(errno);
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(), opts_.socket_path.size());
  unlink(opts_.socket_path.c_str());  // a stale socket from a dead daemon
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0) {
    *error = "could not bind " + opts_.socket_path + ": " + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  running_flag_.store(true, std::memory_order_release);
  // The daemon always measures itself ({"op":"status"} serves the latency
  // histogram); response bytes for campaign/fleet ops are unaffected.
  obs::SetMetricsEnabled(true);
  accept_thread_ = std::thread(&ServeDaemon::AcceptLoop, this);
  return true;
}

void ServeDaemon::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  {
    const MutexLock lock(&mu_);
    // Queued and executing requests drain cooperatively: their engines stop
    // claiming seeds, finish in-flight ones, and emit valid partial
    // documents (journaled requests stay resumable after restart).
    for (PendingRequest* p : queue_) {
      p->stop.store(true, std::memory_order_release);
    }
    for (PendingRequest* p : running_) {
      p->stop.store(true, std::memory_order_release);
    }
  }
}

int ServeDaemon::Drain() {
  if (!running_flag_.exchange(false, std::memory_order_acq_rel)) {
    return kExitInterrupted;  // never started, or already drained
  }
  RequestDrain();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Every queued or running request belongs to a connection thread, and
  // each finishes its (stopped) request and answers before it ends.
  ReapConnections(/*join_all=*/true);
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    unlink(opts_.socket_path.c_str());
  }
  return kExitInterrupted;
}

int ServeDaemon::RunUntilStopped(const std::atomic<bool>* signal_stop) {
  while (!shutdown_requested_.load(std::memory_order_acquire) &&
         !(signal_stop != nullptr && signal_stop->load(std::memory_order_acquire))) {
    SleepMs(kTickMs);
  }
  return Drain();
}

ServeStatus ServeDaemon::Snapshot() const {
  ServeStatus s;
  s.draining = draining_.load(std::memory_order_acquire);
  s.uptime_ticks = uptime_ticks_.load(std::memory_order_relaxed);
  s.max_queue = opts_.max_queue;
  s.workers = std::max(1, opts_.workers);
  s.max_seeds = opts_.max_seeds;
  const MutexLock lock(&mu_);
  s.queue_depth = static_cast<int>(queue_.size());
  s.active_requests = static_cast<int>(running_.size());
  for (const PendingRequest* p : running_) {
    s.inflight_seeds +=
        std::max(0, p->request.campaign.seeds - p->seeds_done.load(std::memory_order_relaxed));
  }
  s.admitted = admitted_;
  s.completed = completed_;
  s.shed = shed_;
  s.cancelled = cancelled_;
  const obs::LatencyHistogram::Snapshot latency = request_latency_.Snap();
  s.latency_count = latency.count;
  s.latency_p50_ms = latency.QuantileS(0.50) * 1e3;
  s.latency_p90_ms = latency.QuantileS(0.90) * 1e3;
  s.latency_p99_ms = latency.QuantileS(0.99) * 1e3;
  s.latency_max_ms = latency.max_s * 1e3;
  return s;
}

void ServeDaemon::AcceptLoop() {
  // Keep accepting while draining (clients get a crisp "daemon is draining"
  // shed instead of a hung connect); only the final Drain() stops the loop.
  while (running_flag_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = poll(&pfd, 1, kTickMs);
    uptime_ticks_.fetch_add(1, std::memory_order_relaxed);
    CancelExpiredRequests();
    if (ready <= 0) {
      // Tick (or EINTR): re-check draining, and reap finished connection
      // threads so an idle daemon doesn't hold exited threads until the next
      // accept.
      ReapConnections(/*join_all=*/false);
      continue;
    }
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;
    }
    ReapConnections(/*join_all=*/false);
    bool over_cap = false;
    {
      const MutexLock lock(&conn_mu_);
      over_cap = static_cast<int>(conns_.size()) >= opts_.max_connections;
    }
    if (over_cap) {
      {
        const MutexLock lock(&mu_);
        ++shed_;
      }
      SendAll(fd, RenderShedResponse("connect", "connection limit reached", 0,
                                     opts_.max_queue));
      close(fd);
      continue;
    }
    const MutexLock lock(&conn_mu_);
    conns_.emplace_back();
    ConnSlot& slot = conns_.back();  // list nodes are address-stable
    slot.thread = std::thread([this, fd, &slot] {
      HandleConnection(fd);
      slot.finished.store(true, std::memory_order_release);
    });
  }
}

void ServeDaemon::ReapConnections(bool join_all) {
  const MutexLock lock(&conn_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (join_all || it->finished.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) {
        it->thread.join();
      }
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string ServeDaemon::FindBusyRequestPathLocked(const CampaignRequest& req) const {
  if (!req.journal_path.empty() && busy_paths_.count(req.journal_path) > 0) {
    return req.journal_path;
  }
  if (!req.resume_path.empty() && busy_paths_.count(req.resume_path) > 0) {
    return req.resume_path;
  }
  return std::string();
}

void ServeDaemon::ReserveRequestPathsLocked(const CampaignRequest& req) {
  if (!req.journal_path.empty()) {
    busy_paths_.insert(req.journal_path);
  }
  if (!req.resume_path.empty()) {
    busy_paths_.insert(req.resume_path);
  }
}

void ServeDaemon::ReleaseRequestPathsLocked(const CampaignRequest& req) {
  if (!req.journal_path.empty()) {
    busy_paths_.erase(req.journal_path);
  }
  if (!req.resume_path.empty()) {
    busy_paths_.erase(req.resume_path);
  }
}

std::string ServeDaemon::Admit(PendingRequest* request) {
  const ServeRequest& req = request->request;
  if (req.campaign.seeds > opts_.max_seeds) {
    return RenderErrorResponse(req.op,
                               "seeds " + std::to_string(req.campaign.seeds) +
                                   " exceeds the server's per-request cap of " +
                                   std::to_string(opts_.max_seeds),
                               kExitUsage);
  }
  int depth = 0;
  const char* reason = nullptr;
  std::string busy_path;
  {
    const MutexLock lock(&mu_);
    depth = static_cast<int>(queue_.size());
    // Total-in-system admission: `workers` execution slots plus `max_queue`
    // waiting ones, so an idle daemon always admits (even with --max-queue 0)
    // and in-flight requests are never affected by a shed.
    const int in_system = depth + static_cast<int>(running_.size());
    if (draining_.load(std::memory_order_acquire)) {
      reason = "daemon is draining";
    } else if (in_system >= opts_.max_queue + std::max(1, opts_.workers)) {
      reason = "request queue is full";
    } else {
      busy_path = FindBusyRequestPathLocked(req.campaign);
      if (busy_path.empty()) {
        ReserveRequestPathsLocked(req.campaign);
        request->admitted_wall_s = WallSeconds();
        if (req.deadline_s > 0.0) {
          request->deadline_wall = request->admitted_wall_s + req.deadline_s;
        }
        request->admit_ordinal = admitted_;
        queue_.push_back(request);
        ++admitted_;
      }
    }
    if (reason != nullptr) {
      ++shed_;
    }
  }
  if (reason != nullptr) {
    obs::TraceInstant("request_shed", "serve");
    return RenderShedResponse(req.op, reason, depth, opts_.max_queue);
  }
  if (!busy_path.empty()) {
    // A client error, not load: concurrent writers would corrupt the journal.
    return RenderErrorResponse(
        req.op, "journal/resume path " + busy_path +
                    " is already in use by another in-flight request",
        kExitUsage);
  }
  obs::TraceInstantArg("request_admit", "serve",
                       static_cast<std::int64_t>(request->admit_ordinal));
  return std::string();
}

void ServeDaemon::CancelExpiredRequests() {
  const double now = WallSeconds();
  const auto cancel_if_due = [now](PendingRequest* p) {
    if (p->stop.load(std::memory_order_acquire)) {
      return;
    }
    // A hung-up client cancels the request's remaining seeds; the journal
    // (if any) keeps what already committed.
    if ((p->deadline_wall > 0.0 && now >= p->deadline_wall) || ClientHungUp(p->fd)) {
      p->stop.store(true, std::memory_order_release);
      obs::TraceInstantArg("request_cancel", "serve",
                           static_cast<std::int64_t>(p->admit_ordinal));
    }
  };
  const MutexLock lock(&mu_);
  for (PendingRequest* p : queue_) {
    cancel_if_due(p);
  }
  for (PendingRequest* p : running_) {
    cancel_if_due(p);
  }
}

std::string ServeDaemon::Execute(PendingRequest* request) {
  const int workers = std::max(1, opts_.workers);
  {
    const MutexLock lock(&mu_);
    while (queue_.front() != request || static_cast<int>(running_.size()) >= workers) {
      changed_cv_.Wait(&mu_);
    }
    queue_.pop_front();
    running_.push_back(request);
  }
  changed_cv_.NotifyAll();  // the next in line may have a free slot too
  // Retroactive queue-wait span (admission to slot), then the execute span
  // proper, both nested in this connection thread's request span.
  if (obs::TraceEnabled()) {
    obs::TraceComplete("queue_wait", "serve", request->admitted_wall_s, WallSeconds());
  }
  std::string response;
  {
    const obs::ScopedSpan execute_span("execute", "serve",
                                       static_cast<std::int64_t>(request->admit_ordinal));
    response = RunRequest(request->request, std::max(1, opts_.jobs), &request->stop,
                          &request->seeds_done);
  }
  request_latency_.Observe(WallSeconds() - request->admitted_wall_s);
  {
    const MutexLock lock(&mu_);
    running_.erase(std::find(running_.begin(), running_.end(), request));
    ReleaseRequestPathsLocked(request->request.campaign);
    ++completed_;
    if (request->stop.load(std::memory_order_acquire)) {
      ++cancelled_;
    }
  }
  changed_cv_.NotifyAll();
  return response;
}

void ServeDaemon::HandleConnection(int fd) {
  std::string buffer;
  bool alive = true;
  while (alive) {
    const std::size_t nl = buffer.find('\n');
    if (nl == std::string::npos) {
      if (buffer.size() > kMaxRequestBytes) {
        SendAll(fd, RenderErrorResponse("", "request line exceeds 1 MiB", kExitUsage));
        break;
      }
      // While draining, still collect a request the client already sent (it
      // gets a structured "daemon is draining" shed, and one poll tick of
      // grace covers a connect-then-send race), but an idle tick ends the
      // connection so Drain() can join this thread.
      const bool draining = draining_.load(std::memory_order_acquire);
      pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int ready = poll(&pfd, 1, kTickMs);
      if (ready < 0 && errno != EINTR) {
        break;
      }
      if (ready <= 0) {
        if (draining) {
          break;  // nothing pending: the connection ends with the daemon
        }
        continue;  // tick: re-check draining
      }
      char chunk[4096];
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        break;  // client hung up (or hard error) before completing a line
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }

    ServeRequest req;
    std::string error;
    if (!ParseServeRequest(line, &req, &error)) {
      alive = SendAll(fd, RenderErrorResponse(req.op, error, kExitUsage));
      continue;
    }
    if (req.op == "status") {
      alive = SendAll(fd, RenderStatusResponse(Snapshot()));
      continue;
    }
    if (req.op == "shutdown") {
      // Ack first: RequestDrain would otherwise race this connection's own
      // teardown against the send.
      alive = SendAll(fd, ShutdownAck());
      shutdown_requested_.store(true, std::memory_order_release);
      RequestDrain();
      continue;
    }

    PendingRequest pending(req, fd);
    // Connection-side span: admission attempt through response send (sheds
    // close it immediately; admitted requests hold it across the execution).
    const obs::ScopedSpan request_span("request", "serve");
    const std::string immediate = Admit(&pending);
    alive = SendAll(fd, immediate.empty() ? Execute(&pending) : immediate);
  }
  close(fd);
}

}  // namespace byterobust
