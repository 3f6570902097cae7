// Campaign-service suite: the serve wire protocol's strict-parse /
// render / extract contracts, and in-process end-to-end daemon tests —
// request bodies byte-identical to the CLI engine, admission control
// (seed cap, queue shed), deadline and client hang-up cancels (running or
// still queued) into valid partial documents, and graceful drain.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/engine.h"
#include "src/campaign/scenarios.h"
#include "src/harness/exit_codes.h"
#include "src/harness/wallclock.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"

namespace byterobust {
namespace {

// --------------------------------------------------------------------------
// Protocol: strict request parsing
// --------------------------------------------------------------------------
TEST(ServeProtocolTest, ParsesSparseAndFullRequests) {
  ServeRequest req;
  std::string error;
  ASSERT_TRUE(ParseServeRequest("{\"op\":\"status\"}", &req, &error)) << error;
  EXPECT_EQ(req.op, "status");

  req = ServeRequest();
  ASSERT_TRUE(ParseServeRequest(
      "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":8,"
      "\"base_seed\":7,\"days\":0.25,\"jobs\":4,\"deadline_s\":2.5,"
      "\"journal\":\"/tmp/j.log\",\"retries\":3,\"journal_sync\":true}",
      &req, &error))
      << error;
  EXPECT_EQ(req.op, "campaign");
  EXPECT_EQ(req.campaign.scenario, "quickstart");
  EXPECT_EQ(req.campaign.seeds, 8);
  EXPECT_EQ(req.campaign.base_seed, 7u);
  EXPECT_DOUBLE_EQ(req.campaign.days, 0.25);
  EXPECT_EQ(req.campaign.jobs, 4);
  EXPECT_DOUBLE_EQ(req.deadline_s, 2.5);
  EXPECT_EQ(req.campaign.journal_path, "/tmp/j.log");
  EXPECT_EQ(req.campaign.retries, 3);
  EXPECT_TRUE(req.campaign.journal_sync);

  // null means "use the scenario default", same as omitting --days.
  req = ServeRequest();
  ASSERT_TRUE(ParseServeRequest("{\"op\":\"fleet\",\"scenario\":\"fleet-mixed\","
                                "\"days\":null}",
                                &req, &error))
      << error;
  EXPECT_LT(req.campaign.days, 0.0);
}

TEST(ServeProtocolTest, RejectsMalformedAndHostileRequests) {
  const struct {
    const char* line;
    const char* needle;  // must appear in the error
  } kCases[] = {
      {"", "JSON object"},
      {"not json", "JSON object"},
      {"{\"scenario\":\"quickstart\"}", "op"},
      {"{\"op\":\"evil\"}", "op"},
      {"{\"op\":\"campaign\",\"seeds\":0}", "seeds"},
      {"{\"op\":\"campaign\",\"seeds\":100001}", "seeds"},
      {"{\"op\":\"campaign\",\"jobs\":257}", "jobs"},
      {"{\"op\":\"campaign\",\"days\":-1}", "days"},
      // "days" reaches SimTime math (int64 microseconds): overflowing or
      // non-finite values must be a request error, not quarantined seeds.
      {"{\"op\":\"campaign\",\"days\":1e300}", "days must be in (0, 36500]"},
      {"{\"op\":\"campaign\",\"days\":1e400}", "days must be in (0, 36500]"},
      {"{\"op\":\"campaign\",\"days\":36500.5}", "days must be in (0, 36500]"},
      // strtod reads "nan"; NaN fails every range check instead of reaching
      // an integer cast.
      {"{\"op\":\"campaign\",\"seeds\":nan}", "seeds must be in [1, 100000]"},
      {"{\"op\":\"campaign\",\"jobs\":nan}", "jobs must be in [1, 256]"},
      {"{\"op\":\"campaign\",\"base_seed\":nan}", "base_seed must be in [0, 9e15]"},
      {"{\"op\":\"campaign\",\"retries\":nan}", "retries must be in [0, 100]"},
      {"{\"op\":\"campaign\",\"deadline_s\":-2}", "deadline_s"},
      {"{\"op\":\"campaign\",\"retries\":101}", "retries"},
      {"{\"op\":\"campaign\",\"bogus\":1}", "unknown request field 'bogus'"},
      {"{\"op\":\"campaign\",\"seeds\":{\"nested\":1}}", "nested"},
      {"{\"op\":\"campaign\",\"journal\":\"a\",\"resume\":\"b\"}",
       "mutually exclusive"},
      {"{\"op\":\"status\"} trailing", "trailing"},
      // All four \u characters must be hex digits; strtol-style leniency
      // (leading whitespace, signs) is a parse error here.
      {"{\"op\":\"campaign\",\"scenario\":\"\\u+12f\"}", "malformed \\u escape"},
      {"{\"op\":\"campaign\",\"scenario\":\"\\u 12f\"}", "malformed \\u escape"},
      {"{\"op\":\"campaign\",\"scenario\":\"\\u00g1\"}", "malformed \\u escape"},
  };
  for (const auto& c : kCases) {
    ServeRequest req;
    std::string error;
    EXPECT_FALSE(ParseServeRequest(c.line, &req, &error)) << c.line;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << "line: " << c.line << " error: " << error;
  }
}

TEST(ServeProtocolTest, EscapeRoundTripsThroughExtract) {
  // The campaign document travels escaped in "body"; extraction must return
  // the exact original bytes, including control characters and quotes.
  const std::string body =
      "{\n  \"k\": \"v\\\"q\"\n}\n\ttab\rcr\x01\x1f backslash \\ end\n";
  const std::string response =
      RenderResultResponse("campaign", "quickstart", kExitOk, 2, 2, body);
  EXPECT_EQ(response.find('\n'), response.size() - 1)  // single line + '\n'
      << response;
  std::string out;
  ASSERT_TRUE(ExtractJsonStringField(response, "body", &out));
  EXPECT_EQ(out, body);
  long code = -1;
  ASSERT_TRUE(ExtractJsonIntField(response, "exit_code", &code));
  EXPECT_EQ(code, kExitOk);
  ASSERT_TRUE(ExtractJsonStringField(response, "status", &out));
  EXPECT_EQ(out, "ok");
}

TEST(ServeProtocolTest, StatusLabelsMatchExitCodes) {
  EXPECT_STREQ(ServeStatusLabel(kExitOk), "ok");
  EXPECT_STREQ(ServeStatusLabel(kExitQuarantine), "quarantined");
  EXPECT_STREQ(ServeStatusLabel(kExitInterrupted), "interrupted");
  EXPECT_STREQ(ServeStatusLabel(kExitUsage), "rejected");
  EXPECT_STREQ(ServeStatusLabel(kExitShed), "shed");
  EXPECT_STREQ(ServeStatusLabel(kExitIoError), "error");
}

TEST(ServeProtocolTest, ShedAndStatusEnvelopesCarryTheContract) {
  const std::string shed = RenderShedResponse("campaign", "request queue is full", 3, 3);
  long code = -1;
  ASSERT_TRUE(ExtractJsonIntField(shed, "exit_code", &code));
  EXPECT_EQ(code, kExitShed);
  ASSERT_TRUE(ExtractJsonIntField(shed, "queue_depth", &code));
  EXPECT_EQ(code, 3);
  std::string s;
  ASSERT_TRUE(ExtractJsonStringField(shed, "error", &s));
  EXPECT_EQ(s, "request queue is full");

  ServeStatus status;
  status.draining = true;
  status.uptime_ticks = 17;
  status.inflight_seeds = 5;
  const std::string line = RenderStatusResponse(status);
  ASSERT_TRUE(ExtractJsonIntField(line, "uptime_ticks", &code));
  EXPECT_EQ(code, 17);
  ASSERT_TRUE(ExtractJsonIntField(line, "inflight_seeds", &code));
  EXPECT_EQ(code, 5);
  EXPECT_NE(line.find("\"draining\":true"), std::string::npos) << line;
}

// --------------------------------------------------------------------------
// Daemon end-to-end (in-process): a real unix socket under TempDir.
// --------------------------------------------------------------------------

// Holds every seed attempt in the injected cooperative hang until the
// watchdog cancels it 1 s in: a request with "retries":0 then lasts as long
// as a test needs to interrupt it, however fast the simulator is. Construct
// it before the daemon, so no daemon thread reads the environment while it
// changes.
class HeldSeeds {
 public:
  HeldSeeds() {
    setenv("BYTEROBUST_HARNESS_FAULTS", "hang:1.0", 1);
    setenv("BYTEROBUST_SEED_TIMEOUT_S", "1", 1);
  }
  ~HeldSeeds() { Release(); }
  HeldSeeds(const HeldSeeds&) = delete;
  HeldSeeds& operator=(const HeldSeeds&) = delete;

  // Later requests run their seeds. Call only while no request runs.
  void Release() {
    unsetenv("BYTEROBUST_HARNESS_FAULTS");
    unsetenv("BYTEROBUST_SEED_TIMEOUT_S");
  }
};

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // sun_path is ~108 bytes; keep the path short and per-process unique.
    socket_path_ = "/tmp/byterobust_serve_test_" + std::to_string(getpid()) + ".sock";
    std::remove(socket_path_.c_str());
  }
  void TearDown() override { std::remove(socket_path_.c_str()); }

  std::string Roundtrip(const std::string& body) {
    std::string response;
    std::string error;
    EXPECT_TRUE(ServeRoundtrip(socket_path_, body, /*connect_wait_s=*/5.0,
                               /*io_timeout_s=*/120.0, &response, &error))
        << error;
    return response;
  }

  // What the CLI's `campaign --stream` would print for the same parameters.
  static std::string EngineReference(const char* command, const char* scenario,
                                     int seeds) {
    CampaignRequest req;
    req.command = command;
    req.scenario = scenario;
    req.seeds = seeds;
    req.stream = true;
    CampaignEngineSpec spec;
    std::string error;
    EXPECT_TRUE(BuildCampaignEngineSpec(req, &spec, &error)) << error;
    std::string captured;
    spec.capture = &captured;
    EXPECT_EQ(RunCampaignEngine(spec), kExitOk);
    return captured;
  }

  std::string socket_path_;
};

TEST_F(ServeDaemonTest, StatusAndCampaignBodyMatchesEngine) {
  ServeOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = 2;
  opts.jobs = 2;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const std::string status = Roundtrip("{\"op\":\"status\"}");
  long v = -1;
  ASSERT_TRUE(ExtractJsonIntField(status, "exit_code", &v));
  EXPECT_EQ(v, kExitOk);
  ASSERT_TRUE(ExtractJsonIntField(status, "active_requests", &v));
  EXPECT_EQ(v, 0);

  const std::string response =
      Roundtrip("{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":2}");
  std::string body;
  ASSERT_TRUE(ExtractJsonStringField(response, "body", &body)) << response;
  EXPECT_EQ(body, EngineReference("campaign", "quickstart", 2));
  ASSERT_TRUE(ExtractJsonIntField(response, "seeds_done", &v));
  EXPECT_EQ(v, 2);

  const std::string fleet =
      Roundtrip("{\"op\":\"fleet\",\"scenario\":\"fleet-mixed\",\"seeds\":2}");
  ASSERT_TRUE(ExtractJsonStringField(fleet, "body", &body)) << fleet;
  EXPECT_EQ(body, EngineReference("fleet", "fleet-mixed", 2));

  const ServeStatus snapshot = daemon.Snapshot();
  EXPECT_EQ(snapshot.admitted, 2u);
  EXPECT_EQ(snapshot.completed, 2u);
  EXPECT_EQ(snapshot.shed, 0u);
  EXPECT_EQ(daemon.Drain(), kExitInterrupted);
}

TEST_F(ServeDaemonTest, ConcurrentIdenticalRequestsAreByteIdentical) {
  ServeOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = 4;
  opts.jobs = 4;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const std::string body =
      "{\"op\":\"campaign\",\"scenario\":\"gpu-fault\",\"seeds\":6,\"jobs\":4}";
  std::vector<std::string> responses(4);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back([this, &body, &responses, i] {
      responses[i] = Roundtrip(body);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (std::size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i], responses[0]) << "client " << i;
  }
  std::string doc;
  ASSERT_TRUE(ExtractJsonStringField(responses[0], "body", &doc));
  EXPECT_EQ(doc, EngineReference("campaign", "gpu-fault", 6));
  EXPECT_EQ(daemon.Drain(), kExitInterrupted);
}

TEST_F(ServeDaemonTest, SeedCapRejectsAndUnknownScenarioRejects) {
  ServeOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = 1;
  opts.max_seeds = 4;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const std::string capped =
      Roundtrip("{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":5}");
  long code = -1;
  std::string s;
  ASSERT_TRUE(ExtractJsonIntField(capped, "exit_code", &code));
  EXPECT_EQ(code, kExitUsage);
  ASSERT_TRUE(ExtractJsonStringField(capped, "status", &s));
  EXPECT_EQ(s, "rejected");

  const std::string unknown =
      Roundtrip("{\"op\":\"campaign\",\"scenario\":\"nope\",\"seeds\":1}");
  ASSERT_TRUE(ExtractJsonIntField(unknown, "exit_code", &code));
  EXPECT_EQ(code, kExitUsage);
  ASSERT_TRUE(ExtractJsonStringField(unknown, "error", &s));
  EXPECT_NE(s.find("unknown scenario 'nope'"), std::string::npos) << s;

  // A cap rejection is not a shed: nothing about it is load-dependent.
  EXPECT_EQ(daemon.Snapshot().shed, 0u);
  EXPECT_EQ(daemon.Drain(), kExitInterrupted);
}

TEST_F(ServeDaemonTest, QueueFullShedsWhileInFlightRequestIsUnaffected) {
  const HeldSeeds held;
  ServeOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = 1;   // one in-system slot...
  opts.max_queue = 0; // ...and no waiting room
  opts.jobs = 1;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // Occupy the only slot with a deadline-bounded long request, then shed a
  // second one; the first must still complete as a valid partial document.
  std::string long_response;
  std::thread occupier([this, &long_response] {
    long_response = Roundtrip(
        "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":8,"
        "\"jobs\":1,\"retries\":0,\"deadline_s\":0.8}");
  });
  // Wait until the occupier is actually executing before probing admission.
  for (int i = 0; i < 100 && daemon.Snapshot().active_requests == 0; ++i) {
    SleepMs(10.0);
  }
  ASSERT_EQ(daemon.Snapshot().active_requests, 1);

  const std::string shed =
      Roundtrip("{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1}");
  long code = -1;
  ASSERT_TRUE(ExtractJsonIntField(shed, "exit_code", &code));
  EXPECT_EQ(code, kExitShed);
  std::string s;
  ASSERT_TRUE(ExtractJsonStringField(shed, "error", &s));
  EXPECT_EQ(s, "request queue is full");

  occupier.join();
  ASSERT_TRUE(ExtractJsonIntField(long_response, "exit_code", &code));
  EXPECT_EQ(code, kExitInterrupted);  // deadline, not the shed, ended it
  ASSERT_TRUE(ExtractJsonStringField(long_response, "body", &s));
  EXPECT_NE(s.find("\"runs\""), std::string::npos);  // valid partial document
  EXPECT_EQ(daemon.Snapshot().shed, 1u);
  EXPECT_EQ(daemon.Drain(), kExitInterrupted);
}

TEST_F(ServeDaemonTest, ConcurrentRequestsOnOneJournalPathAreRejected) {
  HeldSeeds held;
  ServeOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = 2;  // both requests could run — only the path collides
  opts.jobs = 1;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const std::string journal =
      "/tmp/byterobust_serve_test_" + std::to_string(getpid()) + ".journal";
  std::remove(journal.c_str());

  // Occupy the journal path with a deadline-bounded long request; a second
  // request naming the same path must be rejected, not allowed to truncate
  // and interleave the first one's records.
  std::string long_response;
  std::thread occupier([this, &journal, &long_response] {
    long_response = Roundtrip(
        "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":8,"
        "\"jobs\":1,\"retries\":0,\"deadline_s\":0.8,\"journal\":\"" + journal + "\"}");
  });
  for (int i = 0; i < 100 && daemon.Snapshot().active_requests == 0; ++i) {
    SleepMs(10.0);
  }
  ASSERT_EQ(daemon.Snapshot().active_requests, 1);

  const std::string conflict = Roundtrip(
      "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1,"
      "\"journal\":\"" + journal + "\"}");
  long code = -1;
  ASSERT_TRUE(ExtractJsonIntField(conflict, "exit_code", &code));
  EXPECT_EQ(code, kExitUsage);
  std::string s;
  ASSERT_TRUE(ExtractJsonStringField(conflict, "error", &s));
  EXPECT_NE(s.find("already in use"), std::string::npos) << s;

  occupier.join();
  held.Release();
  // Completion released the reservation: the same path admits again.
  const std::string after = Roundtrip(
      "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1,"
      "\"journal\":\"" + journal + "\"}");
  ASSERT_TRUE(ExtractJsonIntField(after, "exit_code", &code));
  EXPECT_EQ(code, kExitOk);
  // A path conflict is a client error, not load: nothing was shed.
  EXPECT_EQ(daemon.Snapshot().shed, 0u);
  EXPECT_EQ(daemon.Drain(), kExitInterrupted);
  std::remove(journal.c_str());
}

TEST_F(ServeDaemonTest, ClientHangUpCancelsTheRunningRequest) {
  const HeldSeeds held;
  ServeOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = 1;
  opts.jobs = 1;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // A raw client: send a long request, then hang up without reading.
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size());
  ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string line =
      "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":8,\"retries\":0}\n";
  ASSERT_EQ(send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  for (int i = 0; i < 200 && daemon.Snapshot().active_requests == 0; ++i) {
    SleepMs(10.0);
  }
  ASSERT_EQ(daemon.Snapshot().active_requests, 1);
  close(fd);

  // The hang-up is noticed within a supervision tick and the held seed
  // drains at its 1 s watchdog; eight held seeds would take far longer than
  // this bound.
  const double give_up = WallSeconds() + 2.0;
  while (daemon.Snapshot().completed == 0 && WallSeconds() < give_up) {
    SleepMs(10.0);
  }
  const ServeStatus snapshot = daemon.Snapshot();
  EXPECT_EQ(snapshot.completed, 1u);
  EXPECT_EQ(snapshot.cancelled, 1u);
  EXPECT_EQ(snapshot.active_requests, 0);

  // The daemon still answers afterwards.
  long code = -1;
  ASSERT_TRUE(ExtractJsonIntField(Roundtrip("{\"op\":\"status\"}"), "exit_code", &code));
  EXPECT_EQ(code, kExitOk);
  EXPECT_EQ(daemon.Drain(), kExitInterrupted);
}

TEST_F(ServeDaemonTest, DeadlineCancelsAQueuedRequest) {
  const HeldSeeds held;
  ServeOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = 1;
  opts.max_queue = 1;
  opts.jobs = 1;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  std::string long_response;
  std::thread occupier([this, &long_response] {
    long_response = Roundtrip(
        "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":8,"
        "\"jobs\":1,\"retries\":0,\"deadline_s\":0.8}");
  });
  for (int i = 0; i < 100 && daemon.Snapshot().active_requests == 0; ++i) {
    SleepMs(10.0);
  }
  ASSERT_EQ(daemon.Snapshot().active_requests, 1);

  // The deadline expires while the request waits for the only slot: it runs
  // no seed once the slot frees, and still answers with a valid document.
  const std::string queued = Roundtrip(
      "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":2,"
      "\"deadline_s\":0.2}");
  long code = -1;
  ASSERT_TRUE(ExtractJsonIntField(queued, "exit_code", &code));
  EXPECT_EQ(code, kExitInterrupted);
  ASSERT_TRUE(ExtractJsonIntField(queued, "seeds_done", &code));
  EXPECT_EQ(code, 0);
  std::string s;
  ASSERT_TRUE(ExtractJsonStringField(queued, "body", &s));
  EXPECT_NE(s.find("\"runs\""), std::string::npos);

  occupier.join();
  ASSERT_TRUE(ExtractJsonIntField(long_response, "exit_code", &code));
  EXPECT_EQ(code, kExitInterrupted);
  const ServeStatus snapshot = daemon.Snapshot();
  EXPECT_EQ(snapshot.completed, 2u);
  EXPECT_EQ(snapshot.cancelled, 2u);
  EXPECT_EQ(daemon.Drain(), kExitInterrupted);
}

TEST_F(ServeDaemonTest, DrainShedsNewRequestsAndExitsInterrupted) {
  ServeOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = 2;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  daemon.RequestDrain();
  const std::string shed =
      Roundtrip("{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1}");
  long code = -1;
  ASSERT_TRUE(ExtractJsonIntField(shed, "exit_code", &code));
  EXPECT_EQ(code, kExitShed);
  std::string s;
  ASSERT_TRUE(ExtractJsonStringField(shed, "error", &s));
  EXPECT_EQ(s, "daemon is draining");
  EXPECT_EQ(daemon.Drain(), kExitInterrupted);
}

}  // namespace
}  // namespace byterobust
