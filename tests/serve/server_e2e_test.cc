// End-to-end serving test: concurrent sessions over localhost TCP, a
// daemon kill + restart mid-stream, and the byte-identical-transcript
// guarantee. Protocol, run once per serving regime:
//   1. For each session config (strategies cycling through the instance's
//      list, distinct seeds, the instance's goal), capture the full
//      oracle-driven response transcript from an uninterrupted reference
//      daemon.
//   2. Daemon A (checkpointing on): one client thread per session creates
//      its session and drives i%3 steps, asserting every response line
//      equals the reference's, then daemon A is shut down and destroyed.
//   3. Daemon B recovers every session from the checkpoint directory; the
//      clients drive their sessions to completion and every remaining
//      response line — suggest, label, result — must be byte-identical to
//      the reference transcript from the step where the kill landed.
// The many-sessions regime is 64 sessions over Figure 1, whose lookahead
// scans stay serial; the few-sessions regime is 4 lookahead sessions over
// a wide instance, whose scans fan out onto the shared pool.
// Responses carry no session id, which is what makes transcripts diffable
// across daemons with different id mints.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/jim.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "serve/transport.h"
#include "support/parallel_for_calls.h"
#include "util/bitset.h"
#include "util/json_reader.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::serve {
namespace {

// Session strategies score on exec::SharedPool(); size it before its first
// use so the few-sessions regime reaches the pooled path on any machine.
const bool kSharedPoolSized = [] {
  exec::SetDefaultThreads(4);
  return true;
}();

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "serve_e2e_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// An instance the daemon serves, with the goal its sessions are checked
/// against and the strategies they cycle through.
struct Instance {
  std::string name;
  std::shared_ptr<const core::TupleStore> store;
  std::string goal;
  std::vector<std::string> strategies;
};

Instance Figure1Instance() {
  return {"figure1",
          workload::Figure1StorePtr(),
          workload::kQ2,
          {"lookahead-entropy", "lookahead-minmax", "local-bottom-up",
           "random"}};
}

/// Wide enough that every lookahead worklist it starts with reaches
/// core::kParallelLookaheadMinCandidates.
Instance WideInstance() {
  util::Rng rng(5);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 300;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  return {"synthetic",
          workload.store,
          workload.goal.ToString(),
          {"lookahead-entropy", "lookahead-minmax"}};
}

std::unique_ptr<SessionManager> MakeManager(
    ServeOptions options, const Instance& instance = Figure1Instance()) {
  options.default_instance = instance.name;
  options.max_sessions = 128;
  auto manager = std::make_unique<SessionManager>(std::move(options));
  manager->RegisterInstance(instance.name, instance.store);
  return manager;
}

Request CreateRequestFor(size_t i,
                         const Instance& instance = Figure1Instance()) {
  Request request;
  request.verb = "create";
  request.strategy = instance.strategies[i % instance.strategies.size()];
  request.goal = instance.goal;
  request.seed = 100 + i;
  return request;
}

/// The oracle: answers by whether the suggested representative tuple is
/// selected by the goal predicate.
class Oracle {
 public:
  explicit Oracle(const Instance& instance)
      : store_(instance.store),
        selected_(core::JoinPredicate::Parse(store_->schema(), instance.goal)
                      .value()
                      .SelectedRows(*store_)) {}
  bool Answer(const std::string& suggest_line) const {
    auto parsed = util::ParseJson(suggest_line);
    EXPECT_TRUE(parsed.ok()) << suggest_line;
    const int64_t tuple = parsed->GetInt("tuple", -1);
    EXPECT_GE(tuple, 0) << suggest_line;
    return selected_.Test(static_cast<size_t>(tuple));
  }
  static bool Done(const std::string& suggest_line) {
    auto parsed = util::ParseJson(suggest_line);
    EXPECT_TRUE(parsed.ok()) << suggest_line;
    EXPECT_TRUE(parsed->GetBool("ok", false)) << suggest_line;
    return parsed->GetBool("done", false);
  }

 private:
  std::shared_ptr<const core::TupleStore> store_;
  util::DynamicBitset selected_;
};

/// Captures the uninterrupted response transcript of session config `i`:
/// suggest,label,suggest,label,...,suggest(done),result — raw lines,
/// straight from the server's request handler. Adds the exec.parallel_for
/// calls the suggest requests made to `*suggest_pool_calls`.
std::vector<std::string> ReferenceTranscript(Server& server,
                                             const Instance& instance,
                                             const Oracle& oracle, size_t i,
                                             uint64_t* suggest_pool_calls) {
  bool shutdown_requested = false;
  const std::string create_response =
      server.HandleLine(RequestToLine(CreateRequestFor(i, instance)),
                        &shutdown_requested);
  auto created = util::ParseJson(create_response);
  EXPECT_TRUE(created.ok() && created->GetBool("ok", false))
      << create_response;
  const std::string session = created->GetString("session", "");
  EXPECT_FALSE(session.empty());

  std::vector<std::string> lines;
  for (size_t step = 0; step < 1000; ++step) {
    std::string suggest_response;
    *suggest_pool_calls += exec::ParallelForCallsDuring([&] {
      suggest_response =
          server.HandleLine(SuggestLine(session), &shutdown_requested);
    });
    lines.push_back(suggest_response);
    if (Oracle::Done(suggest_response)) break;
    lines.push_back(server.HandleLine(
        LabelLine(session, static_cast<uint64_t>(util::ParseJson(
                               suggest_response)
                               ->GetInt("class", -1)),
                  oracle.Answer(suggest_response)),
        &shutdown_requested));
  }
  lines.push_back(server.HandleLine(ResultLine(session),
                                    &shutdown_requested));
  return lines;
}

/// Runs the restart protocol over `sessions` sessions of `instance`.
/// `*suggest_pool_calls` receives the exec.parallel_for calls the reference
/// daemon's suggest requests made: lookahead scans on the shared pool.
void RunRestartE2E(const Instance& instance, size_t sessions,
                   const std::string& tag, uint64_t* suggest_pool_calls) {
  const Oracle oracle(instance);

  // Phase 0: reference transcripts from an uninterrupted daemon.
  std::vector<std::vector<std::string>> reference(sessions);
  {
    auto manager = MakeManager(ServeOptions{}, instance);
    Server server(manager.get(), ListenTcp(0).value());
    for (size_t i = 0; i < sessions; ++i) {
      reference[i] = ReferenceTranscript(server, instance, oracle, i,
                                         suggest_pool_calls);
      ASSERT_GE(reference[i].size(), 4u) << "session " << i << " too short";
      // Every transcript ends with a done-suggest and an
      // identified_goal result.
      const std::string& result_line = reference[i].back();
      auto result = util::ParseJson(result_line);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result->GetBool("identified_goal", false)) << result_line;
    }
  }

  const std::string checkpoint_dir = FreshDir(tag);
  std::vector<std::string> session_ids(sessions);

  // Phase 1: daemon A — concurrent clients drive i%3 steps each, then the
  // daemon dies with every session mid-stream.
  {
    ServeOptions options;
    options.checkpoint_dir = checkpoint_dir;
    auto manager = MakeManager(std::move(options), instance);
    ServerOptions server_options;
    server_options.max_connections = 16;  // exercise connection queueing
    Server server(manager.get(), ListenTcp(0).value(), server_options);
    server.Start();
    const uint16_t port = PortOfAddress(server.address()).value();

    std::vector<std::thread> clients;
    for (size_t i = 0; i < sessions; ++i) {
      clients.emplace_back([&, i] {
        auto client = Client::ConnectTcp(port);
        ASSERT_TRUE(client.ok()) << client.status();
        auto session = client->Create(CreateRequestFor(i, instance));
        ASSERT_TRUE(session.ok()) << session.status();
        session_ids[i] = *session;
        for (size_t step = 0; step < i % 3; ++step) {
          auto suggest_response = client->CallRaw(SuggestLine(*session));
          ASSERT_TRUE(suggest_response.ok());
          ASSERT_EQ(*suggest_response, reference[i][2 * step])
              << tag << " session " << i << " step " << step;
          if (Oracle::Done(*suggest_response)) break;
          auto label_response = client->CallRaw(
              LabelLine(*session,
                        static_cast<uint64_t>(
                            util::ParseJson(*suggest_response)
                                ->GetInt("class", -1)),
                        oracle.Answer(*suggest_response)));
          ASSERT_TRUE(label_response.ok());
          ASSERT_EQ(*label_response, reference[i][2 * step + 1])
              << tag << " session " << i << " step " << step;
        }
      });
    }
    for (std::thread& client : clients) client.join();
    EXPECT_EQ(manager->GetStats().live, sessions);
    server.Shutdown();
  }

  // Phase 2: daemon B recovers everything and the clients finish their
  // sessions; every remaining line must equal the reference's.
  {
    ServeOptions options;
    options.checkpoint_dir = checkpoint_dir;
    auto manager = MakeManager(std::move(options), instance);
    ASSERT_TRUE(manager->RecoverSessions().ok());
    EXPECT_EQ(manager->GetStats().recovered, sessions);
    Server server(manager.get(), ListenTcp(0).value());
    server.Start();
    const uint16_t port = PortOfAddress(server.address()).value();

    std::vector<std::thread> clients;
    for (size_t i = 0; i < sessions; ++i) {
      clients.emplace_back([&, i] {
        auto client = Client::ConnectTcp(port);
        ASSERT_TRUE(client.ok()) << client.status();
        const std::string& session = session_ids[i];
        size_t line = 2 * (i % 3);  // where the kill landed
        for (; line + 1 < reference[i].size(); line += 2) {
          auto suggest_response = client->CallRaw(SuggestLine(session));
          ASSERT_TRUE(suggest_response.ok());
          ASSERT_EQ(*suggest_response, reference[i][line])
              << tag << " session " << i << " post-restart line " << line;
          if (Oracle::Done(*suggest_response)) break;
          auto label_response = client->CallRaw(
              LabelLine(session,
                        static_cast<uint64_t>(
                            util::ParseJson(*suggest_response)
                                ->GetInt("class", -1)),
                        oracle.Answer(*suggest_response)));
          ASSERT_TRUE(label_response.ok());
          ASSERT_EQ(*label_response, reference[i][line + 1])
              << tag << " session " << i << " post-restart line "
              << line + 1;
        }
        auto result_response = client->CallRaw(ResultLine(session));
        ASSERT_TRUE(result_response.ok());
        ASSERT_EQ(*result_response, reference[i].back())
            << tag << " session " << i;
        ASSERT_TRUE(client->Close(session).ok());
      });
    }
    for (std::thread& client : clients) client.join();
    EXPECT_EQ(manager->GetStats().live, 0u);
    server.Shutdown();
  }
}

TEST(ServerE2ETest, ManySessionsModeSurvivesDaemonRestart) {
  // Figure 1's worklists sit below core::kParallelLookaheadMinCandidates:
  // every lookahead scan stays serial.
  uint64_t suggest_pool_calls = 0;
  RunRestartE2E(Figure1Instance(), /*sessions=*/64, "many",
                &suggest_pool_calls);
  EXPECT_EQ(suggest_pool_calls, 0u);
}

TEST(ServerE2ETest, FewSessionsModeSurvivesDaemonRestart) {
  // The wide instance's worklists reach the constant: lookahead scans fan
  // out onto exec::SharedPool(), and the transcripts still survive.
  ASSERT_GT(exec::SharedPool().threads(), 1u);
  uint64_t suggest_pool_calls = 0;
  RunRestartE2E(WideInstance(), /*sessions=*/4, "few", &suggest_pool_calls);
  EXPECT_GT(suggest_pool_calls, 0u);
}

TEST(ServerE2ETest, ShutdownVerbStopsTheDaemon) {
  auto manager = MakeManager(ServeOptions{});
  Server server(manager.get(), ListenTcp(0).value());
  server.Start();
  const uint16_t port = PortOfAddress(server.address()).value();
  auto client = Client::ConnectTcp(port);
  ASSERT_TRUE(client.ok()) << client.status();
  auto response = client->Call(R"({"verb":"shutdown"})");
  ASSERT_TRUE(response.ok()) << response.status();
  server.Wait();  // returns because the verb tore the daemon down
  EXPECT_FALSE(Client::ConnectTcp(port).ok());
}

TEST(ServerE2ETest, MalformedAndUnknownRequestsFailTyped) {
  auto manager = MakeManager(ServeOptions{});
  Server server(manager.get(), ListenTcp(0).value());
  server.Start();
  const uint16_t port = PortOfAddress(server.address()).value();
  auto client = Client::ConnectTcp(port);
  ASSERT_TRUE(client.ok()) << client.status();

  auto bad_json = client->Call("this is not json");
  EXPECT_EQ(bad_json.status().code(), util::StatusCode::kInvalidArgument);
  auto bad_verb = client->Call(R"({"verb":"frobnicate"})");
  EXPECT_EQ(bad_verb.status().code(), util::StatusCode::kInvalidArgument);
  auto no_session = client->Call(R"({"verb":"suggest"})");
  EXPECT_EQ(no_session.status().code(), util::StatusCode::kInvalidArgument);
  auto unknown_session = client->Call(SuggestLine("s404"));
  EXPECT_EQ(unknown_session.status().code(), util::StatusCode::kNotFound);
  // The connection survives every error.
  EXPECT_TRUE(client->Call(R"({"verb":"ping"})").ok());
  server.Shutdown();
}

TEST(ServerE2ETest, AdmissionRejectionCrossesTheWire) {
  ServeOptions options;
  options.max_sessions = 1;
  options.default_instance = "figure1";
  SessionManager manager(std::move(options));
  manager.RegisterInstance("figure1", workload::Figure1StorePtr());
  Server server(&manager, ListenTcp(0).value());
  server.Start();
  const uint16_t port = PortOfAddress(server.address()).value();
  auto client = Client::ConnectTcp(port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Create(CreateRequestFor(0)).ok());
  auto rejected = client->Create(CreateRequestFor(1));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            util::StatusCode::kResourceExhausted);
  server.Shutdown();
}

/// The typed code an {"ok":false,...} response line carries (kOk for an
/// ok line or one that does not parse).
util::StatusCode ResponseCode(const std::string& line) {
  auto response = util::ParseJson(line);
  if (!response.ok() || response->GetBool("ok", false)) {
    return util::StatusCode::kOk;
  }
  return StatusFromErrorName(response->GetString("error", ""), "").code();
}

TEST(ServerE2ETest, OversizeRequestLineFailsTypedAndClosesTheConnection) {
  const std::string oversize(kMaxRequestLineBytes + 1, 'x');
  auto manager = MakeManager(ServeOptions{});

  // TCP: one RESOURCE_EXHAUSTED line, then the daemon closes the
  // connection; a fresh connection is served as before.
  {
    Server server(manager.get(), ListenTcp(0).value());
    server.Start();
    const uint16_t port = PortOfAddress(server.address()).value();
    auto connection = ConnectTcp(port);
    ASSERT_TRUE(connection.ok()) << connection.status();
    // The daemon may close before the last bytes are sent; only its answer
    // matters here.
    (void)(*connection)->WriteLine(oversize);
    auto response = (*connection)->ReadLine();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(ResponseCode(*response), util::StatusCode::kResourceExhausted)
        << *response;
    EXPECT_FALSE((*connection)->ReadLine().ok());
    auto fresh = Client::ConnectTcp(port);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_TRUE(fresh->Call(R"({"verb":"ping"})").ok());
    server.Shutdown();
  }

  // stdio: the ping after the oversize line is never read, because the one
  // connection closes; a fresh stdio daemon answers it.
  {
    std::istringstream in(oversize + "\n" + R"({"verb":"ping"})" + "\n");
    std::ostringstream out;
    Server server(manager.get(), StreamTransport(in, out).value());
    server.Start();
    server.Wait();  // the one stdio connection is done
    const std::vector<std::string> lines = util::Split(out.str(), '\n');
    ASSERT_EQ(lines.size(), 2u) << out.str();  // one line + trailing ""
    EXPECT_EQ(ResponseCode(lines[0]), util::StatusCode::kResourceExhausted)
        << lines[0];
  }
  {
    std::istringstream in(R"({"verb":"ping"})" "\n");
    std::ostringstream out;
    Server server(manager.get(), StreamTransport(in, out).value());
    server.Start();
    server.Wait();
    EXPECT_NE(out.str().find(R"("verb":"ping")"), std::string::npos)
        << out.str();
  }
}

}  // namespace
}  // namespace jim::serve
