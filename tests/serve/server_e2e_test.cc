// End-to-end serving test: 64 concurrent sessions over localhost TCP, a
// daemon kill + restart mid-stream, and the byte-identical-transcript
// guarantee. Protocol:
//   1. For each of 64 session configs (strategies cycling through
//      lookahead-entropy / lookahead-minmax / local-bottom-up / random,
//      distinct seeds, goal Q2), capture the full oracle-driven response
//      transcript from an uninterrupted reference daemon.
//   2. Daemon A (checkpointing on): 64 client threads create their
//      sessions and drive i%3 steps each, asserting every response line
//      equals the reference's, then daemon A is shut down and destroyed.
//   3. Daemon B recovers every session from the checkpoint directory; the
//      clients drive their sessions to completion and every remaining
//      response line — suggest, label, result — must be byte-identical to
//      the reference transcript from the step where the kill landed.
// Both serving modes run the same protocol. Responses carry no session id,
// which is what makes transcripts diffable across daemons with different
// id mints.

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/jim.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "serve/transport.h"
#include "util/bitset.h"
#include "util/json_reader.h"
#include "util/string_util.h"
#include "workload/travel.h"

namespace jim::serve {
namespace {

constexpr size_t kSessions = 64;
const char* const kStrategies[] = {"lookahead-entropy", "lookahead-minmax",
                                   "local-bottom-up", "random"};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "serve_e2e_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<SessionManager> MakeManager(ServeOptions options) {
  options.default_instance = "figure1";
  options.max_sessions = 128;
  auto manager = std::make_unique<SessionManager>(std::move(options));
  manager->RegisterInstance("figure1", workload::Figure1StorePtr());
  return manager;
}

Request CreateRequestFor(size_t i) {
  Request request;
  request.verb = "create";
  request.strategy = kStrategies[i % 4];
  request.goal = workload::kQ2;
  request.seed = 100 + i;
  return request;
}

/// The oracle: answers by whether the suggested representative tuple is
/// selected by the goal predicate.
class Oracle {
 public:
  Oracle() {
    store_ = workload::Figure1StorePtr();
    const auto goal =
        core::JoinPredicate::Parse(store_->schema(), workload::kQ2).value();
    selected_ = goal.SelectedRows(*store_);
  }
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
/// straight from the server's request handler.
std::vector<std::string> ReferenceTranscript(Server& server,
                                             const Oracle& oracle, size_t i) {
  bool shutdown_requested = false;
  const std::string create_response =
      server.HandleLine(RequestToLine(CreateRequestFor(i)),
                        &shutdown_requested);
  auto created = util::ParseJson(create_response);
  EXPECT_TRUE(created.ok() && created->GetBool("ok", false))
      << create_response;
  const std::string session = created->GetString("session", "");
  EXPECT_FALSE(session.empty());

  std::vector<std::string> lines;
  for (size_t step = 0; step < 1000; ++step) {
    const std::string suggest_response =
        server.HandleLine(SuggestLine(session), &shutdown_requested);
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

void RunModeE2E(ServingMode mode) {
  const Oracle oracle;
  const std::string tag =
      std::string(ServingModeName(mode));

  // Phase 0: reference transcripts from an uninterrupted daemon.
  std::vector<std::vector<std::string>> reference(kSessions);
  {
    ServeOptions options;
    options.mode = mode;
    auto manager = MakeManager(std::move(options));
    Server server(manager.get(), ListenTcp(0).value());
    for (size_t i = 0; i < kSessions; ++i) {
      reference[i] = ReferenceTranscript(server, oracle, i);
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
  std::vector<std::string> session_ids(kSessions);

  // Phase 1: daemon A — concurrent clients drive i%3 steps each, then the
  // daemon dies with every session mid-stream.
  {
    ServeOptions options;
    options.mode = mode;
    options.checkpoint_dir = checkpoint_dir;
    auto manager = MakeManager(std::move(options));
    ServerOptions server_options;
    server_options.max_connections = 16;  // exercise connection queueing
    Server server(manager.get(), ListenTcp(0).value(), server_options);
    server.Start();
    const uint16_t port = PortOfAddress(server.address()).value();

    std::vector<std::thread> clients;
    for (size_t i = 0; i < kSessions; ++i) {
      clients.emplace_back([&, i] {
        auto client = Client::ConnectTcp(port);
        ASSERT_TRUE(client.ok()) << client.status();
        auto session = client->Create(CreateRequestFor(i));
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
    EXPECT_EQ(manager->GetStats().live, kSessions);
    server.Shutdown();
  }

  // Phase 2: daemon B recovers everything and the clients finish their
  // sessions; every remaining line must equal the reference's.
  {
    ServeOptions options;
    options.mode = mode;
    options.checkpoint_dir = checkpoint_dir;
    auto manager = MakeManager(std::move(options));
    ASSERT_TRUE(manager->RecoverSessions().ok());
    EXPECT_EQ(manager->GetStats().recovered, kSessions);
    Server server(manager.get(), ListenTcp(0).value());
    server.Start();
    const uint16_t port = PortOfAddress(server.address()).value();

    std::vector<std::thread> clients;
    for (size_t i = 0; i < kSessions; ++i) {
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
  RunModeE2E(ServingMode::kManySessions);
}

TEST(ServerE2ETest, FewSessionsModeSurvivesDaemonRestart) {
  RunModeE2E(ServingMode::kFewSessions);
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
