// serve::Server over a scripted in-memory Transport: how many connections
// the daemon holds at once, and how its handlers ride out transient Accept
// failures. The fake transport counts every Accept call and hands out
// connections the test feeds and closes line by line.

#include "serve/server.h"

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serve/session_manager.h"
#include "serve/transport.h"
#include "util/status.h"

namespace jim::serve {
namespace {

constexpr auto kPatience = std::chrono::seconds(10);

/// The client end of one fake connection: lines to deliver, responses
/// written, and whether the client closed (EOF) or the server shut it.
struct Peer {
  std::mutex mutex;
  std::condition_variable changed;
  std::deque<std::string> inbound;
  std::vector<std::string> outbound;
  bool closed = false;
  bool shutdown = false;

  void Send(std::string line) {
    std::lock_guard<std::mutex> lock(mutex);
    inbound.push_back(std::move(line));
    changed.notify_all();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
    changed.notify_all();
  }
  /// Waits (bounded) for the `count`-th response line; "" on timeout.
  std::string Response(size_t count) {
    std::unique_lock<std::mutex> lock(mutex);
    if (!changed.wait_for(lock, kPatience,
                          [&] { return outbound.size() >= count; })) {
      return "";
    }
    return outbound[count - 1];
  }
};

class FakeConnection final : public Connection {
 public:
  explicit FakeConnection(std::shared_ptr<Peer> peer)
      : peer_(std::move(peer)) {}

  util::StatusOr<std::string> ReadLine() override {
    std::unique_lock<std::mutex> lock(peer_->mutex);
    peer_->changed.wait(lock, [&] {
      return peer_->shutdown || peer_->closed || !peer_->inbound.empty();
    });
    if (peer_->shutdown || peer_->inbound.empty()) {
      return util::NotFoundError("connection closed");
    }
    std::string line = std::move(peer_->inbound.front());
    peer_->inbound.pop_front();
    return line;
  }

  util::Status WriteLine(std::string_view line) override {
    std::lock_guard<std::mutex> lock(peer_->mutex);
    peer_->outbound.emplace_back(line);
    peer_->changed.notify_all();
    return util::OkStatus();
  }

  void ShutdownNow() override {
    std::lock_guard<std::mutex> lock(peer_->mutex);
    peer_->shutdown = true;
    peer_->changed.notify_all();
  }

 private:
  std::shared_ptr<Peer> peer_;
};

/// What the test scripts and observes of the fake transport. Accept fails
/// with kUnavailable while `failing`, otherwise blocks until a pending peer
/// or shutdown.
struct Listener {
  std::mutex mutex;
  std::condition_variable changed;
  std::deque<std::shared_ptr<Peer>> pending;
  bool failing = false;
  bool shutdown = false;
  size_t accept_calls = 0;
  size_t handed_out = 0;

  std::shared_ptr<Peer> Connect() {
    auto peer = std::make_shared<Peer>();
    std::lock_guard<std::mutex> lock(mutex);
    pending.push_back(peer);
    changed.notify_all();
    return peer;
  }
  void SetFailing(bool fail) {
    std::lock_guard<std::mutex> lock(mutex);
    failing = fail;
    changed.notify_all();
  }
  bool WaitHandedOut(size_t count) {
    std::unique_lock<std::mutex> lock(mutex);
    return changed.wait_for(lock, kPatience,
                            [&] { return handed_out >= count; });
  }
  size_t HandedOut() {
    std::lock_guard<std::mutex> lock(mutex);
    return handed_out;
  }
  size_t AcceptCalls() {
    std::lock_guard<std::mutex> lock(mutex);
    return accept_calls;
  }
};

class FakeTransport final : public Transport {
 public:
  explicit FakeTransport(std::shared_ptr<Listener> listener)
      : listener_(std::move(listener)) {}

  util::StatusOr<std::unique_ptr<Connection>> Accept() override {
    std::unique_lock<std::mutex> lock(listener_->mutex);
    ++listener_->accept_calls;
    if (!listener_->shutdown && listener_->failing) {
      return util::UnavailableError("accept: too many open files");
    }
    listener_->changed.wait(lock, [&] {
      return listener_->shutdown || !listener_->pending.empty();
    });
    if (listener_->shutdown) {
      return util::OutOfRangeError("transport shut down");
    }
    std::shared_ptr<Peer> peer = std::move(listener_->pending.front());
    listener_->pending.pop_front();
    ++listener_->handed_out;
    listener_->changed.notify_all();
    return std::unique_ptr<Connection>(new FakeConnection(std::move(peer)));
  }

  void ShutdownNow() override {
    std::lock_guard<std::mutex> lock(listener_->mutex);
    listener_->shutdown = true;
    listener_->changed.notify_all();
  }

  const std::string& address() const override { return address_; }

 private:
  std::shared_ptr<Listener> listener_;
  std::string address_ = "fake";
};

constexpr char kPing[] = R"({"verb":"ping"})";
constexpr char kPong[] = R"({"ok":true,"verb":"ping"})";

TEST(ServerTest, HoldsAtMostMaxConnectionsOpen) {
  SessionManager manager{ServeOptions{}};
  auto listener = std::make_shared<Listener>();
  ServerOptions options;
  options.max_connections = 2;
  Server server(&manager, std::make_unique<FakeTransport>(listener), options);
  std::vector<std::shared_ptr<Peer>> peers;
  for (int i = 0; i < 3; ++i) peers.push_back(listener->Connect());
  server.Start();

  ASSERT_TRUE(listener->WaitHandedOut(2));
  peers[0]->Send(kPing);
  peers[1]->Send(kPing);
  EXPECT_EQ(peers[0]->Response(1), kPong);
  EXPECT_EQ(peers[1]->Response(1), kPong);
  // Both handlers are busy: the third client stays with the transport.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(listener->HandedOut(), 2u);
  EXPECT_EQ(listener->AcceptCalls(), 2u);

  // A client hanging up frees its handler for the next one.
  peers[0]->Close();
  ASSERT_TRUE(listener->WaitHandedOut(3));
  peers[2]->Send(kPing);
  EXPECT_EQ(peers[2]->Response(1), kPong);

  server.Shutdown();
  for (const auto& peer : {peers[1], peers[2]}) {
    std::lock_guard<std::mutex> lock(peer->mutex);
    EXPECT_TRUE(peer->shutdown);
  }
}

TEST(ServerTest, TransientAcceptFailuresBackOffAndKeepServing) {
  SessionManager manager{ServeOptions{}};
  auto listener = std::make_shared<Listener>();
  listener->failing = true;
  ServerOptions options;
  options.max_connections = 1;
  Server server(&manager, std::make_unique<FakeTransport>(listener), options);
  const auto start = std::chrono::steady_clock::now();
  server.Start();

  // A stretch of failures: the one handler waits kAcceptRetryDelayMicros
  // after each, so it retries, but never more often than that.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const size_t calls = listener->AcceptCalls();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto delay = std::chrono::microseconds(kAcceptRetryDelayMicros);
  EXPECT_GE(calls, 2u);
  EXPECT_LE(calls, static_cast<size_t>(elapsed / delay) + 1);

  // The failures stop; the next connection is accepted and served.
  listener->SetFailing(false);
  std::shared_ptr<Peer> peer = listener->Connect();
  ASSERT_TRUE(listener->WaitHandedOut(1));
  peer->Send(kPing);
  EXPECT_EQ(peer->Response(1), kPong);
  server.Shutdown();
}

TEST(ServerTest, ShutdownEndsAHandlerThatIsBackingOff) {
  SessionManager manager{ServeOptions{}};
  auto listener = std::make_shared<Listener>();
  listener->failing = true;
  ServerOptions options;
  options.max_connections = 4;
  Server server(&manager, std::make_unique<FakeTransport>(listener), options);
  server.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Shutdown();  // returns: every handler left its retry wait
  EXPECT_EQ(listener->HandedOut(), 0u);
}

TEST(ServerDeathTest, MaxConnectionsOutsideTheBoundIsFatal) {
  SessionManager manager{ServeOptions{}};
  for (size_t bad : {size_t{0}, kMaxConnections + 1}) {
    ServerOptions options;
    options.max_connections = bad;
    // Construction only: nothing is started.
    EXPECT_DEATH(Server(&manager,
                        std::make_unique<FakeTransport>(
                            std::make_shared<Listener>()),
                        options),
                 "max_connections");
  }
}

}  // namespace
}  // namespace jim::serve
