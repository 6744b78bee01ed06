#ifndef PERFBENCH_HARNESS_DAEMON_H_
#define PERFBENCH_HARNESS_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>

#include "serve/server.h"
#include "serve/session_manager.h"
#include "storage/env.h"
#include "util/status.h"

namespace perfbench {

/// The name sessions and checkpoints refer to the instance by. It is fixed,
/// not the path, so a checkpoint's bytes do not depend on where the
/// benchmark's scratch directory is.
inline constexpr char kInstanceName[] = "instance.jimc";

struct DaemonConfig {
  std::string instance_path;
  std::string checkpoint_dir;  ///< empty: checkpoints off
  jim::storage::Env* env = nullptr;
};

/// An in-process serving daemon on a loopback TCP port: a SessionManager
/// with default ServeOptions (apart from the env, the checkpoint directory
/// and the default instance) behind a serve::Server. Destruction shuts the
/// server down and drops every session it held in memory.
class Daemon {
 public:
  /// Opens the instance with full validation, registers it (building its
  /// class prototype), recovers checkpointed sessions, and listens. When
  /// `recover_s` is given, it receives the seconds RecoverSessions took.
  static jim::util::StatusOr<std::unique_ptr<Daemon>> Start(
      const DaemonConfig& config, double* recover_s = nullptr);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  jim::serve::SessionManager& manager() { return *manager_; }

 private:
  Daemon() = default;

  std::unique_ptr<jim::serve::SessionManager> manager_;
  std::unique_ptr<jim::serve::Server> server_;  ///< borrows manager_
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_DAEMON_H_
