#include "harness/daemon.h"

#include <utility>

#include "harness/stats.h"
#include "serve/transport.h"
#include "storage/mapped_store.h"

namespace perfbench {

jim::util::StatusOr<std::unique_ptr<Daemon>> Daemon::Start(
    const DaemonConfig& config, double* recover_s) {
  jim::storage::OpenOptions open_options;
  open_options.env = config.env;
  ASSIGN_OR_RETURN(std::shared_ptr<const jim::core::TupleStore> store,
                   jim::storage::OpenStore(config.instance_path, open_options));

  jim::serve::ServeOptions options;
  options.env = config.env;
  options.checkpoint_dir = config.checkpoint_dir;
  options.default_instance = kInstanceName;
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->manager_ =
      std::make_unique<jim::serve::SessionManager>(std::move(options));
  daemon->manager_->RegisterInstance(kInstanceName, std::move(store));
  const int64_t start = NowNanos();
  RETURN_IF_ERROR(daemon->manager_->RecoverSessions());
  if (recover_s != nullptr) {
    *recover_s = static_cast<double>(NowNanos() - start) * 1e-9;
  }

  ASSIGN_OR_RETURN(std::unique_ptr<jim::serve::Transport> transport,
                   jim::serve::ListenTcp(0));
  daemon->server_ = std::make_unique<jim::serve::Server>(
      daemon->manager_.get(), std::move(transport));
  ASSIGN_OR_RETURN(daemon->port_,
                   jim::serve::PortOfAddress(daemon->server_->address()));
  daemon->server_->Start();
  return daemon;
}

Daemon::~Daemon() {
  if (server_ != nullptr) server_->Shutdown();
}

}  // namespace perfbench
