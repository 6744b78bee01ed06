// jim_cli — drive JIM against your own data.
//
// Subcommands:
//   infer <file.csv> [--strategy=NAME] [--mode=1..4] [--goal=PRED] [--auto]
//       Interactive join inference over a CSV instance (header row =
//       attribute names; column types inferred). With --auto a simulated
//       user labels according to --goal (required then).
//   classes <file.csv>
//       Show the tuple equivalence classes JIM reasons over.
//   eval <file.csv> --query=PRED
//       Evaluate an equi-join predicate on the instance.
//   strategies
//       List the available question-selection strategies.
//   serve [--load-instance=FILE.jimc] [--port=N | --stdio]
//         [--checkpoint-dir=DIR] [--max-sessions=N] [--max-steps=N]
//         [--max-connections=N]
//       Run the inference daemon (newline-delimited JSON verbs: create,
//       suggest, label, status, result, close, stats, ping, shutdown).
//       --port listens on localhost TCP (0 = ephemeral; the bound address
//       is printed as "serving on 127.0.0.1:PORT"); --stdio serves one
//       session over stdin/stdout instead. With --checkpoint-dir every
//       live session is recovered on restart. See src/serve/README.md.
//   call --port=N '<json-line>' ['<json-line>' ...]
//       Send request lines to a running daemon and print the raw
//       response lines.
//
// Persistent instances (infer/classes/eval):
//   --save-instance=FILE.jimc   after loading, persist the encoded instance
//       as an mmap-ready JIMC columnar file (confirmation goes to stderr so
//       saved-vs-loaded session transcripts stay diffable);
//   --load-instance=FILE.jimc   serve the instance zero-copy from a JIMC
//       file instead of parsing a CSV — sessions are byte-identical to the
//       in-memory instance the file was written from.
//
// Observability (any subcommand):
//   --metrics-out=FILE   enable the process-wide metrics registry, route
//       storage I/O through a counting storage::MetricsEnv, and write the
//       final snapshot (engine/exec/storage counters, gauges, histograms)
//       to FILE as JSON. Metrics never change behavior: the stdout
//       transcript is byte-identical with and without this flag.
//   --trace[=FILE]       (infer) record one structured event per label
//       (question, answer, pruning, worklist, simulate-call cost) and
//       write the session trace JSON to FILE, or to stderr when no file
//       is given — stdout stays diff-clean either way.
//
// Examples:
//   jim_cli infer flights.csv
//   jim_cli infer flights.csv --auto --goal="To=City && Airline=Discount"
//   jim_cli eval flights.csv --query="To=City"
//   jim_cli infer flights.csv --save-instance=flights.jimc
//   jim_cli infer --load-instance=flights.jimc --auto --goal="To=City"

#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/jim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/csv_io.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "serve/transport.h"
#include "storage/env.h"
#include "storage/mapped_store.h"
#include "storage/metrics_env.h"
#include "storage/store_writer.h"
#include "ui/console_ui.h"
#include "ui/demo_runner.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/travel.h"

namespace {

using namespace jim;

int Fail(const std::string& message) {
  std::cerr << "jim_cli: " << message << "\n";
  return 2;
}

struct Flags {
  std::map<std::string, std::string> named;
  std::vector<std::string> positional;

  bool Has(const std::string& name) const { return named.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = named.find(name);
    return it == named.end() ? fallback : it->second;
  }
};

// The Env all CLI storage I/O goes through. With --metrics-out the ops and
// bytes are counted into the "storage.*" registry metrics; otherwise the
// nullptr falls through to DefaultEnv inside the storage entry points.
storage::Env* CliEnv() {
  if (!obs::MetricsEnabled()) return nullptr;
  static storage::MetricsEnv env;  // wraps DefaultEnv
  return &env;
}

util::Status WriteTextFile(const std::string& path,
                           const std::string& contents) {
  storage::Env* env = CliEnv();
  if (env == nullptr) env = storage::DefaultEnv();
  return storage::WriteFileAtomically(*env, path, contents + "\n");
}

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::StartsWith(arg, "--")) {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags.named[arg.substr(2)] = "true";
      } else {
        flags.named[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

// Resolves the instance behind the TupleStore seam: a CSV parse + encode, or
// a zero-copy reopen of a JIMC file (--load-instance). --save-instance then
// persists whichever store was loaded; its note goes to stderr so a saved
// session's stdout transcript diffs clean against the reloaded one.
util::StatusOr<std::shared_ptr<const core::TupleStore>> LoadStore(
    const Flags& flags) {
  std::shared_ptr<const core::TupleStore> store;
  if (flags.Has("load-instance")) {
    if (!flags.positional.empty()) {
      // Accepting both would silently serve whichever one we picked —
      // e.g. a stale snapshot instead of the CSV actually named.
      return util::InvalidArgumentError(
          "got both a CSV argument ('" + flags.positional[0] +
          "') and --load-instance; pass exactly one instance source");
    }
    auto opened = storage::OpenStore(flags.Get("load-instance"), CliEnv());
    if (!opened.ok()) return opened.status();
    store = *std::move(opened);
  } else {
    if (flags.positional.empty()) {
      return util::InvalidArgumentError(
          "expected a CSV file argument (or --load-instance=FILE.jimc)");
    }
    auto relation = rel::LoadRelationFromCsvFile(flags.positional[0]);
    if (!relation.ok()) return relation.status();
    store = core::MakeRelationStore(
        std::make_shared<const rel::Relation>(*std::move(relation)));
  }
  if (flags.Has("save-instance")) {
    const std::string path = flags.Get("save-instance");
    storage::StoreWriterOptions write_options;
    write_options.env = CliEnv();
    const util::Status saved = storage::WriteStore(*store, path, write_options);
    if (!saved.ok()) return saved;
    std::cerr << "jim_cli: saved instance to " << path << "\n";
  }
  return store;
}

// No-argument default: auto-infer Q2 on the bundled Figure 1 instance, so
// the binary demonstrates itself (and CI can run it) without needing a CSV.
int CmdDemo() {
  std::cout << "jim_cli: no command given — running the built-in Figure 1 "
               "demo (auto mode).\n"
               "usage: jim_cli {infer|classes|eval|strategies} ...  "
               "(see the header of examples/jim_cli.cpp)\n\n";
  auto store = workload::Figure1StorePtr();
  auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();
  ui::DemoOptions options;
  options.strategy = "lookahead-entropy";
  options.auto_oracle = std::make_unique<core::ExactOracle>(goal);
  auto result =
      ui::RunConsoleDemo(store, std::move(options), std::cin, std::cout);
  if (!result.ok()) return Fail(result.status().ToString());
  const bool identified = core::InstanceEquivalent(*store, *result, goal);
  std::cout << "identified the goal: " << (identified ? "yes" : "NO") << "\n";
  return identified ? 0 : 1;
}

int CmdStrategies(const Flags& /*flags*/) {
  std::cout << "available strategies:\n";
  for (const std::string& name : core::KnownStrategyNames()) {
    std::cout << "  " << name << "\n";
  }
  return 0;
}

int CmdClasses(const Flags& flags) {
  auto store = LoadStore(flags);
  if (!store.ok()) return Fail(store.status().ToString());
  core::InferenceEngine engine(*store);
  std::cout << "instance: " << (*store)->num_tuples() << " tuples, "
            << (*store)->num_attributes() << " attributes, "
            << engine.num_classes() << " tuple classes\n\n";
  util::TablePrinter table({"class", "value partition", "tuples", "example"});
  table.SetAlignments({util::Align::kRight, util::Align::kLeft,
                       util::Align::kRight, util::Align::kLeft});
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    const auto& cls = engine.tuple_class(c);
    table.AddRow({std::to_string(c), engine.ClassPartition(c).ToString(),
                  std::to_string(cls.size()),
                  ui::RenderTuple(**store, cls.tuple_indices[0])});
  }
  std::cout << table.ToString()
            << "\n(tuples in one class are interchangeable: labeling one "
               "determines all of them)\n";
  return 0;
}

int CmdEval(const Flags& flags) {
  auto store = LoadStore(flags);
  if (!store.ok()) return Fail(store.status().ToString());
  if (!flags.Has("query")) return Fail("eval needs --query=\"a=b && ...\"");
  auto predicate =
      core::JoinPredicate::Parse((*store)->schema(), flags.Get("query"));
  if (!predicate.ok()) return Fail(predicate.status().ToString());
  const auto selected = predicate->SelectedRows(**store);
  std::cout << "predicate: " << predicate->ToString() << "\n"
            << "selects " << selected.Count() << " of "
            << (*store)->num_tuples() << " tuples:\n";
  for (size_t t : selected.ToVector()) {
    std::cout << "  (" << t + 1 << ") " << ui::RenderTuple(**store, t)
              << "\n";
  }
  return 0;
}

int CmdInfer(const Flags& flags) {
  auto store = LoadStore(flags);
  if (!store.ok()) return Fail(store.status().ToString());

  ui::DemoOptions options;
  options.strategy = flags.Get("strategy", "lookahead-entropy");
  const auto mode_or = core::ParseInteractionMode(flags.Get("mode", "4"));
  if (!mode_or.ok()) return Fail("--mode: " + mode_or.status().message());
  options.mode = *mode_or;

  std::optional<core::JoinPredicate> goal;
  if (flags.Has("goal")) {
    auto parsed =
        core::JoinPredicate::Parse((*store)->schema(), flags.Get("goal"));
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    goal = *std::move(parsed);
  }
  if (flags.Has("auto")) {
    if (!goal.has_value()) return Fail("--auto requires --goal");
    options.auto_oracle = std::make_unique<core::ExactOracle>(*goal);
  }

  obs::SessionTracer tracer;
  const bool tracing = flags.Has("trace");
  if (tracing) options.tracer = &tracer;

  auto result =
      ui::RunConsoleDemo(*store, std::move(options), std::cin, std::cout);
  if (tracing) {
    // Emitted even for an aborted session — a partial trace is exactly what
    // post-mortems want. "true" is the bare-flag value; it means stderr.
    const std::string trace_out = flags.Get("trace");
    if (trace_out.empty() || trace_out == "true") {
      std::cerr << tracer.ToJson() << "\n";
    } else {
      const util::Status written = WriteTextFile(trace_out, tracer.ToJson());
      if (!written.ok()) return Fail(written.ToString());
      std::cerr << "jim_cli: wrote session trace to " << trace_out << "\n";
    }
  }
  if (!result.ok()) return Fail(result.status().ToString());
  if (goal.has_value()) {
    std::cout << "identified the goal: "
              << (core::InstanceEquivalent(**store, *result, *goal)
                      ? "yes"
                      : "NO")
              << "\n";
  }
  return 0;
}

// The inference daemon: a SessionManager (optionally checkpointed and
// recovering) behind a Server over localhost TCP or stdio.
int CmdServe(const Flags& flags) {
  serve::ServeOptions serve_options;
  serve_options.env = CliEnv();
  serve_options.checkpoint_dir = flags.Get("checkpoint-dir");
  if (flags.Has("max-sessions")) {
    auto parsed = util::ParseInt64(flags.Get("max-sessions"));
    if (!parsed.ok() || *parsed < 1) return Fail("--max-sessions: bad value");
    serve_options.max_sessions = static_cast<size_t>(*parsed);
  }
  if (flags.Has("max-steps")) {
    auto parsed = util::ParseInt64(flags.Get("max-steps"));
    if (!parsed.ok() || *parsed < 1) return Fail("--max-steps: bad value");
    serve_options.default_max_steps = static_cast<uint64_t>(*parsed);
  }
  if (flags.Has("load-instance")) {
    serve_options.default_instance = flags.Get("load-instance");
  }
  serve::ServerOptions server_options;
  if (flags.Has("max-connections")) {
    // Each connection is served by a thread of its own, hence the bound.
    auto parsed = util::ParseInt64(flags.Get("max-connections"));
    if (!parsed.ok() || *parsed < 1 ||
        *parsed > static_cast<int64_t>(serve::kMaxConnections)) {
      return Fail(util::StrFormat("--max-connections: must be in [1, %zu]",
                                  serve::kMaxConnections));
    }
    server_options.max_connections = static_cast<size_t>(*parsed);
  }

  serve::SessionManager manager(std::move(serve_options));
  if (flags.Has("load-instance")) {
    // Open eagerly so a bad path fails at startup, and register under the
    // path so `create` requests (and recovered checkpoints) name it.
    const std::string path = flags.Get("load-instance");
    auto store = storage::OpenStore(path, CliEnv());
    if (!store.ok()) return Fail(store.status().ToString());
    manager.RegisterInstance(path, *std::move(store));
  }
  const util::Status recovered = manager.RecoverSessions();
  if (!recovered.ok()) return Fail(recovered.ToString());

  const bool stdio = flags.Has("stdio");
  util::StatusOr<std::unique_ptr<serve::Transport>> transport =
      util::UnimplementedError("no transport");
  if (stdio) {
    transport = serve::StdioTransport();
    // The stdio transport yields exactly one connection: one handler.
    server_options.max_connections = 1;
  } else {
    int64_t port = 0;
    if (flags.Has("port")) {
      auto parsed = util::ParseInt64(flags.Get("port"));
      if (!parsed.ok() || *parsed < 0 || *parsed > 65535) {
        return Fail("--port: bad value");
      }
      port = *parsed;
    }
    transport = serve::ListenTcp(static_cast<uint16_t>(port));
  }
  if (!transport.ok()) return Fail(transport.status().ToString());

  serve::Server server(&manager, std::move(*transport), server_options);
  server.Start();
  if (stdio) {
    // Stdout is the protocol stream; the address note goes to stderr.
    std::cerr << "jim_cli: serving on " << server.address() << "\n";
  } else {
    std::cout << "serving on " << server.address() << std::endl;
  }
  server.Wait();
  return 0;
}

int CmdCall(const Flags& flags) {
  if (!flags.Has("port")) return Fail("call needs --port=N");
  auto port = util::ParseInt64(flags.Get("port"));
  if (!port.ok() || *port < 1 || *port > 65535) {
    return Fail("--port: bad value");
  }
  auto client = serve::Client::ConnectTcp(static_cast<uint16_t>(*port));
  if (!client.ok()) return Fail(client.status().ToString());
  for (const std::string& line : flags.positional) {
    auto response = client->CallRaw(line);
    if (!response.ok()) return Fail(response.status().ToString());
    std::cout << *response << "\n";
  }
  return 0;
}

// A subcommand with its usage line and the named flags it reads; any other
// flag is refused, so a stale or misspelled one cannot be silently ignored.
// --metrics-out is read by main for every subcommand.
struct Subcommand {
  std::string name;
  std::string usage;
  std::vector<std::string> flags;
  int (*run)(const Flags& flags);
};

const std::vector<Subcommand>& Subcommands() {
  static const std::vector<Subcommand> kSubcommands = {
      {"infer",
       "infer {<file.csv> | --load-instance=FILE.jimc} "
       "[--save-instance=FILE.jimc] [--strategy=NAME] [--mode=1..4] "
       "[--goal=PRED] [--auto] [--trace[=FILE]]",
       {"strategy", "mode", "goal", "auto", "trace", "load-instance",
        "save-instance"},
       CmdInfer},
      {"classes",
       "classes {<file.csv> | --load-instance=FILE.jimc} "
       "[--save-instance=FILE.jimc]",
       {"load-instance", "save-instance"},
       CmdClasses},
      {"eval",
       "eval {<file.csv> | --load-instance=FILE.jimc} "
       "[--save-instance=FILE.jimc] --query=PRED",
       {"query", "load-instance", "save-instance"},
       CmdEval},
      {"strategies", "strategies", {}, CmdStrategies},
      {"serve",
       "serve [--load-instance=FILE.jimc] [--port=N | --stdio] "
       "[--checkpoint-dir=DIR] [--max-sessions=N] [--max-steps=N] "
       "[--max-connections=N]",
       {"load-instance", "port", "stdio", "checkpoint-dir", "max-sessions",
        "max-steps", "max-connections"},
       CmdServe},
      {"call", "call --port=N '<json-line>' ['<json-line>' ...]", {"port"},
       CmdCall},
  };
  return kSubcommands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return CmdDemo();
  const std::string command = argv[1];
  const Flags flags = ParseFlags(argc, argv, 2);
  const Subcommand* subcommand = nullptr;
  for (const Subcommand& candidate : Subcommands()) {
    if (candidate.name == command) subcommand = &candidate;
  }
  if (subcommand == nullptr) {
    return Fail("unknown command '" + command + "'");
  }
  for (const auto& [name, value] : flags.named) {
    if (name != "metrics-out" &&
        std::find(subcommand->flags.begin(), subcommand->flags.end(),
                  name) == subcommand->flags.end()) {
      return Fail("unknown flag --" + name + " for '" + command +
                  "'\nusage: jim_cli " + subcommand->usage +
                  " [--metrics-out=FILE]");
    }
  }
  // Metrics switch on before any work so engine construction, session
  // strategy pools, and storage I/O are all visible in the snapshot.
  if (flags.Has("metrics-out")) obs::SetMetricsEnabled(true);

  const int rc = subcommand->run(flags);

  if (flags.Has("metrics-out")) {
    const std::string path = flags.Get("metrics-out");
    const util::Status written = WriteTextFile(
        path, obs::MetricsRegistry::Instance().Snapshot().ToJson());
    if (!written.ok()) return Fail(written.ToString());
    std::cerr << "jim_cli: wrote metrics snapshot to " << path << "\n";
  }
  return rc;
}
