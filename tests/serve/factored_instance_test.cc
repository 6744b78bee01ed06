// Serving a two-factor JIMC file: sessions played through SessionManager
// over the file and over the in-memory universal table it was written from
// pick the same classes, show the same tuples, prune the same amounts and
// reach the same results — also across a kill and RecoverSessions — and the
// file's store satisfies every store invariant.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/jim.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "query/universal_table.h"
#include "serve/session_manager.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/travel.h"

namespace jim::serve {
namespace {

const bool kSharedPoolSized = [] {
  exec::SetDefaultThreads(4);
  return true;
}();

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "factored_instance_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// One instance served two ways: each manager checkpoints into its own
/// directory and registers its store under the same instance name.
struct Side {
  std::shared_ptr<const core::TupleStore> store;
  ServeOptions options;
  std::unique_ptr<SessionManager> manager;

  void Start() {
    manager = std::make_unique<SessionManager>(options);
    manager->RegisterInstance("travel", store);
  }
};

/// Everything a client sees of one step, rendered for comparison.
std::string Render(const SessionManager::SuggestResult& suggested) {
  std::string text = util::StrFormat(
      "done=%d step=%zu class=%zu tuple=%zu size=%zu", suggested.done,
      suggested.step, suggested.class_id, suggested.tuple_index,
      suggested.class_size);
  for (const std::string& value : suggested.values) text += " " + value;
  return text;
}

std::string Render(const SessionManager::LabelResult& labeled) {
  return util::StrFormat("step=%zu pruned=%zu/%zu wasted=%d done=%d",
                         labeled.step, labeled.pruned_classes,
                         labeled.pruned_tuples, labeled.wasted, labeled.done);
}

TEST(FactoredInstanceTest, SessionsOverTheFileMatchTheInMemoryTable) {
  util::Rng rng(2014);
  const rel::Catalog catalog =
      workload::LargeTravelCatalog(/*num_flights=*/40, /*num_hotels=*/25,
                                   /*num_cities=*/6, /*num_airlines=*/3, rng);
  query::UniversalTableOptions table_options;
  table_options.sample_cap = 0;
  const auto table =
      query::UniversalTable::Build(catalog, {"Flights", "Hotels"},
                                   table_options)
          .value();
  ASSERT_EQ(table.store()->Factors().size(), 2u);

  const std::string path = ::testing::TempDir() + "factored_instance.jimc";
  ASSERT_TRUE(storage::WriteStore(*table.store(), path).ok());
  const auto mapped = storage::MappedTupleStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_EQ((*mapped)->Factors().size(), 2u);
  (*mapped)->CheckInvariants();
  core::CheckStoreInvariants(**mapped);
  core::CheckStoreInvariants(*table.store());

  Side file;
  file.store = *mapped;
  file.options.checkpoint_dir = FreshDir("file");
  file.options.default_instance = "travel";
  file.Start();
  Side memory;
  memory.store = table.store();
  memory.options.checkpoint_dir = FreshDir("memory");
  memory.options.default_instance = "travel";
  memory.Start();

  const std::vector<std::string> goals = {
      "Flights.To = Hotels.City",
      "Flights.From = Hotels.City && Flights.Airline = Hotels.Discount",
      "Flights.From = Flights.To"};
  const std::vector<std::string> strategies = {"random", "local-bottom-up",
                                               "lookahead-entropy"};
  struct Played {
    std::string id;
    util::DynamicBitset selected;
  };
  std::vector<Played> sessions;
  for (size_t g = 0; g < goals.size(); ++g) {
    const auto goal =
        core::JoinPredicate::Parse(table.schema(), goals[g]).value();
    for (size_t s = 0; s < strategies.size(); ++s) {
      const uint64_t seed = 7 + 3 * g + s;
      const auto a = file.manager->Create("", strategies[s], goals[g], seed, 0);
      const auto b =
          memory.manager->Create("", strategies[s], goals[g], seed, 0);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_EQ(a->session_id, b->session_id);
      ASSERT_EQ(a->num_classes, b->num_classes);
      sessions.push_back({a->session_id, goal.SelectedRows(*table.store())});
    }
  }

  // Plays up to `steps` labels of every session on both sides, comparing
  // every reply.
  const auto play = [&](size_t steps) {
    for (const Played& session : sessions) {
      for (size_t step = 0; step < steps; ++step) {
        const auto a = file.manager->Suggest(session.id);
        const auto b = memory.manager->Suggest(session.id);
        ASSERT_TRUE(a.ok()) << a.status();
        ASSERT_TRUE(b.ok()) << b.status();
        ASSERT_EQ(Render(*a), Render(*b)) << session.id;
        if (a->done) break;
        const bool answer = session.selected.Test(a->tuple_index);
        const auto la = file.manager->Label(session.id, a->class_id, answer);
        const auto lb = memory.manager->Label(session.id, b->class_id, answer);
        ASSERT_TRUE(la.ok()) << la.status();
        ASSERT_TRUE(lb.ok()) << lb.status();
        ASSERT_EQ(Render(*la), Render(*lb)) << session.id;
      }
    }
  };
  play(2);

  // Kill both daemons mid-session: every accepted label is checkpointed, so
  // fresh managers recover every session and continue identically.
  file.Start();
  memory.Start();
  ASSERT_TRUE(file.manager->RecoverSessions().ok());
  ASSERT_TRUE(memory.manager->RecoverSessions().ok());
  EXPECT_EQ(file.manager->GetStats().recovered, sessions.size());
  EXPECT_EQ(memory.manager->GetStats().recovered, sessions.size());
  play(1000);

  for (const Played& session : sessions) {
    const auto a = file.manager->Result(session.id);
    const auto b = memory.manager->Result(session.id);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_TRUE(a->done) << session.id;
    EXPECT_TRUE(a->identified_goal) << session.id;
    EXPECT_EQ(a->predicate, b->predicate) << session.id;
    EXPECT_EQ(a->identified_goal, b->identified_goal) << session.id;
  }
}

}  // namespace
}  // namespace jim::serve
