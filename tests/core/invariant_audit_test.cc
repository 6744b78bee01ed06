// The invariant auditor subsystem (util/check.h): every CheckInvariants
// audit passes on healthy structures across all storage backends and every
// engine mutation path, the JIM_AUDIT gate toggles as documented, and a
// violated contract actually dies with a diagnostic — an auditor that
// cannot fail wouldn't be auditing anything.

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/tuple_store.h"
#include "gtest/gtest.h"
#include "lattice/partition.h"
#include "relational/dictionary.h"
#include "relational/relation.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "support/core_views.h"
#include "support/refinements.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

using rel::Value;

std::shared_ptr<const rel::Relation> MixedRelation() {
  rel::Schema schema;
  schema.AddAttribute({"i", rel::ValueType::kInt64, ""});
  schema.AddAttribute({"d", rel::ValueType::kDouble, ""});
  schema.AddAttribute({"s", rel::ValueType::kString, "Q"});
  rel::Relation relation{"mixed", schema};
  relation.AddRowUnchecked({Value(int64_t{7}), Value(1.5), Value("x")});
  relation.AddRowUnchecked(
      {Value(int64_t{7}), Value(std::nan("")), Value("a,b\tc")});
  relation.AddRowUnchecked({Value::Null(), Value(std::nan("")), Value("")});
  relation.AddRowUnchecked({Value(int64_t{-3}), Value(1.5), Value("x")});
  return std::make_shared<const rel::Relation>(std::move(relation));
}

TEST(InvariantAuditTest, AuditGateTogglesAndSticks) {
  util::SetAuditInvariants(true);
  EXPECT_TRUE(util::AuditInvariantsEnabled());
  util::SetAuditInvariants(false);
  EXPECT_FALSE(util::AuditInvariantsEnabled());
  int audited = 0;
  JIM_AUDIT(++audited);
  EXPECT_EQ(audited, 0);  // gate off: the expression must not run
  util::SetAuditInvariants(true);
  JIM_AUDIT(++audited);
  EXPECT_EQ(audited, 1);
}

TEST(InvariantAuditTest, LatticeStructuresPassOnHealthyInputs) {
  lat::Partition::Top(5).CheckInvariants();
  lat::Singletons(5).CheckInvariants();
  lat::Partition::FromPairs(5, {{0, 2}, {1, 4}}).value().CheckInvariants();

  InferenceState state(4);
  for (const auto& pairs :
       std::vector<std::vector<std::pair<size_t, size_t>>>{
           {{0, 1}}, {{2, 3}}, {{0, 2}, {1, 3}}}) {
    ASSERT_TRUE(ApplyLabel(state, lat::Partition::FromPairs(4, pairs).value(),
                           Label::kNegative)
                    .ok());
  }
  EXPECT_EQ(state.num_forbidden(), 3u);
  state.CheckInvariants();
}

TEST(InvariantAuditTest, DictionaryWithNaNsAndDuplicatesPasses) {
  rel::Dictionary dictionary;
  const uint32_t a = dictionary.GetOrAdd(Value(int64_t{1}));
  EXPECT_EQ(dictionary.GetOrAdd(Value(int64_t{1})), a);
  const uint32_t nan1 = dictionary.GetOrAdd(Value(std::nan("")));
  const uint32_t nan2 = dictionary.GetOrAdd(Value(std::nan("")));
  EXPECT_NE(nan1, nan2);  // NaN ≠ NaN mints fresh codes
  dictionary.GetOrAdd(Value("x"));
  dictionary.GetOrAdd(Value(1.5));
  dictionary.CheckInvariants();
}

TEST(InvariantAuditTest, EveryStoreBackendPassesTheContractAudit) {
  const auto relation = MixedRelation();
  const auto in_memory = MakeRelationStore(relation);
  CheckStoreInvariants(*in_memory);

  const std::string path =
      ::testing::TempDir() + "invariant_audit_backends.jimc";
  ASSERT_TRUE(storage::WriteStore(*in_memory, path).ok());
  const auto mapped = storage::MappedTupleStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  (*mapped)->CheckInvariants();
  CheckStoreInvariants(**mapped);
}

TEST(InvariantAuditTest, EngineAuditHoldsThroughASessionOnEveryPath) {
  util::Rng rng(41);
  workload::SyntheticSpec spec;
  spec.num_attributes = 5;
  spec.num_tuples = 120;
  spec.domain_size = 3;
  spec.goal_constraints = 2;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);

  util::SetAuditInvariants(true);
  InferenceEngine engine(workload.instance);  // ctor runs JIM_AUDIT itself
  engine.CheckInvariants();

  // Drive a session: every accepted label re-audits inside Submit*, and the
  // explicit audits here pin the state between mutations. Alternate tuple
  // and class labels to cover both paths, plus a rejected duplicate label
  // (the audit must hold on rejection too).
  int labeled = 0;
  while (!engine.InformativeClasses().empty() && labeled < 8) {
    const size_t cls = engine.InformativeClasses().front();
    const Label label =
        labeled % 2 == 0 ? Label::kPositive : Label::kNegative;
    const Label opposite =
        labeled % 2 == 0 ? Label::kNegative : Label::kPositive;
    const util::Status accepted = engine.SubmitClassLabel(cls, label);
    ASSERT_TRUE(accepted.ok()) << accepted.ToString();
    engine.CheckInvariants();
    EXPECT_FALSE(engine.SubmitClassLabel(cls, opposite).ok());
    engine.CheckInvariants();
    ++labeled;
  }
  EXPECT_GT(labeled, 0);

  // An engine copy and its original must both audit clean after the copy
  // diverges.
  InferenceEngine clone(engine);
  if (!clone.InformativeClasses().empty()) {
    const size_t cls = clone.InformativeClasses().front();
    ASSERT_TRUE(clone.SubmitClassLabel(cls, Label::kNegative).ok());
  }
  clone.CheckInvariants();
  engine.CheckInvariants();
  util::SetAuditInvariants(false);
}

TEST(InvariantAuditDeathTest, CheckMacrosDieWithTheStreamedDiagnostic) {
  EXPECT_DEATH(JIM_CHECK(1 + 1 == 3) << "arithmetic drift", "arithmetic");
  EXPECT_DEATH(JIM_CHECK_EQ(2, 3) << "equality", "2 vs 3");
  JIM_CHECK(true) << "never evaluated";  // the passing side stays silent
}

TEST(InvariantAuditDeathTest, ViolatedStoreContractIsFatal) {
  // A backend that lies: TupleCodes reports a different code than code().
  // The contract audit must catch it and say which cell.
  class LyingStore final : public TupleStore {
   public:
    explicit LyingStore(std::shared_ptr<const TupleStore> base)
        : base_(std::move(base)) {}
    const std::string& name() const override { return base_->name(); }
    const rel::Schema& schema() const override { return base_->schema(); }
    size_t num_tuples() const override { return base_->num_tuples(); }
    uint32_t code(size_t t, size_t a) const override {
      return base_->code(t, a);
    }
    void TupleCodes(size_t t, uint32_t* out) const override {
      base_->TupleCodes(t, out);
      if (t == 1) out[0] ^= 1;
    }
    rel::Value DecodeValue(size_t t, size_t a) const override {
      return base_->DecodeValue(t, a);
    }
    size_t ApproxBytes() const override { return base_->ApproxBytes(); }

   private:
    std::shared_ptr<const TupleStore> base_;
  };
  const LyingStore lying(MakeRelationStore(MixedRelation()));
  EXPECT_DEATH(CheckStoreInvariants(lying), "TupleCodes disagrees");
}

}  // namespace
}  // namespace jim::core
