// The conditioning subsystem: constraint store (ASSERT evidence as
// flattened DNF lineage), posterior conf()/aconf()/tconf()/esum()/ecount(),
// `possible` under evidence, world pruning/renormalization, the SQL
// surface (ASSERT / ASSERT CONFIDENCE / CONDITION ON / SHOW EVIDENCE /
// CLEAR EVIDENCE), and evidence persistence.
#include <gtest/gtest.h>

#include <cmath>

#include "src/cond/constraint_store.h"
#include "src/cond/posterior.h"
#include "src/conf/exact.h"
#include "src/engine/database.h"
#include "src/storage/persist.h"

namespace maybms {
namespace {

constexpr double kTol = 1e-9;

// ---------------------------------------------------------------------------
// ConstraintStore unit tests
// ---------------------------------------------------------------------------

class ConstraintStoreTest : public ::testing::Test {
 protected:
  ConstraintStoreTest() {
    v0_ = *wt_.NewVariable({0.5, 0.5});
    v1_ = *wt_.NewVariable({0.3, 0.7});
    v2_ = *wt_.NewVariable({0.2, 0.8});
  }

  Condition C(std::vector<Atom> atoms) {
    return *Condition::FromAtoms(std::move(atoms));
  }

  WorldTable wt_;
  VarId v0_, v1_, v2_;
  ExactOptions exact_;
};

TEST_F(ConstraintStoreTest, InactiveByDefault) {
  ConstraintStore cs;
  EXPECT_FALSE(cs.active());
  EXPECT_DOUBLE_EQ(cs.probability(), 1.0);
  EXPECT_EQ(cs.ToString(), "true");
  // With no evidence, CompatiblePositive is exactly P(cond) > 0.
  EXPECT_TRUE(cs.CompatiblePositive(C({{v0_, 0}}), wt_));
}

TEST_F(ConstraintStoreTest, ConjoinKeepsDisjunctiveClauses) {
  ConstraintStore cs;
  Dnf ev;
  ev.AddClause(C({{v0_, 0}, {v1_, 0}}));
  ev.AddClause(C({{v0_, 1}, {v1_, 1}}));
  ASSERT_TRUE(cs.Conjoin(ev, wt_, exact_).ok());
  EXPECT_TRUE(cs.active());
  EXPECT_EQ(cs.NumClauses(), 2u);
  // P(C) = 0.5·0.3 + 0.5·0.7.
  EXPECT_NEAR(cs.probability(), 0.5, kTol);
  EXPECT_TRUE(cs.MentionsVar(v0_));
  EXPECT_TRUE(cs.MentionsVar(v1_));
  EXPECT_FALSE(cs.MentionsVar(v2_));
  // Both variables are restricted (bound in every clause) but neither is
  // determined.
  std::vector<VarRestriction> rs = cs.Restrictions();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].allowed.size(), 2u);
  EXPECT_EQ(rs[1].allowed.size(), 2u);
  EXPECT_TRUE(cs.DeterminedAtoms().empty());
}

TEST_F(ConstraintStoreTest, ConjoinFlattensConjunction) {
  ConstraintStore cs;
  Dnf first;
  first.AddClause(C({{v0_, 0}}));
  first.AddClause(C({{v1_, 0}}));
  ASSERT_TRUE(cs.Conjoin(first, wt_, exact_).ok());
  // P(v0=0 ∨ v1=0) = 1 − 0.5·0.7 = 0.65.
  EXPECT_NEAR(cs.probability(), 0.65, kTol);

  Dnf second;
  second.AddClause(C({{v0_, 0}}));
  ASSERT_TRUE(cs.Conjoin(second, wt_, exact_).ok());
  // (v0=0 ∨ v1=0) ∧ v0=0 simplifies (absorption) to v0=0.
  EXPECT_EQ(cs.NumClauses(), 1u);
  EXPECT_NEAR(cs.probability(), 0.5, kTol);
  // v0 is now fully determined.
  std::vector<Atom> det = cs.DeterminedAtoms();
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det[0].var, v0_);
  EXPECT_EQ(det[0].asg, 0u);
}

TEST_F(ConstraintStoreTest, InconsistentConjoinLeavesStoreUnchanged) {
  ConstraintStore cs;
  Dnf first;
  first.AddClause(C({{v0_, 0}}));
  ASSERT_TRUE(cs.Conjoin(first, wt_, exact_).ok());
  double p_before = cs.probability();

  Dnf contradiction;
  contradiction.AddClause(C({{v0_, 1}}));
  Status st = cs.Conjoin(contradiction, wt_, exact_);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("inconsistent evidence"), std::string::npos);
  // Untouched.
  EXPECT_TRUE(cs.active());
  EXPECT_EQ(cs.NumClauses(), 1u);
  EXPECT_DOUBLE_EQ(cs.probability(), p_before);
}

TEST_F(ConstraintStoreTest, EmptyAndCertainEvidence) {
  ConstraintStore cs;
  Dnf empty;
  EXPECT_EQ(cs.Conjoin(empty, wt_, exact_).code(),
            StatusCode::kInvalidArgument);
  Dnf certain;
  certain.AddClause(Condition());  // empty clause: evidence is true
  ASSERT_TRUE(cs.Conjoin(certain, wt_, exact_).ok());
  EXPECT_FALSE(cs.active());  // C ∧ true = C
}

TEST_F(ConstraintStoreTest, CompatiblePositiveUnderEvidence) {
  ConstraintStore cs;
  Dnf ev;
  ev.AddClause(C({{v0_, 0}, {v1_, 0}}));
  ev.AddClause(C({{v0_, 1}, {v1_, 1}}));
  ASSERT_TRUE(cs.Conjoin(ev, wt_, exact_).ok());
  // v0=0 is compatible (via the first clause) …
  EXPECT_TRUE(cs.CompatiblePositive(C({{v0_, 0}}), wt_));
  // … v0=0 ∧ v1=1 conflicts with both clauses.
  EXPECT_FALSE(cs.CompatiblePositive(C({{v0_, 0}, {v1_, 1}}), wt_));
  // Variables outside the constraint stay compatible.
  EXPECT_TRUE(cs.CompatiblePositive(C({{v2_, 1}}), wt_));
}

TEST_F(ConstraintStoreTest, SubstituteDividesOutDeterminedVars) {
  ConstraintStore cs;
  Dnf ev;
  ev.AddClause(C({{v0_, 0}, {v1_, 0}}));
  ev.AddClause(C({{v0_, 0}, {v1_, 1}}));
  ASSERT_TRUE(cs.Conjoin(ev, wt_, exact_).ok());
  std::vector<Atom> det = cs.DeterminedAtoms();
  ASSERT_EQ(det.size(), 1u);  // v0 → 0 in both clauses
  ASSERT_TRUE(wt_.CollapseVariable(v0_, 0).ok());
  ASSERT_TRUE(cs.Substitute(det, wt_, exact_).ok());
  // Residual: v1=0 ∨ v1=1 — a clause never shrinks to empty here, but the
  // two residual clauses cover the full domain of v1, so P(C') = 1.
  EXPECT_TRUE(cs.active());
  EXPECT_FALSE(cs.MentionsVar(v0_));
  EXPECT_NEAR(cs.probability(), 1.0, kTol);
}

TEST_F(ConstraintStoreTest, PosteriorExactMatchesHandComputation) {
  ConstraintStore cs;
  Dnf ev;  // C: v0 and v1 agree
  ev.AddClause(C({{v0_, 0}, {v1_, 0}}));
  ev.AddClause(C({{v0_, 1}, {v1_, 1}}));
  ASSERT_TRUE(cs.Conjoin(ev, wt_, exact_).ok());

  Dnf q;  // Q: v0 = 0
  q.AddClause(C({{v0_, 0}}));
  auto p = PosteriorExactConfidence(q, cs, wt_, exact_, nullptr);
  ASSERT_TRUE(p.ok());
  // P(Q ∧ C) = 0.5·0.3 = 0.15, P(C) = 0.5 → 0.3.
  EXPECT_NEAR(*p, 0.3, kTol);

  // Independent lineage: posterior equals prior.
  Dnf indep;
  indep.AddClause(C({{v2_, 1}}));
  auto p2 = PosteriorExactConfidence(indep, cs, wt_, exact_, nullptr);
  ASSERT_TRUE(p2.ok());
  EXPECT_DOUBLE_EQ(*p2, 0.8);

  // Zero-probability conjunction.
  Dnf zero;
  zero.AddClause(C({{v0_, 0}, {v1_, 1}}));
  auto p3 = PosteriorExactConfidence(zero, cs, wt_, exact_, nullptr);
  ASSERT_TRUE(p3.ok());
  EXPECT_DOUBLE_EQ(*p3, 0.0);
}

// ---------------------------------------------------------------------------
// SQL surface: ASSERT / CONDITION ON / SHOW EVIDENCE / CLEAR EVIDENCE
// ---------------------------------------------------------------------------

// Two weighted coins (ids 1, 2) repaired into an uncertain `toss` table:
// x0 ∈ {heads, tails} at 0.5/0.5 and x1 at 0.3/0.7.
class ConditioningSqlTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(DatabaseOptions{}); }

  void Build(DatabaseOptions options) {
    db_ = std::make_unique<Database>(std::move(options));
    ASSERT_TRUE(db_->Execute("create table coin (id int, face text, w double)").ok());
    ASSERT_TRUE(db_->Execute("insert into coin values "
                             "(1,'heads',0.5),(1,'tails',0.5),"
                             "(2,'heads',0.3),(2,'tails',0.7)").ok());
    ASSERT_TRUE(db_->Execute(
        "create table toss as repair key id in coin weight by w").ok());
  }

  double Conf(const std::string& face) {
    auto r = db_->Query("select face, conf() as p from toss group by face");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto v = r->Lookup(0, Value::String(face), 1);
    EXPECT_TRUE(v.has_value()) << face << " missing";
    return v ? *v->ToDouble() : -1;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ConditioningSqlTest, AssertMakesConfidencesPosterior) {
  EXPECT_NEAR(Conf("heads"), 1 - 0.5 * 0.7, kTol);  // prior: 0.65
  // Evidence: the two coins agree.
  auto r = db_->Query(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->message().find("ASSERT"), std::string::npos);
  // P(C) = 0.15 + 0.35 = 0.5; posterior heads = 0.15/0.5.
  EXPECT_NEAR(Conf("heads"), 0.3, kTol);
  EXPECT_NEAR(Conf("tails"), 0.7, kTol);

  auto show = db_->Query("show evidence");
  ASSERT_TRUE(show.ok());
  EXPECT_EQ(show->NumRows(), 2u);
  EXPECT_NE(show->message().find("P(C)=0.5"), std::string::npos)
      << show->message();
}

TEST_F(ConditioningSqlTest, SequentialAssertsAccumulate) {
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face").ok());
  // Second piece of evidence: coin 2 is tails. Combined with "coins agree"
  // this determines both coins.
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss where id = 2 and face = 'tails'").ok());
  EXPECT_NEAR(Conf("tails"), 1.0, kTol);
  auto heads = db_->Query("select face, conf() as p from toss group by face");
  ASSERT_TRUE(heads.ok());
  // Only tails tuples survive pruning (the heads alternatives are gone).
  EXPECT_FALSE(heads->Lookup(0, Value::String("heads"), 1).has_value());
}

TEST_F(ConditioningSqlTest, DeterminedEvidencePrunesPhysically) {
  auto toss = *db_->catalog().GetTable("toss");
  ASSERT_EQ(toss->NumRows(), 4u);
  size_t atoms_before = 0;
  for (const Row& row : toss->rows()) atoms_before += row.condition.NumAtoms();
  EXPECT_EQ(atoms_before, 4u);

  auto r = db_->Query("assert select * from toss where id = 1 and face = 'heads'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->message().find("pruned 1 row(s)"), std::string::npos)
      << r->message();
  EXPECT_NE(r->message().find("collapsed 1 variable(s)"), std::string::npos);

  // The tails alternative of coin 1 is gone; the heads row is t-certain.
  EXPECT_EQ(toss->NumRows(), 3u);
  size_t atoms_after = 0;
  size_t certain_rows = 0;
  for (const Row& row : toss->rows()) {
    atoms_after += row.condition.NumAtoms();
    certain_rows += row.condition.IsTrue() ? 1 : 0;
  }
  EXPECT_EQ(atoms_after, 2u);  // only coin 2's two alternatives remain
  EXPECT_EQ(certain_rows, 1u);
  // World table renormalized: P(x0 = heads) = 1.
  EXPECT_DOUBLE_EQ(db_->world_table().AtomProb(Atom{0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(db_->world_table().AtomProb(Atom{0, 1}), 0.0);
  // Fully-determined evidence is absorbed: the store deactivates.
  EXPECT_FALSE(db_->constraints().active());
  EXPECT_NEAR(Conf("heads"), 1.0, kTol);
  EXPECT_NEAR(Conf("tails"), 0.7, kTol);
}

TEST_F(ConditioningSqlTest, InconsistentEvidenceRejectedCleanly) {
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss where id = 1 and face = 'heads'").ok());
  // Coin 1 is now certainly heads: asserting tails is impossible. The
  // pruned table has no such row at all, so the query has no answers.
  auto r = db_->Query("assert select * from toss where id = 1 and face = 'tails'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("inconsistent evidence"), std::string::npos)
      << r.status().message();
  // Database unaffected.
  EXPECT_NEAR(Conf("heads"), 1.0, kTol);
}

TEST_F(ConditioningSqlTest, ContradictoryLineageEvidenceRejected) {
  // A same-variable contradiction that still returns candidate tuples:
  // condition on "coins agree", then on "coins disagree".
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face").ok());
  auto r = db_->Query(
      "condition on select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face <> t2.face");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Store unchanged: still the 2-clause agreement constraint.
  EXPECT_EQ(db_->constraints().NumClauses(), 2u);
  EXPECT_NEAR(Conf("heads"), 0.3, kTol);
}

TEST_F(ConditioningSqlTest, AssertConfidenceChecksWithoutConditioning) {
  auto pass = db_->Query(
      "assert confidence >= 0.6 for select * from toss where face = 'heads'");
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_NE(pass->message().find("ASSERT CONFIDENCE"), std::string::npos);
  EXPECT_FALSE(db_->constraints().active());  // check-only: no evidence

  auto fail = db_->Query(
      "assert confidence >= 0.99 select * from toss where face = 'heads'");
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(fail.status().message().find("0.99"), std::string::npos);

  // The check is posterior: after conditioning on agreement, P(heads)
  // drops to 0.3 and the same 0.6 threshold now fails.
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face").ok());
  EXPECT_FALSE(db_->Execute(
      "assert confidence >= 0.6 for select * from toss where face = 'heads'").ok());
  EXPECT_TRUE(db_->Execute(
      "assert confidence >= 0.29 for select * from toss where face = 'heads'").ok());
}

TEST_F(ConditioningSqlTest, CertainEvidenceIsNoOp) {
  auto r = db_->Query("assert select * from coin");  // t-certain, non-empty
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->message().find("already certain"), std::string::npos);
  EXPECT_FALSE(db_->constraints().active());
  // A t-certain query with no rows is certainly-false evidence.
  auto bad = db_->Query("assert select * from coin where id = 99");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ConditioningSqlTest, ClearEvidenceResetsPosteriors) {
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face").ok());
  EXPECT_NEAR(Conf("heads"), 0.3, kTol);
  auto r = db_->Query("clear evidence");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->message(), "CLEAR EVIDENCE");
  EXPECT_FALSE(db_->constraints().active());
  EXPECT_NEAR(Conf("heads"), 0.65, kTol);  // back to the prior
  auto show = db_->Query("show evidence");
  ASSERT_TRUE(show.ok());
  EXPECT_EQ(show->NumRows(), 0u);
  EXPECT_EQ(show->message(), "EVIDENCE none");
}

// Regression: evidence that RESTRICTS a variable without determining it
// (x ∈ {1,2} out of {0,1,2}) must not delete rows physically — while the
// store is active the excluded row reports posterior 0 through the
// posterior algebra, and CLEAR EVIDENCE restores the exact prior state.
TEST_F(ConditioningSqlTest, RestrictedButNotDeterminedEvidenceIsReversible) {
  Database db;
  ASSERT_TRUE(db.Execute("create table base (k int, v int)").ok());
  ASSERT_TRUE(db.Execute("insert into base values (0,0),(0,1),(0,2)").ok());
  ASSERT_TRUE(db.Execute("create table u as repair key k in base").ok());

  ASSERT_TRUE(db.Execute("assert select * from u where v >= 1").ok());
  ASSERT_TRUE(db.constraints().active());
  // No physical pruning: the variable is restricted to {1,2}, not pinned.
  auto table = *db.catalog().GetTable("u");
  EXPECT_EQ(table->NumRows(), 3u);
  // Posterior while active: v=0 impossible, v∈{1,2} at 1/2 each.
  auto t = db.Query("select v, tconf() as p from u order by v");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->NumRows(), 3u);
  EXPECT_NEAR(t->At(0, 1).AsDouble(), 0.0, kTol);
  EXPECT_NEAR(t->At(1, 1).AsDouble(), 0.5, kTol);
  EXPECT_NEAR(t->At(2, 1).AsDouble(), 0.5, kTol);
  auto possible = db.Query("select possible v from u");
  ASSERT_TRUE(possible.ok());
  EXPECT_EQ(possible->NumRows(), 2u);
  // Group posteriors still sum to 1 over the repair-key alternatives.
  auto c = db.Query("select conf() as p from u where v >= 1");
  ASSERT_TRUE(c.ok());
  EXPECT_NEAR(c->At(0, 0).AsDouble(), 1.0, kTol);

  // Clearing the evidence restores the prior exactly.
  ASSERT_TRUE(db.Execute("clear evidence").ok());
  auto prior = db.Query("select v, tconf() as p from u order by v");
  ASSERT_TRUE(prior.ok());
  ASSERT_EQ(prior->NumRows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(prior->At(i, 1).AsDouble(), 1.0 / 3, kTol) << "v=" << i;
  }
  auto prior_conf = db.Query("select conf() as p from u");
  ASSERT_TRUE(prior_conf.ok());
  EXPECT_NEAR(prior_conf->At(0, 0).AsDouble(), 1.0, kTol);
}

TEST_F(ConditioningSqlTest, TconfAndExpectationsArePosterior) {
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face").ok());
  auto t = db_->Query("select id, face, tconf() as p from toss");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->NumRows(), 4u);
  for (size_t i = 0; i < t->NumRows(); ++i) {
    int64_t id = t->At(i, 0).AsInt();
    bool heads = t->At(i, 1).AsString() == "heads";
    double p = t->At(i, 2).AsDouble();
    // P(coin i = f | coins agree) is 0.3 for heads and 0.7 for tails, for
    // BOTH coins (they are perfectly correlated under the evidence).
    EXPECT_NEAR(p, heads ? 0.3 : 0.7, kTol) << "id " << id;
  }
  // ecount over the uncertain table: Σ posterior marginals = 2 coins.
  auto ec = db_->Query("select ecount() as c from toss");
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();
  EXPECT_NEAR(ec->At(0, 0).AsDouble(), 2.0, kTol);
  // esum of id weighted by posterior marginals: 1·(0.3+0.7) + 2·(0.3+0.7).
  auto es = db_->Query("select esum(id) as s from toss");
  ASSERT_TRUE(es.ok()) << es.status().ToString();
  EXPECT_NEAR(es->At(0, 0).AsDouble(), 3.0, kTol);
}

TEST_F(ConditioningSqlTest, PossibleFiltersImpossibleUnderEvidence) {
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face").ok());
  // Mixed-face pairs are impossible under the agreement evidence.
  auto r = db_->Query(
      "select possible t1.face, t2.face from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->NumRows(), 2u);
  for (size_t i = 0; i < r->NumRows(); ++i) {
    EXPECT_TRUE(r->At(i, 0).Equals(r->At(i, 1)))
        << r->At(i, 0).ToString() << " vs " << r->At(i, 1).ToString();
  }
}

TEST_F(ConditioningSqlTest, AconfMatchesExactPosterior) {
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face").ok());
  auto r = db_->Query(
      "select face, aconf(0.01, 0.01) as p from toss group by face");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto heads = r->Lookup(0, Value::String("heads"), 1);
  auto tails = r->Lookup(0, Value::String("tails"), 1);
  ASSERT_TRUE(heads && tails);
  EXPECT_NEAR(*heads->ToDouble(), 0.3, 0.02);
  EXPECT_NEAR(*tails->ToDouble(), 0.7, 0.02);
}

TEST_F(ConditioningSqlTest, EvidenceSurvivesPersistRoundTrip) {
  ASSERT_TRUE(db_->Execute(
      "assert select * from toss t1, toss t2 "
      "where t1.id = 1 and t2.id = 2 and t1.face = t2.face").ok());
  // Evidence lives in the session, not the catalog: the dumping session
  // passes its store, and the restoring session receives the clauses.
  std::string dump = DumpDatabase(db_->catalog(), &db_->constraints());
  EXPECT_NE(dump.find("EVIDENCE 2"), std::string::npos);

  Database restored;
  ASSERT_TRUE(
      RestoreDatabase(dump, &restored.catalog(), &restored.constraints()).ok());
  ASSERT_TRUE(restored.constraints().active());
  EXPECT_EQ(restored.constraints().NumClauses(), 2u);
  EXPECT_NEAR(restored.constraints().probability(), 0.5, kTol);
  auto r = restored.Query("select face, conf() as p from toss group by face");
  ASSERT_TRUE(r.ok());
  auto heads = r->Lookup(0, Value::String("heads"), 1);
  ASSERT_TRUE(heads.has_value());
  EXPECT_NEAR(*heads->ToDouble(), 0.3, kTol);
}

TEST_F(ConditioningSqlTest, ExplainShowsTheEvidencePlan) {
  auto plan = db_->Explain("assert select * from toss where face = 'heads'");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Scan"), std::string::npos);
}

}  // namespace
}  // namespace maybms
