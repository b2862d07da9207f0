// Property/fuzz suite for the conditioning subsystem: posterior conf() and
// tconf() answers on small random uncertain databases are compared against
// a brute-force possible-world enumeration oracle, at
// num_threads ∈ {1, 4} (and a bit-identity sweep at {1, 2, 8}). Also
// exercises the inconsistent-evidence (P(C) = 0) rejection path.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/prob/world_enum.h"

namespace maybms {
namespace {

constexpr double kTol = 1e-9;

struct EngineConfig {
  unsigned num_threads;
  const char* name;
};

const EngineConfig kConfigs[] = {
    {1, "batch/1"},
    {4, "batch/4"},
};

DatabaseOptions ConfigOptions(const EngineConfig& config) {
  DatabaseOptions options;
  options.exec.num_threads = config.num_threads;
  if (config.num_threads > 1) options.exec.morsel_size = 3;
  return options;
}

// One iteration's randomly-built hypothesis space, identical across all
// configs: a base table repaired by key plus picked tuples, both
// materialized so later ASSERTs do not mint fresh variables.
std::vector<std::string> BuildScript(Rng* rng) {
  std::vector<std::string> script;
  script.push_back("create table base (id int, k int, v int, w double)");
  int id = 0;
  int groups = 2 + static_cast<int>(rng->NextBounded(2));  // 2..3 key groups
  for (int k = 0; k < groups; ++k) {
    int alts = 1 + static_cast<int>(rng->NextBounded(3));  // 1..3 alternatives
    for (int a = 0; a < alts; ++a) {
      script.push_back(StringFormat(
          "insert into base values (%d, %d, %d, %g)", id++, k,
          static_cast<int>(rng->NextBounded(3)),
          0.25 + 0.75 * rng->NextDouble()));
    }
  }
  script.push_back("create table u as repair key k in base weight by w");
  // A second, independent uncertain table via pick-tuples.
  script.push_back("create table cand (id int, v int, p double)");
  int picks = 2 + static_cast<int>(rng->NextBounded(2));
  for (int i = 0; i < picks; ++i) {
    script.push_back(StringFormat(
        "insert into cand values (%d, %d, %g)", 100 + i,
        static_cast<int>(rng->NextBounded(3)), 0.2 + 0.6 * rng->NextDouble()));
  }
  script.push_back(
      "create table picked as "
      "select * from (pick tuples from cand independently with probability p) s");
  return script;
}

// All rows of a stored table: (id, v, condition).
struct TupleRow {
  int64_t id;
  int64_t v;
  Condition cond;
};

std::vector<TupleRow> SnapRows(const Database& db, const std::string& table,
                               size_t id_col, size_t v_col) {
  std::vector<TupleRow> out;
  auto t = db.catalog().GetTable(table);
  EXPECT_TRUE(t.ok());
  if (!t.ok()) return out;
  for (const Row& row : (*t)->rows()) {
    out.push_back(TupleRow{row.values[id_col].AsInt(), row.values[v_col].AsInt(),
                           row.condition});
  }
  return out;
}

// Brute-force oracle state: every possible world of a (pre-assert) world
// table, with its probability and the evidence-satisfaction flag.
class Oracle {
 public:
  Oracle(const WorldTable& wt, const std::vector<Condition>& evidence) {
    std::vector<VarId> vars;
    for (VarId v = 0; v < wt.NumVariables(); ++v) vars.push_back(v);
    Status st = EnumerateWorlds(wt, vars, 1u << 18, [&](const World& w) {
      bool sat = false;
      for (const Condition& c : evidence) {
        if (w.Satisfies(c)) {
          sat = true;
          break;
        }
      }
      if (sat) p_c_ += w.probability;
      worlds_.push_back(Entry{w.assignment, w.probability, sat});
      vars_ = *w.vars;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  double ProbC() const { return p_c_; }

  /// Posterior probability that at least one of `clauses` holds given the
  /// evidence.
  double Posterior(const std::vector<const Condition*>& clauses) const {
    if (p_c_ <= 0) return 0;
    double p_and = 0;
    World w;
    w.vars = &vars_;
    for (const Entry& e : worlds_) {
      if (!e.sat) continue;
      w.assignment = e.assignment;
      for (const Condition* c : clauses) {
        if (w.Satisfies(*c)) {
          p_and += e.prob;
          break;
        }
      }
    }
    return p_and / p_c_;
  }

 private:
  struct Entry {
    std::vector<AsgId> assignment;
    double prob;
    bool sat;
  };
  std::vector<Entry> worlds_;
  std::vector<VarId> vars_;
  double p_c_ = 0;
};

class ConditioningPropertyTest : public ::testing::Test {};

TEST_F(ConditioningPropertyTest, PosteriorsMatchBruteForceAcrossEnginesAndThreads) {
  Rng rng(20260728);
  int asserted_iterations = 0;
  int rejected_iterations = 0;
  for (int iter = 0; iter < 10; ++iter) {
    SCOPED_TRACE(StringFormat("iteration %d", iter));
    std::vector<std::string> script = BuildScript(&rng);

    std::vector<std::unique_ptr<Database>> dbs;
    for (const EngineConfig& config : kConfigs) {
      dbs.push_back(std::make_unique<Database>(ConfigOptions(config)));
      for (const std::string& sql : script) {
        ASSERT_TRUE(dbs.back()->Execute(sql).ok()) << config.name << ": " << sql;
      }
    }

    // Random evidence over the materialized U-relations: "some u-tuple has
    // v = X" (optionally joined against picked).
    int x = static_cast<int>(rng.NextBounded(3));
    bool join_evidence = rng.NextBounded(2) == 0;
    std::string evidence_sql =
        join_evidence
            ? StringFormat("select * from u, picked where u.v = %d and "
                           "picked.v = u.v", x)
            : StringFormat("select * from u where v = %d", x);

    // Snapshot the evidence lineage and the pre-assert state from config 0.
    auto ev_rows = dbs[0]->Query(evidence_sql);
    ASSERT_TRUE(ev_rows.ok()) << ev_rows.status().ToString();
    std::vector<Condition> evidence;
    bool certain = false;
    for (const Row& row : ev_rows->rows()) {
      if (!ev_rows->uncertain() || row.condition.IsTrue()) {
        certain = true;
        break;
      }
      evidence.push_back(row.condition);
    }
    if (certain) continue;  // conditioning would be a no-op: skip

    WorldTable wt_before = dbs[0]->catalog().world_table();
    std::vector<TupleRow> u_before = SnapRows(*dbs[0], "u", 0, 2);
    Oracle oracle(wt_before, evidence);

    std::string assert_sql = "assert " + evidence_sql;
    if (oracle.ProbC() <= 0 || evidence.empty()) {
      // Inconsistent (or empty) evidence: every config must reject with a
      // clean InvalidArgument and leave the database unconditioned.
      ++rejected_iterations;
      for (size_t i = 0; i < dbs.size(); ++i) {
        auto r = dbs[i]->Query(assert_sql);
        ASSERT_FALSE(r.ok()) << kConfigs[i].name;
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << kConfigs[i].name << ": " << r.status().ToString();
        EXPECT_FALSE(dbs[i]->constraints().active()) << kConfigs[i].name;
      }
      continue;
    }

    ++asserted_iterations;
    for (size_t i = 0; i < dbs.size(); ++i) {
      auto r = dbs[i]->Query(assert_sql);
      ASSERT_TRUE(r.ok()) << kConfigs[i].name << ": " << r.status().ToString();
    }

    // Posterior conf() per distinct v, vs the oracle and bit-identical
    // across thread counts.
    const std::string conf_sql =
        "select v, conf() as p from u group by v order by v";
    auto reference = dbs[0]->Query(conf_sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (size_t row = 0; row < reference->NumRows(); ++row) {
      int64_t v = reference->At(row, 0).AsInt();
      double got = reference->At(row, 1).AsDouble();
      std::vector<const Condition*> clauses;
      for (const TupleRow& t : u_before) {
        if (t.v == v) clauses.push_back(&t.cond);
      }
      EXPECT_NEAR(got, oracle.Posterior(clauses), kTol) << "v=" << v;
    }
    for (size_t i = 1; i < dbs.size(); ++i) {
      auto got = dbs[i]->Query(conf_sql);
      ASSERT_TRUE(got.ok()) << kConfigs[i].name;
      ASSERT_EQ(got->NumRows(), reference->NumRows()) << kConfigs[i].name;
      for (size_t row = 0; row < reference->NumRows(); ++row) {
        EXPECT_TRUE(reference->At(row, 0).Equals(got->At(row, 0)))
            << kConfigs[i].name;
        // Bit-identical posterior across thread counts.
        EXPECT_EQ(reference->At(row, 1).AsDouble(), got->At(row, 1).AsDouble())
            << kConfigs[i].name << " row " << row;
      }
    }

    // Posterior tconf() per surviving tuple, vs the oracle (pruned rows
    // must be exactly the posterior-0 ones) and bit-identical across
    // configs.
    const std::string tconf_sql = "select id, tconf() as p from u order by id";
    auto tref = dbs[0]->Query(tconf_sql);
    ASSERT_TRUE(tref.ok()) << tref.status().ToString();
    std::map<int64_t, double> tconf_by_id;
    for (size_t row = 0; row < tref->NumRows(); ++row) {
      tconf_by_id[tref->At(row, 0).AsInt()] = tref->At(row, 1).AsDouble();
    }
    for (const TupleRow& t : u_before) {
      double want = oracle.Posterior({&t.cond});
      auto it = tconf_by_id.find(t.id);
      if (it == tconf_by_id.end()) {
        EXPECT_NEAR(want, 0.0, kTol) << "pruned id " << t.id;
      } else {
        EXPECT_NEAR(it->second, want, kTol) << "id " << t.id;
      }
    }
    for (size_t i = 1; i < dbs.size(); ++i) {
      auto got = dbs[i]->Query(tconf_sql);
      ASSERT_TRUE(got.ok()) << kConfigs[i].name;
      ASSERT_EQ(got->NumRows(), tref->NumRows()) << kConfigs[i].name;
      for (size_t row = 0; row < tref->NumRows(); ++row) {
        EXPECT_EQ(tref->At(row, 1).AsDouble(), got->At(row, 1).AsDouble())
            << kConfigs[i].name << " row " << row;
      }
    }

    // Follow-up inconsistent evidence: an id the oracle says is now
    // impossible must be rejected identically everywhere.
    for (const TupleRow& t : u_before) {
      if (oracle.Posterior({&t.cond}) > 0) continue;
      std::string bad = StringFormat("assert select * from u where id = %lld",
                                     static_cast<long long>(t.id));
      for (size_t i = 0; i < dbs.size(); ++i) {
        auto r = dbs[i]->Query(bad);
        ASSERT_FALSE(r.ok()) << kConfigs[i].name << ": " << bad;
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << kConfigs[i].name;
      }
      ++rejected_iterations;
      break;
    }
  }
  // The corpus must exercise both the conditioning and the rejection path.
  EXPECT_GE(asserted_iterations, 3);
  EXPECT_GE(rejected_iterations, 1);
}

// Posterior aconf() agrees with the exact posterior within its (ε,δ)
// band, and the threads >= 2 substream estimates are bit-identical across
// thread counts.
TEST_F(ConditioningPropertyTest, PosteriorAconfMatchesExactAndIsDeterministic) {
  const EngineConfig grid[] = {
      {1, "batch/1"},
      {2, "batch/2"},
      {8, "batch/8"},
  };
  Rng rng(7);
  std::vector<std::string> script = BuildScript(&rng);
  std::vector<std::unique_ptr<Database>> dbs;
  for (const EngineConfig& config : grid) {
    dbs.push_back(std::make_unique<Database>(ConfigOptions(config)));
    for (const std::string& sql : script) {
      ASSERT_TRUE(dbs.back()->Execute(sql).ok()) << config.name << ": " << sql;
    }
    ASSERT_TRUE(dbs.back()->Execute("assert select * from u where v = 1").ok())
        << config.name;
  }
  const std::string exact_sql =
      "select v, conf() as p from u group by v order by v";
  const std::string approx_sql =
      "select v, aconf(0.02, 0.02) as p from u group by v order by v";
  auto exact = dbs[0]->Query(exact_sql);
  ASSERT_TRUE(exact.ok());
  // Exact posteriors are bit-identical across thread counts {1,2,8}.
  for (size_t i = 1; i < dbs.size(); ++i) {
    auto got = dbs[i]->Query(exact_sql);
    ASSERT_TRUE(got.ok()) << grid[i].name;
    ASSERT_EQ(got->NumRows(), exact->NumRows()) << grid[i].name;
    for (size_t row = 0; row < got->NumRows(); ++row) {
      EXPECT_EQ(exact->At(row, 1).AsDouble(), got->At(row, 1).AsDouble())
          << grid[i].name << " row " << row;
    }
  }
  // Reference for the substream estimates: config batch/2.
  auto seeded_ref = dbs[1]->Query(approx_sql);
  ASSERT_TRUE(seeded_ref.ok());
  for (size_t i = 0; i < dbs.size(); ++i) {
    auto got = dbs[i]->Query(approx_sql);
    ASSERT_TRUE(got.ok()) << grid[i].name << ": " << got.status().ToString();
    ASSERT_EQ(got->NumRows(), exact->NumRows()) << grid[i].name;
    for (size_t row = 0; row < got->NumRows(); ++row) {
      double p_exact = exact->At(row, 1).AsDouble();
      double p_approx = got->At(row, 1).AsDouble();
      EXPECT_NEAR(p_approx, p_exact, 0.03 * std::max(p_exact, 0.5))
          << grid[i].name << " v=" << got->At(row, 0).ToString();
      if (grid[i].num_threads >= 2) {
        EXPECT_EQ(p_approx, seeded_ref->At(row, 1).AsDouble())
            << grid[i].name << " substream estimate must be thread-count "
            << "independent";
      }
    }
  }
}

}  // namespace
}  // namespace maybms
