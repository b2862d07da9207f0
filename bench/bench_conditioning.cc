// Conditioning subsystem benchmark (Koch & Olteanu VLDB'08 companion to
// paper §2.3): ASSERT throughput, posterior conf()/aconf() overhead
// relative to the unconditioned solvers, and the physical effect of world
// pruning — condition columns must measurably shrink after determined
// evidence is substituted in (the acceptance metric recorded as
// atoms_before / atoms_after / rows_before / rows_after).
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/engine/database.h"
#include "src/engine/query_result.h"
#include "src/storage/columnar.h"

using namespace maybms;
using maybms_bench::JsonReporter;
using maybms_bench::PrintHeader;
using maybms_bench::TimeMs;
using maybms_bench::TimeMs3;

namespace {

// A customers × orders decision-support space: `groups` repair-key groups
// of three alternatives each, materialized as `u`.
std::unique_ptr<Database> BuildSpace(int groups, unsigned num_threads) {
  DatabaseOptions options;
  options.exec.num_threads = num_threads;
  // This bench measures PER-CALL solver work (posterior vs prior overhead,
  // pruning cost). The cross-statement compilation cache would collapse
  // the repeated median-of-3 statements into sub-ms cache probes and the
  // guard would be comparing noise — bench_dtree_cache measures that win.
  options.exec.dtree_cache = false;
  auto db = std::make_unique<Database>(options);
  if (!db->Execute("create table base (id int, k int, v int, w double)").ok()) {
    return nullptr;
  }
  std::string insert = "insert into base values ";
  int id = 0;
  for (int k = 0; k < groups; ++k) {
    for (int a = 0; a < 3; ++a) {
      insert += StringFormat("%s(%d, %d, %d, %g)", id == 0 ? "" : ", ", id, k,
                             a, 1.0 + a);
      ++id;
    }
  }
  if (!db->Execute(insert).ok()) return nullptr;
  if (!db->Execute("create table u as repair key k in base weight by w").ok()) {
    return nullptr;
  }
  return db;
}

// Total atoms across a stored table's heap rows (the row storage) and its
// columnar snapshot's packed condition columns (the batch storage).
void CountAtoms(const Database& db, const std::string& table, size_t* rows,
                size_t* row_atoms, size_t* columnar_atoms) {
  auto t = *db.catalog().GetTable(table);
  *rows = t->NumRows();
  *row_atoms = 0;
  for (const Row& row : t->rows()) *row_atoms += row.condition.NumAtoms();
  *columnar_atoms = 0;
  auto columnar = t->Columnar();
  for (const auto& chunk : columnar->chunks) {
    *columnar_atoms += chunk->conditions.NumAtoms();
  }
}

}  // namespace

int main() {
  JsonReporter json("conditioning");
  json.Env("hardware_threads", static_cast<double>(ThreadPool::DefaultThreads()));
  std::printf("Conditioning: ASSERT, posterior confidence, world pruning\n");

  const int kGroups = 400;

  for (unsigned threads : {1u, 4u}) {
    PrintHeader(StringFormat("posterior conf() overhead (t%u)", threads).c_str());
    auto db = BuildSpace(kGroups, threads);
    if (db == nullptr) {
      std::printf("setup failed\n");
      return 1;
    }
    const std::string conf_sql = "select v, conf() as p from u group by v";

    double prior_ms = TimeMs3([&] { (void)db->Query(conf_sql); });
    std::printf("  prior conf() over %d groups: %.2f ms\n", kGroups, prior_ms);
    json.Report(StringFormat("conf_prior_t%u", threads), prior_ms)
        .Threads(threads)
        .Param("groups", kGroups);

    // Non-determining evidence (a 2-clause disjunction) keeps the store
    // active: every conf() afterwards is a posterior.
    Status assert_status;
    double assert_ms = TimeMs([&] {
      assert_status = db->Execute(
          "assert select * from u u1, u u2 "
          "where u1.k = 0 and u2.k = 1 and u1.v = u2.v and u1.v <= 1");
    });
    if (!assert_status.ok() || !db->constraints().active()) {
      std::printf("  ERROR: evidence did not take effect: %s\n",
                  assert_status.ToString().c_str());
      return 1;  // otherwise the "posterior" rows silently measure priors
    }
    std::printf("  ASSERT (disjunctive evidence): %.2f ms\n", assert_ms);
    json.Report(StringFormat("assert_disjunctive_t%u", threads), assert_ms)
        .Threads(threads)
        .Metric("clauses", static_cast<double>(db->constraints().NumClauses()));

    double posterior_ms = TimeMs3([&] { (void)db->Query(conf_sql); });
    std::printf("  posterior conf() over %d groups: %.2f ms (%.2fx prior)\n",
                kGroups, posterior_ms, posterior_ms / prior_ms);
    json.Report(StringFormat("conf_posterior_t%u", threads), posterior_ms)
        .Threads(threads)
        .Param("groups", kGroups)
        .Metric("overhead_x", posterior_ms / prior_ms);

    // Wide-open ε/δ: the conditioned Karp-Luby mean is P(Q ∧ C)/U, so the
    // DKLR sample count grows with the rejection rate — this case tracks
    // that overhead, not estimator precision.
    double aconf_ms = TimeMs([&] {
      (void)db->Query("select v, aconf(0.1, 0.1) as p from u group by v");
    });
    std::printf("  posterior aconf(0.1,0.1): %.2f ms\n", aconf_ms);
    json.Report(StringFormat("aconf_posterior_t%u", threads), aconf_ms)
        .Threads(threads)
        .Param("groups", kGroups);

    // Self-check (t1): the packed Karp-Luby kernels must reproduce the
    // reference kernel EXACTLY — same posterior conf() bits, same aconf()
    // estimates. Two fresh databases with identical histories, one forced
    // onto the reference kernel.
    if (threads == 1) {
      auto fast_db = BuildSpace(kGroups, 1);
      auto ref_db = BuildSpace(kGroups, 1);
      if (fast_db == nullptr || ref_db == nullptr) return 1;
      ref_db->options().exec.montecarlo.use_reference_kernel = true;
      const char* assert_sql =
          "assert select * from u u1, u u2 "
          "where u1.k = 0 and u2.k = 1 and u1.v = u2.v and u1.v <= 1";
      if (!fast_db->Execute(assert_sql).ok() || !ref_db->Execute(assert_sql).ok()) {
        std::printf("  ERROR: self-check ASSERT failed\n");
        return 1;
      }
      double reference_aconf_ms = 0;
      for (const char* sql :
           {"select v, conf() as p from u group by v order by v",
            "select v, aconf(0.1, 0.1) as p from u group by v order by v"}) {
        auto fast = fast_db->Query(sql);
        QueryResult ref;
        bool ref_ok = false;
        double ms = TimeMs([&] {
          auto r = ref_db->Query(sql);
          if (r.ok()) {
            ref = std::move(*r);
            ref_ok = true;
          }
        });
        if (std::string(sql).find("aconf") != std::string::npos) {
          reference_aconf_ms = ms;
        }
        if (!fast.ok() || !ref_ok || fast->NumRows() != ref.NumRows()) {
          std::printf("  ERROR: self-check query failed: %s\n", sql);
          return 1;
        }
        for (size_t r = 0; r < fast->NumRows(); ++r) {
          double a = fast->At(r, 1).AsDouble();
          double b = ref.At(r, 1).AsDouble();
          if (a != b) {
            std::printf("  SELF-CHECK FAILED (%s): row %zu %0.17g != %0.17g\n",
                        sql, r, a, b);
            return 1;
          }
        }
      }
      std::printf("  self-check: packed kernels == reference engine "
                  "(conf bit-identical, aconf stream-identical; reference "
                  "aconf %.2f ms, %.2fx)\n",
                  reference_aconf_ms, reference_aconf_ms / aconf_ms);
      json.Report("aconf_posterior_reference_t1", reference_aconf_ms)
          .Threads(1)
          .Param("groups", kGroups)
          .Metric("kernel_speedup", reference_aconf_ms / aconf_ms);
    }
  }

  PrintHeader("world pruning shrinks condition columns");
  {
    auto db = BuildSpace(kGroups, 1);
    if (db == nullptr) return 1;
    size_t rows_before, row_atoms_before, col_atoms_before;
    CountAtoms(*db, "u", &rows_before, &row_atoms_before, &col_atoms_before);

    // Determining evidence for half the groups: "group k resolved to v=2".
    Status prune_status;
    double assert_ms = TimeMs([&] {
      for (int k = 0; k < kGroups / 2 && prune_status.ok(); ++k) {
        prune_status = db->Execute(StringFormat(
            "assert select * from u where k = %d and v = 2", k));
      }
    });
    if (!prune_status.ok()) {
      std::printf("  ERROR: determining ASSERT failed: %s\n",
                  prune_status.ToString().c_str());
      return 1;
    }
    size_t rows_after, row_atoms_after, col_atoms_after;
    CountAtoms(*db, "u", &rows_after, &row_atoms_after, &col_atoms_after);
    std::printf(
        "  %d determining ASSERTs: %.2f ms\n"
        "  rows %zu -> %zu, row-storage atoms %zu -> %zu, "
        "columnar atoms %zu -> %zu\n",
        kGroups / 2, assert_ms, rows_before, rows_after, row_atoms_before,
        row_atoms_after, col_atoms_before, col_atoms_after);
    json.Report("prune_determined", assert_ms)
        .Threads(1)
        .Param("asserts", kGroups / 2)
        .Metric("rows_before", static_cast<double>(rows_before))
        .Metric("rows_after", static_cast<double>(rows_after))
        .Metric("row_atoms_before", static_cast<double>(row_atoms_before))
        .Metric("row_atoms_after", static_cast<double>(row_atoms_after))
        .Metric("columnar_atoms_before", static_cast<double>(col_atoms_before))
        .Metric("columnar_atoms_after", static_cast<double>(col_atoms_after));
    if (col_atoms_after >= col_atoms_before || rows_after >= rows_before) {
      std::printf("  ERROR: pruning did not shrink the stored U-relation\n");
      return 1;
    }

    // Posterior conf() over the pruned space: half the groups are now
    // certain, so the exact solver sees far fewer variables.
    double pruned_conf_ms =
        TimeMs3([&] { (void)db->Query("select v, conf() as p from u group by v"); });
    std::printf("  conf() after pruning: %.2f ms\n", pruned_conf_ms);
    json.Report("conf_after_prune", pruned_conf_ms).Threads(1).Param(
        "groups", kGroups);
  }

  json.Flush();
  return 0;
}
