// Quickstart: a tour of the MayBMS query language on a toy database.
//
// Walks through the uncertainty-aware constructs of paper §2.2 one by one:
// repair-key, pick-tuples, conf, aconf, tconf, possible, esum/ecount, and
// argmax, printing each query and its result.
#include <cstdio>
#include <string>

#include "src/engine/database.h"

using maybms::Database;

namespace {

// Runs one statement and pretty-prints the query + result.
bool Show(Database* db, const std::string& sql) {
  std::printf("maybms> %s\n", sql.c_str());
  auto result = db->Query(sql);
  if (!result.ok()) {
    std::printf("ERROR: %s\n\n", result.status().ToString().c_str());
    return false;
  }
  if (result->NumColumns() > 0) {
    std::printf("%s\n", result->ToString().c_str());
  } else {
    std::printf("%s\n\n", result->message().c_str());
  }
  return true;
}

}  // namespace

int main() {
  // Queries run morsel-parallel on exec.num_threads workers (default:
  // hardware_concurrency; 1 = fully serial). Every answer, conf() and
  // aconf() included, is identical at every thread count.
  maybms::DatabaseOptions options;
  options.exec.num_threads = 0;
  Database db(options);
  std::printf("MayBMS quickstart — a probabilistic database in 12 queries\n");
  std::printf("===========================================================\n\n");

  // 1. Ordinary SQL: MayBMS is a complete DBMS; certain tables work as in
  //    any relational engine.
  Show(&db, "create table weather (city text, forecast text, likelihood double)");
  Show(&db,
       "insert into weather values "
       "('Oxford','rain',0.6), ('Oxford','sun',0.3), ('Oxford','snow',0.1), "
       "('Ithaca','rain',0.2), ('Ithaca','sun',0.2), ('Ithaca','snow',0.6)");
  Show(&db, "select * from weather where likelihood >= 0.3 order by city, forecast");

  // 2. repair-key: create a hypothesis space — each city gets exactly one
  //    forecast, chosen with probability proportional to `likelihood`.
  //    The result is a U-relation: note the condition column.
  Show(&db,
       "create table tomorrow as select * from "
       "(repair key city in weather weight by likelihood) r");
  Show(&db, "select * from tomorrow");

  // 3. conf(): exact probability of each distinct answer.
  Show(&db,
       "select forecast, conf() as p from tomorrow group by forecast "
       "order by p desc");

  // 4. Queries over U-relations compose: a join asking "same weather in
  //    both cities?" — conditions merge, inconsistent combinations drop.
  Show(&db,
       "select a.forecast, conf() as p from tomorrow a, tomorrow b "
       "where a.city = 'Oxford' and b.city = 'Ithaca' "
       "and a.forecast = b.forecast group by a.forecast");

  // 5. tconf(): per-tuple marginals, no grouping.
  Show(&db, "select city, forecast, tconf() as p from tomorrow");

  // 6. possible: which answers occur in some world?
  Show(&db, "select possible forecast from tomorrow");

  // 7. aconf(eps, delta): an (eps, delta)-approximation — exact when a
  //    small bounded compile suffices, else Karp-Luby + DKLR sampling.
  Show(&db,
       "select forecast, aconf(0.05, 0.01) as p from tomorrow group by forecast "
       "order by p desc");

  // 8. pick-tuples: independent tuple-level uncertainty; esum/ecount
  //    compute expectations without #P confidence computation.
  Show(&db, "create table readings (sensor text, temp double)");
  Show(&db,
       "insert into readings values "
       "('s1',20.0), ('s1',22.0), ('s2',31.0), ('s2',29.0)");
  Show(&db,
       "create table maybe_readings as select * from "
       "(pick tuples from readings independently with probability 0.9) r");
  Show(&db,
       "select sensor, esum(temp) as expected_sum, ecount() as expected_n "
       "from maybe_readings group by sensor order by sensor");

  // 9. argmax: the winner(s) per group on a certain table.
  Show(&db,
       "select city, argmax(forecast, likelihood) as most_likely "
       "from weather group by city order by city");

  // 10. The paper's restriction in action: standard aggregates on
  //     uncertain relations are rejected with a helpful message.
  std::printf("maybms> select sum(temp) from maybe_readings\n");
  auto bad = db.Query("select sum(temp) from maybe_readings");
  std::printf("(expected) %s\n\n", bad.status().ToString().c_str());

  // 11. Conditioning (Koch & Olteanu VLDB'08): observe evidence, then
  //     query — ASSERT conjoins the event "the query has an answer" into
  //     the constraint store, prunes worlds that violate it, and every
  //     later conf()/aconf()/tconf() answer is the posterior.
  Show(&db,
       "assert select * from tomorrow a, tomorrow b where a.city = 'Oxford' "
       "and b.city = 'Ithaca' and a.forecast = b.forecast");
  Show(&db, "show evidence");
  Show(&db,
       "select forecast, conf() as posterior from tomorrow group by forecast "
       "order by posterior desc");
  Show(&db, "clear evidence");

  std::printf("Done. See examples/nba_whatif.cc for the paper's §3 demo.\n");
  return 0;
}
