// The MayBMS engine facade: a complete probabilistic database management
// system (paper title) in a library. Parses the MayBMS query language,
// binds and plans it, and executes against the in-memory catalog.
//
// Quickstart:
//   maybms::Database db;
//   db.Execute("create table coin (face text)");
//   db.Execute("insert into coin values ('heads'), ('tails')");
//   auto r = db.Query(
//       "select face, conf() as p from (repair key face in coin) c group by face");
//
// A Database is a SessionManager plus one root Session over it — the
// embedded single-connection shape. Additional concurrent sessions over
// the SAME catalog (each with its own knobs, RNG stream, and asserted
// evidence) come from session_manager().CreateSession(); see
// src/engine/session.h for the isolation model and src/server/server.h
// for the line-protocol front end built on it.
//
// Queries run morsel-parallel on a work-stealing pool sized by
// DatabaseOptions::exec.num_threads (default: hardware_concurrency; 1 runs
// fully serial). Queries return identical results at every thread count,
// conf() and aconf() included (aconf answers exactly when a bounded
// compile fits, else samples on lineage-seeded substreams).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/engine/query_result.h"
#include "src/engine/session.h"
#include "src/storage/catalog.h"

namespace maybms {

/// Session-level settings (the historical name; a Database's options ARE
/// its root session's options).
using DatabaseOptions = SessionOptions;

/// An embedded MayBMS instance: catalog + world table + query pipeline.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;

  /// Runs a single statement and returns its result (rows for selects,
  /// affected counts/messages for DDL and DML).
  Result<QueryResult> Query(std::string_view sql);

  /// Runs a statement for its side effects; errors if it fails.
  Status Execute(std::string_view sql);

  /// Runs a ';'-separated script, stopping at the first error. Returns
  /// the result of the last statement.
  Result<QueryResult> ExecuteScript(std::string_view sql);

  /// EXPLAIN: the bound logical plan for a query.
  Result<std::string> Explain(std::string_view sql);

  /// Direct access for embedding: the catalog and world table.
  Catalog& catalog() { return manager_->catalog(); }
  const Catalog& catalog() const { return manager_->catalog(); }
  WorldTable& world_table() { return manager_->catalog().world_table(); }
  /// The evidence asserted so far (ASSERT / CONDITION ON statements) in
  /// the root session; its conf()/aconf()/tconf() answers are posteriors
  /// given this constraint. The mutable overload exists for persistence
  /// (RestoreDatabase loads a dump's EVIDENCE section into it).
  const ConstraintStore& constraints() const { return session_->constraints(); }
  ConstraintStore& constraints() { return session_->constraints(); }

  /// The root session's knobs. Mutations through this reference are
  /// validated at the next statement (see Session::options()).
  DatabaseOptions& options() { return session_->options(); }

  /// The root session (the one this facade's Query/Execute run on).
  Session& session() { return *session_; }
  /// The manager owning the shared catalog: CreateSession() here opens
  /// additional concurrent sessions over this database.
  SessionManager& session_manager() { return *manager_; }

 private:
  // Order matters: the root session must die before the manager. Both
  // live behind unique_ptrs so a Database stays movable (sessions hold a
  // stable pointer to their manager).
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<Session> session_;
};

}  // namespace maybms
