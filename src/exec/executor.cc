#include "src/exec/executor.h"

#include "src/common/str_util.h"
#include "src/cond/posterior.h"
#include "src/cond/prune.h"
#include "src/obs/metrics.h"

namespace maybms {

namespace {

Result<StatementResult> ExecuteSelect(const BoundStatement& stmt, ExecContext* ctx) {
  StatementResult result;
  MAYBMS_ASSIGN_OR_RETURN(result.data, ExecutePlan(*stmt.plan, ctx));
  result.has_data = true;
  result.message = StringFormat("SELECT %zu", result.data.rows.size());
  return result;
}

Result<StatementResult> ExecuteCreateTable(const BoundStatement& stmt,
                                           ExecContext* ctx) {
  MAYBMS_ASSIGN_OR_RETURN(
      TablePtr table,
      ctx->catalog->CreateTable(stmt.table_name, stmt.create_schema,
                                /*uncertain=*/false));
  (void)table;
  StatementResult result;
  result.message = "CREATE TABLE";
  return result;
}

Result<StatementResult> ExecuteCreateTableAs(const BoundStatement& stmt,
                                             ExecContext* ctx) {
  MAYBMS_ASSIGN_OR_RETURN(TableData data, ExecutePlan(*stmt.plan, ctx));
  // The system catalog records whether the new table is a U-relation or a
  // standard relation (paper §2.4).
  MAYBMS_ASSIGN_OR_RETURN(
      TablePtr table,
      ctx->catalog->CreateTable(stmt.table_name, data.schema, data.uncertain));
  table->mutable_rows() = std::move(data.rows);
  StatementResult result;
  result.affected_rows = table->NumRows();
  result.message = StringFormat("SELECT %zu", table->NumRows());
  return result;
}

Result<StatementResult> ExecuteInsert(const BoundStatement& stmt, ExecContext* ctx) {
  MAYBMS_ASSIGN_OR_RETURN(TablePtr table, ctx->catalog->GetTable(stmt.table_name));
  StatementResult result;
  // Capture the pre-statement state for eager index maintenance: an index
  // that was current at pre_version absorbs exactly the appended suffix
  // [first_row, NumRows) instead of rebuilding (src/index/index_manager.h).
  const uint64_t pre_version = table->version();
  const size_t first_row = table->NumRows();
  if (stmt.plan) {
    MAYBMS_ASSIGN_OR_RETURN(TableData data, ExecutePlan(*stmt.plan, ctx));
    if (data.uncertain && !table->uncertain()) {
      return Status::ExecutionError(StringFormat(
          "cannot insert uncertain rows into t-certain table '%s'",
          stmt.table_name.c_str()));
    }
    for (Row& row : data.rows) {
      MAYBMS_RETURN_NOT_OK(table->Append(std::move(row)));
      ++result.affected_rows;
    }
  } else {
    for (const std::vector<Value>& values : stmt.insert_rows) {
      MAYBMS_RETURN_NOT_OK(table->Append(Row(values)));
      ++result.affected_rows;
    }
  }
  if (result.affected_rows > 0) {
    for (const SecondaryIndexPtr& index :
         ctx->catalog->index_manager().IndexesOn(table->name())) {
      MAYBMS_RETURN_NOT_OK(
          index->NotifyAppend(*table, first_row, pre_version, ctx->metrics));
    }
  }
  result.message = StringFormat("INSERT %zu", result.affected_rows);
  return result;
}

Result<StatementResult> ExecuteUpdate(const BoundStatement& stmt, ExecContext* ctx) {
  MAYBMS_ASSIGN_OR_RETURN(TablePtr table, ctx->catalog->GetTable(stmt.table_name));
  StatementResult result;
  // "Updates are just modifications of these tables that can be expressed
  // using the standard SQL update operations" (paper §2.3): data columns
  // change, conditions are untouched. Matching goes through the const row
  // view and only matched rows are acquired mutably, so an UPDATE touching
  // zero rows leaves the table version — and every cache keyed on it —
  // intact, and a real UPDATE dirties only the chunks it lands in.
  const std::vector<Row>& rows = table->rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (stmt.dml_where) {
      MAYBMS_ASSIGN_OR_RETURN(Value v, stmt.dml_where->Eval(rows[i].values));
      if (!IsTruthy(v)) continue;
    }
    // Evaluate all assignments against the pre-update row.
    std::vector<std::pair<size_t, Value>> new_values;
    for (const auto& [idx, expr] : stmt.update_sets) {
      MAYBMS_ASSIGN_OR_RETURN(Value v, expr->Eval(rows[i].values));
      new_values.emplace_back(idx, std::move(v));
    }
    Row& row = table->MutableRow(i);
    for (auto& [idx, v] : new_values) row.values[idx] = std::move(v);
    ++result.affected_rows;
  }
  result.message = StringFormat("UPDATE %zu", result.affected_rows);
  return result;
}

Result<StatementResult> ExecuteDelete(const BoundStatement& stmt, ExecContext* ctx) {
  MAYBMS_ASSIGN_OR_RETURN(TablePtr table, ctx->catalog->GetTable(stmt.table_name));
  StatementResult result;
  // Two-phase: evaluate the predicate over the const row view, then let
  // the table compact in place. A DELETE matching nothing never acquires
  // mutable access, so the table version (and the caches keyed on it)
  // survive; a real DELETE dirties only the chunks from the first erased
  // row onward.
  const std::vector<Row>& rows = table->rows();
  std::vector<uint8_t> remove(rows.size(), stmt.dml_where ? 0 : 1);
  if (stmt.dml_where) {
    for (size_t i = 0; i < rows.size(); ++i) {
      MAYBMS_ASSIGN_OR_RETURN(Value v, stmt.dml_where->Eval(rows[i].values));
      remove[i] = IsTruthy(v) ? 1 : 0;
    }
  }
  result.affected_rows = table->EraseMarked(remove);
  result.message = StringFormat("DELETE %zu", result.affected_rows);
  return result;
}

// ASSERT <query> / CONDITION ON <query>: conditions the database on the
// event "the query has at least one answer". ASSERT CONFIDENCE >= p only
// checks the event's posterior confidence.
Result<StatementResult> ExecuteAssert(const BoundStatement& stmt, ExecContext* ctx) {
  MAYBMS_ASSIGN_OR_RETURN(TableData data, ExecutePlan(*stmt.plan, ctx));
  // The event's lineage: the disjunction of the result tuples' conditions.
  // A t-certain tuple (or any tuple of a t-certain result) makes the event
  // certainly true.
  Dnf evidence;
  bool certain = false;
  for (Row& row : data.rows) {
    if (!data.uncertain || row.condition.IsTrue()) {
      certain = true;
      break;
    }
    evidence.AddClause(std::move(row.condition));
  }

  ConstraintStore& store = *ctx->session_constraints;
  const ExactOptions& exact = ctx->options->exact;
  StatementResult result;

  if (stmt.assert_min_confidence) {
    double p = 1.0;
    if (!certain) {
      MAYBMS_ASSIGN_OR_RETURN(
          p, PosteriorExactConfidence(evidence, store, ctx->worlds(), exact,
                                      ctx->pool));
    }
    if (p + 1e-12 < *stmt.assert_min_confidence) {
      return Status::ExecutionError(StringFormat(
          "ASSERT CONFIDENCE failed: posterior confidence %.12g < %.12g",
          p, *stmt.assert_min_confidence));
    }
    result.message = StringFormat("ASSERT CONFIDENCE %.6g >= %.6g", p,
                                  *stmt.assert_min_confidence);
    return result;
  }

  if (certain) {
    // Conditioning on a certain event is a no-op: C ∧ true = C.
    result.message = "ASSERT (evidence already certain)";
    return result;
  }
  // An empty evidence DNF (the query has no possible answers) is rejected
  // by Conjoin with a clean InvalidArgument, store untouched.
  MAYBMS_RETURN_NOT_OK(store.Conjoin(evidence, ctx->worlds(), exact));
  double joint = store.probability();
  size_t clauses = store.NumClauses();
  if (!ctx->allow_prune) {
    // Multi-session: the evidence is this session's private posterior, so
    // the shared tables and world table stay untouched — restricted rows
    // report posterior 0 through the algebra instead of being deleted.
    result.message = StringFormat(
        "ASSERT P(evidence)=%.6g, %zu clause(s); evidence is session-local "
        "(no physical pruning)",
        joint, clauses);
    return result;
  }
  // Prune: worlds violating the evidence leave the stored representation;
  // fully-determined variables substitute away and renormalize.
  MAYBMS_ASSIGN_OR_RETURN(
      PruneStats pruned,
      PruneConditionedWorlds(ctx->catalog, &store, exact));
  if (ctx->metrics != nullptr) {
    ctx->metrics->Add(Counter::kConstraintPrunes);
    ctx->metrics->Add(Counter::kConstraintPrunedRows, pruned.rows_dropped);
    ctx->metrics->Add(Counter::kConstraintPrunedVars, pruned.vars_collapsed);
  }
  result.affected_rows = pruned.rows_dropped;
  result.message = StringFormat(
      "ASSERT P(evidence)=%.6g, %zu clause(s); pruned %zu row(s), "
      "%zu atom(s), collapsed %zu variable(s)",
      joint, clauses, pruned.rows_dropped, pruned.atoms_removed,
      pruned.vars_collapsed);
  return result;
}

// SHOW EVIDENCE: one row per constraint clause with its prior marginal
// probability; the message summarizes P(C).
Result<StatementResult> ExecuteShowEvidence(ExecContext* ctx) {
  const ConstraintStore& store = *ctx->session_constraints;
  StatementResult result;
  result.has_data = true;
  result.data.schema.AddColumn(Column{"clause", TypeId::kString});
  result.data.schema.AddColumn(Column{"prob", TypeId::kDouble});
  const WorldTable& wt = ctx->worlds();
  for (const Condition& c : store.clauses()) {
    Row row;
    row.values.push_back(Value::String(c.ToString()));
    row.values.push_back(Value::Double(wt.ConditionProb(c)));
    result.data.rows.push_back(std::move(row));
  }
  if (store.active()) {
    result.message = StringFormat(
        "EVIDENCE %zu clause(s) over %zu variable(s), P(C)=%.12g",
        store.NumClauses(), store.variables().size(), store.probability());
  } else {
    result.message = "EVIDENCE none";
  }
  return result;
}

Result<StatementResult> ExecuteClearEvidence(ExecContext* ctx) {
  ctx->session_constraints->Clear();
  StatementResult result;
  result.message = "CLEAR EVIDENCE";
  return result;
}

Result<StatementResult> ExecuteDrop(const BoundStatement& stmt, ExecContext* ctx) {
  Status st = ctx->catalog->DropTable(stmt.table_name);
  if (!st.ok() && !(stmt.drop_if_exists && st.code() == StatusCode::kNotFound)) {
    return st;
  }
  StatementResult result;
  result.message = "DROP TABLE";
  return result;
}

Result<StatementResult> ExecuteCreateIndex(const BoundStatement& stmt,
                                           ExecContext* ctx) {
  MAYBMS_ASSIGN_OR_RETURN(TablePtr table, ctx->catalog->GetTable(stmt.table_name));
  MAYBMS_ASSIGN_OR_RETURN(
      SecondaryIndexPtr index,
      ctx->catalog->index_manager().CreateIndex(stmt.index_name, table,
                                                stmt.index_column,
                                                /*build_now=*/true, ctx->metrics));
  StatementResult result;
  result.affected_rows = index->stats().entries;
  result.message = StringFormat("CREATE INDEX (%zu entries)",
                                static_cast<size_t>(index->stats().entries));
  return result;
}

Result<StatementResult> ExecuteDropIndex(const BoundStatement& stmt,
                                         ExecContext* ctx) {
  MAYBMS_RETURN_NOT_OK(ctx->catalog->index_manager().DropIndex(
      stmt.index_name, stmt.drop_if_exists));
  StatementResult result;
  result.message = "DROP INDEX";
  return result;
}

Result<StatementResult> ExecuteShowIndexes(ExecContext* ctx) {
  StatementResult result;
  result.has_data = true;
  result.data.schema.AddColumn(Column{"index_name", TypeId::kString});
  result.data.schema.AddColumn(Column{"table_name", TypeId::kString});
  result.data.schema.AddColumn(Column{"column_name", TypeId::kString});
  result.data.schema.AddColumn(Column{"entries", TypeId::kInt});
  result.data.schema.AddColumn(Column{"height", TypeId::kInt});
  for (const IndexDef& def : ctx->catalog->index_manager().ListDefs()) {
    SecondaryIndexPtr index = ctx->catalog->index_manager().Find(def.name);
    if (index == nullptr) continue;  // racing DROP INDEX
    const SecondaryIndex::Stats stats = index->stats();
    Row row;
    row.values.push_back(Value::String(def.name));
    row.values.push_back(Value::String(def.table));
    row.values.push_back(Value::String(def.column));
    row.values.push_back(Value::Int(static_cast<int64_t>(stats.entries)));
    row.values.push_back(Value::Int(static_cast<int64_t>(stats.height)));
    result.data.rows.push_back(std::move(row));
  }
  result.message = StringFormat("INDEXES %zu", result.data.rows.size());
  return result;
}

}  // namespace

Result<StatementResult> ExecuteStatement(const BoundStatement& stmt, ExecContext* ctx) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(stmt, ctx);
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(stmt, ctx);
    case StatementKind::kCreateTableAs:
      return ExecuteCreateTableAs(stmt, ctx);
    case StatementKind::kInsert:
      return ExecuteInsert(stmt, ctx);
    case StatementKind::kUpdate:
      return ExecuteUpdate(stmt, ctx);
    case StatementKind::kDelete:
      return ExecuteDelete(stmt, ctx);
    case StatementKind::kDropTable:
      return ExecuteDrop(stmt, ctx);
    case StatementKind::kAssert:
      return ExecuteAssert(stmt, ctx);
    case StatementKind::kShowEvidence:
      return ExecuteShowEvidence(ctx);
    case StatementKind::kClearEvidence:
      return ExecuteClearEvidence(ctx);
    case StatementKind::kCreateIndex:
      return ExecuteCreateIndex(stmt, ctx);
    case StatementKind::kDropIndex:
      return ExecuteDropIndex(stmt, ctx);
    case StatementKind::kShowIndexes:
      return ExecuteShowIndexes(ctx);
    case StatementKind::kSet:
    case StatementKind::kExplain:
    case StatementKind::kShowStats:
      break;  // handled by the engine facade; never reaches execution
  }
  return Status::Internal("unhandled bound statement kind");
}

}  // namespace maybms
