#include "src/sql/parser.h"

#include <unordered_set>

#include "src/common/str_util.h"
#include "src/sql/lexer.h"

namespace maybms {

namespace {

// Words that cannot be used as bare aliases (so clause boundaries are
// detected after a table reference or select item).
const std::unordered_set<std::string>& ReservedWords() {
  static const std::unordered_set<std::string> kReserved = {
      "select", "from",  "where",  "group",  "order", "limit",  "union",
      "and",    "or",    "not",    "in",     "is",    "as",     "by",
      "asc",    "desc",  "repair", "pick",   "weight", "with",  "on",
      "independently",   "probability",      "key",   "tuples", "possible",
      "distinct", "create", "table", "insert", "into", "values", "update",
      "set",    "delete", "drop",   "all",    "null",  "true",   "false",
  };
  return kReserved;
}

bool IsReserved(const std::string& word) {
  return ReservedWords().count(ToLower(word)) > 0;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string_view sql)
      : tokens_(std::move(tokens)), lines_(sql) {}

  Result<StatementPtr> ParseSingleStatement() {
    MAYBMS_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement());
    AcceptSymbol(";");
    if (!AtEof()) return Unexpected("end of statement");
    return stmt;
  }

  Result<std::vector<StatementPtr>> ParseAll() {
    std::vector<StatementPtr> stmts;
    while (!AtEof()) {
      if (AcceptSymbol(";")) continue;
      MAYBMS_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement());
      stmts.push_back(std::move(stmt));
      if (!AtEof()) MAYBMS_RETURN_NOT_OK(ExpectSymbol(";"));
    }
    return stmts;
  }

 private:
  // --- token helpers -------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AtEof() const { return Peek().type == TokenType::kEof; }

  /// 1-based "line:col" of a byte offset (the lexer's shared LineIndex) —
  /// the source position carried by parse errors and stamped onto AST
  /// nodes for binder errors.
  std::string Pos(size_t offset) const { return lines_.Format(offset); }
  /// Stamps an AST node (Expr or TableRef) with a token's position.
  template <typename Node>
  void Tag(Node* node, const Token& tok) const {
    lines_.Lookup(tok.offset, &node->line, &node->col);
  }

  bool AcceptWord(std::string_view w) {
    if (Peek().IsWord(w)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(std::string_view s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectWord(std::string_view w) {
    if (!AcceptWord(w)) {
      return Status::ParseError(StringFormat("expected '%.*s' at %s (got '%s')",
                                             static_cast<int>(w.size()), w.data(),
                                             Pos(Peek().offset).c_str(),
                                             Peek().text.c_str()));
    }
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view s) {
    if (!AcceptSymbol(s)) {
      return Status::ParseError(StringFormat("expected '%.*s' at %s (got '%s')",
                                             static_cast<int>(s.size()), s.data(),
                                             Pos(Peek().offset).c_str(),
                                             Peek().text.c_str()));
    }
    return Status::OK();
  }
  Status Unexpected(std::string_view what) {
    return Status::ParseError(StringFormat("expected %.*s at %s (got '%s')",
                                           static_cast<int>(what.size()), what.data(),
                                           Pos(Peek().offset).c_str(),
                                           Peek().type == TokenType::kEof
                                               ? "end of input"
                                               : Peek().text.c_str()));
  }
  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (Peek().type != TokenType::kIdentifier) {
      MAYBMS_RETURN_NOT_OK(Unexpected(what));
    }
    return Advance().text;
  }

  // --- statements ----------------------------------------------------------

  Result<StatementPtr> ParseStatement() {
    if (Peek().IsWord("select") || Peek().IsWord("repair") || Peek().IsWord("pick") ||
        Peek().IsSymbol("(")) {
      MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect());
      return StatementPtr(std::move(sel));
    }
    if (Peek().IsWord("create")) return ParseCreate();
    if (Peek().IsWord("insert")) return ParseInsert();
    if (Peek().IsWord("update")) return ParseUpdate();
    if (Peek().IsWord("delete")) return ParseDelete();
    if (Peek().IsWord("drop")) return ParseDrop();
    if (Peek().IsWord("assert")) return ParseAssert();
    if (Peek().IsWord("condition")) return ParseConditionOn();
    if (Peek().IsWord("show")) return ParseShow();
    if (Peek().IsWord("clear")) return ParseClearEvidence();
    if (Peek().IsWord("set")) return ParseSet();
    if (Peek().IsWord("explain")) return ParseExplain();
    // An identifier in statement position is an unsupported statement —
    // name it, instead of the generic "expected a statement" failure.
    if (Peek().type == TokenType::kIdentifier) {
      return Status::ParseError(StringFormat(
          "unsupported statement '%s' at %s (supported: SELECT, CREATE, "
          "INSERT, UPDATE, DELETE, DROP, ASSERT, CONDITION ON, SHOW "
          "EVIDENCE, SHOW STATS, CLEAR EVIDENCE, SET, EXPLAIN)",
          Peek().text.c_str(), Pos(Peek().offset).c_str()));
    }
    MAYBMS_RETURN_NOT_OK(Unexpected("a statement"));
    return Status::Internal("unreachable");
  }

  /// `SET <knob> = <value>`: value is a number or a bare word
  /// (on/off/true/false/row/batch/...).
  Result<StatementPtr> ParseSet() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("set"));
    auto stmt = std::make_unique<SetStmt>();
    if (Peek().type != TokenType::kIdentifier) {
      MAYBMS_RETURN_NOT_OK(Unexpected("a setting name"));
    }
    stmt->name = ToLower(Advance().text);
    MAYBMS_RETURN_NOT_OK(ExpectSymbol("="));
    const Token& tok = Peek();
    lines_.Lookup(tok.offset, &stmt->value_line, &stmt->value_col);
    if (tok.type == TokenType::kFloat) {
      stmt->value_num = tok.float_value;
      stmt->value_text = tok.text;
    } else if (tok.type == TokenType::kInteger) {
      stmt->value_num = static_cast<double>(tok.int_value);
      stmt->value_text = tok.text;
    } else if (tok.type == TokenType::kIdentifier ||
               tok.type == TokenType::kString) {
      stmt->value_text = ToLower(tok.text);
    } else {
      MAYBMS_RETURN_NOT_OK(Unexpected("a setting value"));
    }
    Advance();
    // Reject trailing garbage HERE, not at the generic statement-boundary
    // check, so `SET fallback_epsilon = 0.5abc` (which lexes as the float
    // `0.5` followed by the identifier `abc`) names the SET statement in
    // its position-stamped error instead of silently depending on the
    // caller's end-of-statement handling.
    if (!AtEof() && !Peek().IsSymbol(";")) {
      return Status::ParseError(StringFormat(
          "SET %s: unexpected '%s' after value '%s' at %s", stmt->name.c_str(),
          Peek().text.c_str(), stmt->value_text.c_str(),
          Pos(Peek().offset).c_str()));
    }
    return StatementPtr(std::move(stmt));
  }

  /// `ASSERT <select>` (conditioning) or
  /// `ASSERT CONFIDENCE >= <p> [FOR] <select>` (posterior check).
  Result<StatementPtr> ParseAssert() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("assert"));
    auto stmt = std::make_unique<AssertStmt>();
    if (AcceptWord("confidence")) {
      MAYBMS_RETURN_NOT_OK(ExpectSymbol(">="));
      const Token& tok = Peek();
      double p;
      if (tok.type == TokenType::kFloat) {
        p = tok.float_value;
      } else if (tok.type == TokenType::kInteger) {
        p = static_cast<double>(tok.int_value);
      } else {
        MAYBMS_RETURN_NOT_OK(Unexpected("a confidence threshold"));
        return Status::Internal("unreachable");
      }
      if (p < 0 || p > 1) {
        return Status::ParseError(StringFormat(
            "confidence threshold %g at %s outside [0,1]", p,
            Pos(tok.offset).c_str()));
      }
      Advance();
      stmt->min_confidence = p;
      AcceptWord("for");
    }
    MAYBMS_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    return StatementPtr(std::move(stmt));
  }

  /// `CONDITION ON <select>` — synonym of the conditioning ASSERT.
  Result<StatementPtr> ParseConditionOn() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("condition"));
    MAYBMS_RETURN_NOT_OK(ExpectWord("on"));
    auto stmt = std::make_unique<AssertStmt>();
    MAYBMS_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    return StatementPtr(std::move(stmt));
  }

  /// `SHOW EVIDENCE`, `SHOW STATS [LIKE '<pattern>']`, or `SHOW INDEXES`.
  Result<StatementPtr> ParseShow() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("show"));
    if (AcceptWord("evidence")) {
      return StatementPtr(std::make_unique<ShowEvidenceStmt>());
    }
    if (AcceptWord("indexes") || AcceptWord("index")) {
      return StatementPtr(std::make_unique<ShowIndexesStmt>());
    }
    if (AcceptWord("stats")) {
      auto stmt = std::make_unique<ShowStatsStmt>();
      if (AcceptWord("like")) {
        if (Peek().type != TokenType::kString) {
          MAYBMS_RETURN_NOT_OK(Unexpected("a quoted LIKE pattern"));
        }
        stmt->pattern = Advance().text;
      }
      return StatementPtr(std::move(stmt));
    }
    MAYBMS_RETURN_NOT_OK(Unexpected("EVIDENCE, STATS, or INDEXES after SHOW"));
    return Status::Internal("unreachable");
  }

  /// `EXPLAIN [ANALYZE] <statement>`. The inner statement may be anything
  /// except another EXPLAIN (nested introspection has no meaning here).
  Result<StatementPtr> ParseExplain() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("explain"));
    auto stmt = std::make_unique<ExplainStmt>();
    stmt->analyze = AcceptWord("analyze");
    if (Peek().IsWord("explain")) {
      return Status::ParseError(StringFormat(
          "EXPLAIN cannot be nested at %s", Pos(Peek().offset).c_str()));
    }
    MAYBMS_ASSIGN_OR_RETURN(stmt->inner, ParseStatement());
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseClearEvidence() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("clear"));
    MAYBMS_RETURN_NOT_OK(ExpectWord("evidence"));
    return StatementPtr(std::make_unique<ClearEvidenceStmt>());
  }

  Result<StatementPtr> ParseCreate() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("create"));
    if (AcceptWord("index")) return ParseCreateIndexTail();
    MAYBMS_RETURN_NOT_OK(ExpectWord("table"));
    MAYBMS_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    if (AcceptWord("as")) {
      auto stmt = std::make_unique<CreateTableAsStmt>();
      stmt->name = std::move(name);
      MAYBMS_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
      return StatementPtr(std::move(stmt));
    }
    MAYBMS_RETURN_NOT_OK(ExpectSymbol("("));
    auto stmt = std::make_unique<CreateTableStmt>();
    stmt->name = std::move(name);
    do {
      ColumnDef col;
      MAYBMS_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
      MAYBMS_ASSIGN_OR_RETURN(col.type, ParseTypeName());
      stmt->columns.push_back(std::move(col));
    } while (AcceptSymbol(","));
    MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
    return StatementPtr(std::move(stmt));
  }

  /// `CREATE INDEX <name> ON <table> (<column>)` — "create index" already
  /// consumed by ParseCreate.
  Result<StatementPtr> ParseCreateIndexTail() {
    auto stmt = std::make_unique<CreateIndexStmt>();
    MAYBMS_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("index name"));
    MAYBMS_RETURN_NOT_OK(ExpectWord("on"));
    MAYBMS_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    MAYBMS_RETURN_NOT_OK(ExpectSymbol("("));
    MAYBMS_ASSIGN_OR_RETURN(stmt->column, ExpectIdentifier("column name"));
    MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
    return StatementPtr(std::move(stmt));
  }

  Result<TypeId> ParseTypeName() {
    MAYBMS_ASSIGN_OR_RETURN(std::string word, ExpectIdentifier("type name"));
    std::string t = ToLower(word);
    if (t == "int" || t == "integer" || t == "bigint" || t == "smallint") {
      return TypeId::kInt;
    }
    if (t == "double" || t == "float" || t == "real" || t == "numeric" ||
        t == "decimal") {
      // Allow "double precision".
      if (t == "double") AcceptWord("precision");
      return TypeId::kDouble;
    }
    if (t == "text" || t == "string" || t == "char") return TypeId::kString;
    if (t == "varchar") {
      if (AcceptSymbol("(")) {
        if (Peek().type != TokenType::kInteger) {
          MAYBMS_RETURN_NOT_OK(Unexpected("varchar length"));
        }
        Advance();
        MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      return TypeId::kString;
    }
    if (t == "bool" || t == "boolean") return TypeId::kBool;
    return Status::ParseError(StringFormat("unknown type name '%s'", word.c_str()));
  }

  Result<StatementPtr> ParseInsert() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("insert"));
    MAYBMS_RETURN_NOT_OK(ExpectWord("into"));
    auto stmt = std::make_unique<InsertStmt>();
    MAYBMS_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (Peek().IsSymbol("(")) {
      Advance();
      do {
        MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (AcceptSymbol(","));
      MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    if (AcceptWord("values")) {
      do {
        MAYBMS_RETURN_NOT_OK(ExpectSymbol("("));
        std::vector<ExprPtr> row;
        do {
          MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          row.push_back(std::move(e));
        } while (AcceptSymbol(","));
        MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
        stmt->rows.push_back(std::move(row));
      } while (AcceptSymbol(","));
    } else {
      MAYBMS_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseUpdate() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("update"));
    auto stmt = std::make_unique<UpdateStmt>();
    MAYBMS_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    MAYBMS_RETURN_NOT_OK(ExpectWord("set"));
    do {
      MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      MAYBMS_RETURN_NOT_OK(ExpectSymbol("="));
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(e));
    } while (AcceptSymbol(","));
    if (AcceptWord("where")) {
      MAYBMS_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDelete() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("delete"));
    MAYBMS_RETURN_NOT_OK(ExpectWord("from"));
    auto stmt = std::make_unique<DeleteStmt>();
    MAYBMS_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (AcceptWord("where")) {
      MAYBMS_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDrop() {
    MAYBMS_RETURN_NOT_OK(ExpectWord("drop"));
    if (AcceptWord("index")) {
      auto stmt = std::make_unique<DropIndexStmt>();
      if (AcceptWord("if")) {
        MAYBMS_RETURN_NOT_OK(ExpectWord("exists"));
        stmt->if_exists = true;
      }
      MAYBMS_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("index name"));
      return StatementPtr(std::move(stmt));
    }
    MAYBMS_RETURN_NOT_OK(ExpectWord("table"));
    auto stmt = std::make_unique<DropTableStmt>();
    if (AcceptWord("if")) {
      MAYBMS_RETURN_NOT_OK(ExpectWord("exists"));
      stmt->if_exists = true;
    }
    MAYBMS_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("table name"));
    return StatementPtr(std::move(stmt));
  }

  // --- select --------------------------------------------------------------

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> first, ParseSelectCore());
    SelectStmt* tail = first.get();
    while (Peek().IsWord("union")) {
      Advance();
      bool all = AcceptWord("all");
      MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> next, ParseSelectCore());
      next->union_all = all;
      tail->union_next = std::move(next);
      tail = tail->union_next.get();
    }
    return first;
  }

  // One select block (no UNION), or a bare repair-key / pick-tuples query
  // (wrapped into SELECT * FROM <construct>).
  Result<std::unique_ptr<SelectStmt>> ParseSelectCore() {
    if (Peek().IsWord("repair") || Peek().IsWord("pick")) {
      MAYBMS_ASSIGN_OR_RETURN(TableRefPtr ref, ParseRepairOrPick());
      auto sel = std::make_unique<SelectStmt>();
      SelectItem item;
      item.expr = std::make_unique<StarExpr>();
      sel->items.push_back(std::move(item));
      sel->from.push_back(std::move(ref));
      return sel;
    }
    if (Peek().IsSymbol("(")) {
      // Parenthesized select (e.g. the left side of a UNION).
      Advance();
      MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect());
      MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
      return sel;
    }
    MAYBMS_RETURN_NOT_OK(ExpectWord("select"));
    auto sel = std::make_unique<SelectStmt>();
    if (AcceptWord("possible")) {
      sel->possible = true;
    } else if (AcceptWord("distinct")) {
      sel->distinct = true;
    }
    do {
      MAYBMS_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      sel->items.push_back(std::move(item));
    } while (AcceptSymbol(","));

    if (AcceptWord("from")) {
      do {
        MAYBMS_ASSIGN_OR_RETURN(TableRefPtr ref, ParseTableRef());
        sel->from.push_back(std::move(ref));
      } while (AcceptSymbol(","));
    }
    if (AcceptWord("where")) {
      MAYBMS_ASSIGN_OR_RETURN(sel->where, ParseExpr());
    }
    if (AcceptWord("group")) {
      MAYBMS_RETURN_NOT_OK(ExpectWord("by"));
      do {
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        sel->group_by.push_back(std::move(e));
      } while (AcceptSymbol(","));
    }
    if (AcceptWord("order")) {
      MAYBMS_RETURN_NOT_OK(ExpectWord("by"));
      do {
        OrderItem item;
        MAYBMS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptWord("desc")) {
          item.descending = true;
        } else {
          AcceptWord("asc");
        }
        sel->order_by.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    if (AcceptWord("limit")) {
      if (Peek().type != TokenType::kInteger) {
        MAYBMS_RETURN_NOT_OK(Unexpected("limit count"));
      }
      sel->limit = Advance().int_value;
    }
    return sel;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Peek().IsSymbol("*")) {
      Advance();
      item.expr = std::make_unique<StarExpr>();
      return item;
    }
    // table.* ?
    if (Peek().type == TokenType::kIdentifier && Peek(1).IsSymbol(".") &&
        Peek(2).IsSymbol("*")) {
      std::string table = Advance().text;
      Advance();
      Advance();
      item.expr = std::make_unique<StarExpr>(std::move(table));
      return item;
    }
    MAYBMS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (AcceptWord("as")) {
      MAYBMS_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("column alias"));
    } else if (Peek().type == TokenType::kIdentifier && !IsReserved(Peek().text)) {
      item.alias = Advance().text;
    }
    return item;
  }

  // --- table references ----------------------------------------------------

  Result<TableRefPtr> ParseTableRef() {
    TableRefPtr ref;
    const Token& first = Peek();
    if (Peek().IsWord("repair") || Peek().IsWord("pick")) {
      MAYBMS_ASSIGN_OR_RETURN(ref, ParseRepairOrPick());
    } else if (Peek().IsSymbol("(")) {
      Advance();
      if (Peek().IsWord("repair") || Peek().IsWord("pick")) {
        MAYBMS_ASSIGN_OR_RETURN(ref, ParseRepairOrPick());
        MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
      } else {
        MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect());
        MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
        ref = std::make_unique<SubqueryRef>(std::move(sel));
      }
    } else {
      MAYBMS_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
      ref = std::make_unique<BaseTableRef>(std::move(name));
    }
    Tag(ref.get(), first);
    if (AcceptWord("as")) {
      MAYBMS_ASSIGN_OR_RETURN(ref->alias, ExpectIdentifier("table alias"));
    } else if (Peek().type == TokenType::kIdentifier && !IsReserved(Peek().text)) {
      ref->alias = Advance().text;
    }
    return ref;
  }

  Result<TableRefPtr> ParseRepairOrPick() {
    if (AcceptWord("repair")) {
      MAYBMS_RETURN_NOT_OK(ExpectWord("key"));
      auto ref = std::make_unique<RepairKeyRef>();
      do {
        MAYBMS_ASSIGN_OR_RETURN(ColumnRefExpr col, ParseQualifiedColumn());
        ref->key_columns.push_back(std::move(col));
      } while (AcceptSymbol(","));
      MAYBMS_RETURN_NOT_OK(ExpectWord("in"));
      MAYBMS_ASSIGN_OR_RETURN(ref->input, ParseConstructInput());
      if (AcceptWord("weight")) {
        MAYBMS_RETURN_NOT_OK(ExpectWord("by"));
        MAYBMS_ASSIGN_OR_RETURN(ref->weight, ParseExpr());
      }
      return TableRefPtr(std::move(ref));
    }
    MAYBMS_RETURN_NOT_OK(ExpectWord("pick"));
    MAYBMS_RETURN_NOT_OK(ExpectWord("tuples"));
    MAYBMS_RETURN_NOT_OK(ExpectWord("from"));
    auto ref = std::make_unique<PickTuplesRef>();
    MAYBMS_ASSIGN_OR_RETURN(ref->input, ParseConstructInput());
    if (AcceptWord("independently")) ref->independently = true;
    if (AcceptWord("with")) {
      MAYBMS_RETURN_NOT_OK(ExpectWord("probability"));
      MAYBMS_ASSIGN_OR_RETURN(ref->probability, ParseExpr());
    }
    return TableRefPtr(std::move(ref));
  }

  // The <t-certain-query> input of repair-key / pick-tuples: a table name
  // or a parenthesized select.
  Result<TableRefPtr> ParseConstructInput() {
    if (Peek().IsSymbol("(")) {
      Advance();
      MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect());
      MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
      return TableRefPtr(std::make_unique<SubqueryRef>(std::move(sel)));
    }
    MAYBMS_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    return TableRefPtr(std::make_unique<BaseTableRef>(std::move(name)));
  }

  Result<ColumnRefExpr> ParseQualifiedColumn() {
    const Token& first_tok = Peek();
    MAYBMS_ASSIGN_OR_RETURN(std::string first, ExpectIdentifier("column name"));
    if (AcceptSymbol(".")) {
      MAYBMS_ASSIGN_OR_RETURN(std::string second, ExpectIdentifier("column name"));
      ColumnRefExpr col(std::move(first), std::move(second));
      Tag(&col, first_tok);
      return col;
    }
    ColumnRefExpr col("", std::move(first));
    Tag(&col, first_tok);
    return col;
  }

  // --- expressions (precedence climbing) -----------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (AcceptWord("or")) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (AcceptWord("and")) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptWord("not")) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    // IS [NOT] NULL
    if (Peek().IsWord("is")) {
      Advance();
      bool negated = AcceptWord("not");
      MAYBMS_RETURN_NOT_OK(ExpectWord("null"));
      return ExprPtr(std::make_unique<IsNullExpr>(std::move(left), negated));
    }
    // [NOT] IN (subquery | value list)
    bool negated_in = false;
    if (Peek().IsWord("not") && Peek(1).IsWord("in")) {
      Advance();
      negated_in = true;
    }
    if (Peek().IsWord("in")) {
      Advance();
      MAYBMS_RETURN_NOT_OK(ExpectSymbol("("));
      if (Peek().IsWord("select") || Peek().IsWord("repair") || Peek().IsWord("pick")) {
        MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sub, ParseSelect());
        MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
        return ExprPtr(std::make_unique<InSubqueryExpr>(std::move(left), std::move(sub),
                                                        negated_in));
      }
      // Value list: rewrite to a chain of (in)equalities. The operand
      // expression tree is reused across comparisons via a prototype copy
      // being unavailable (Exprs are move-only), so we parse into a
      // disjunction re-using ToString-identical clones of simple operands.
      std::vector<ExprPtr> values;
      do {
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
        values.push_back(std::move(v));
      } while (AcceptSymbol(","));
      MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr chain,
                              BuildInList(std::move(left), std::move(values), negated_in));
      return chain;
    }
    struct OpMap {
      const char* symbol;
      BinaryOp op;
    };
    static constexpr OpMap kOps[] = {
        {"=", BinaryOp::kEq},  {"==", BinaryOp::kEq}, {"<>", BinaryOp::kNe},
        {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
        {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (Peek().IsSymbol(m.symbol)) {
        Advance();
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return ExprPtr(std::make_unique<BinaryExpr>(m.op, std::move(left),
                                                    std::move(right)));
      }
    }
    return left;
  }

  // expr IN (v1, v2, ...)  →  expr = v1 OR expr = v2 OR ...
  // Only column refs and literals can be cloned as the repeated operand.
  Result<ExprPtr> BuildInList(ExprPtr operand, std::vector<ExprPtr> values,
                              bool negated) {
    auto clone_operand = [&]() -> Result<ExprPtr> {
      switch (operand->kind) {
        case ExprKind::kColumnRef: {
          auto* col = static_cast<ColumnRefExpr*>(operand.get());
          return ExprPtr(std::make_unique<ColumnRefExpr>(col->table, col->column));
        }
        case ExprKind::kLiteral: {
          auto* lit = static_cast<LiteralExpr*>(operand.get());
          return ExprPtr(std::make_unique<LiteralExpr>(lit->value));
        }
        default:
          return Status::ParseError(
              "IN with a value list requires a column or literal on the left");
      }
    };
    ExprPtr chain;
    for (ExprPtr& v : values) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr lhs, clone_operand());
      auto eq = std::make_unique<BinaryExpr>(BinaryOp::kEq, std::move(lhs), std::move(v));
      if (!chain) {
        chain = std::move(eq);
      } else {
        chain = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(chain),
                                             std::move(eq));
      }
    }
    if (!chain) return Status::ParseError("empty IN list");
    if (negated) {
      chain = std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(chain));
    }
    return chain;
  }

  Result<ExprPtr> ParseAdditive() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Peek().IsSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (Peek().IsSymbol("-")) {
        op = BinaryOp::kSub;
      } else {
        break;
      }
      Advance();
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Peek().IsSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (Peek().IsSymbol("/")) {
        op = BinaryOp::kDiv;
      } else if (Peek().IsSymbol("%")) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      Advance();
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNegate, std::move(operand)));
    }
    if (AcceptSymbol("+")) return ParseUnary();
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger: {
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Int(tok.int_value)));
      }
      case TokenType::kFloat: {
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Double(tok.float_value)));
      }
      case TokenType::kString: {
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::String(tok.text)));
      }
      case TokenType::kSymbol:
        if (tok.IsSymbol("(")) {
          Advance();
          MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
          return e;
        }
        break;
      case TokenType::kIdentifier: {
        if (tok.IsWord("null")) {
          Advance();
          return ExprPtr(std::make_unique<LiteralExpr>(Value::Null()));
        }
        if (tok.IsWord("true")) {
          Advance();
          return ExprPtr(std::make_unique<LiteralExpr>(Value::Bool(true)));
        }
        if (tok.IsWord("false")) {
          Advance();
          return ExprPtr(std::make_unique<LiteralExpr>(Value::Bool(false)));
        }
        // Function call?
        if (Peek(1).IsSymbol("(")) {
          const Token name_tok = Peek();
          std::string name = ToLower(Advance().text);
          Advance();  // '('
          std::vector<ExprPtr> args;
          if (!Peek().IsSymbol(")")) {
            do {
              if (Peek().IsSymbol("*")) {
                Advance();
                args.push_back(std::make_unique<StarExpr>());
              } else {
                MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
                args.push_back(std::move(e));
              }
            } while (AcceptSymbol(","));
          }
          MAYBMS_RETURN_NOT_OK(ExpectSymbol(")"));
          auto call =
              std::make_unique<FunctionCallExpr>(std::move(name), std::move(args));
          Tag(call.get(), name_tok);
          return ExprPtr(std::move(call));
        }
        // Column reference. Reserved words cannot be bare column names —
        // this catches malformed statements like "select from t" early.
        if (IsReserved(tok.text)) break;
        MAYBMS_ASSIGN_OR_RETURN(ColumnRefExpr col, ParseQualifiedColumn());
        return ExprPtr(std::make_unique<ColumnRefExpr>(std::move(col)));
      }
      default:
        break;
    }
    MAYBMS_RETURN_NOT_OK(Unexpected("an expression"));
    return Status::Internal("unreachable");
  }

  std::vector<Token> tokens_;
  LineIndex lines_;  // error/AST positions over the original text
  size_t pos_ = 0;
};

}  // namespace

Result<StatementPtr> ParseStatement(std::string_view sql) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), sql);
  return parser.ParseSingleStatement();
}

Result<std::vector<StatementPtr>> ParseScript(std::string_view sql) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), sql);
  return parser.ParseAll();
}

}  // namespace maybms
