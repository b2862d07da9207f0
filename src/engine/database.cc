#include "src/engine/database.h"

namespace maybms {

Database::Database(DatabaseOptions options)
    : manager_(std::make_unique<SessionManager>()),
      session_(manager_->CreateSession(std::move(options))) {}

Database::~Database() = default;
Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;

Result<QueryResult> Database::Query(std::string_view sql) {
  return session_->Query(sql);
}

Status Database::Execute(std::string_view sql) { return session_->Execute(sql); }

Result<QueryResult> Database::ExecuteScript(std::string_view sql) {
  return session_->ExecuteScript(sql);
}

Result<std::string> Database::Explain(std::string_view sql) {
  return session_->Explain(sql);
}

}  // namespace maybms
