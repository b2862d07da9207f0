// Reference renderer for QueryResult::ToString: the straightforward
// formatter (Value::ToString and Condition::ToString per cell, a grid of
// strings, then the ASCII table). The production renderer formats in one
// pass with std::to_chars and must stay byte-identical to this one —
// clients digest the server's payload lines against it.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/str_util.h"
#include "src/engine/query_result.h"

namespace maybms {

inline std::string OracleRender(const QueryResult& result) {
  std::vector<std::string> headers;
  for (const Column& col : result.schema().columns()) headers.push_back(col.name);
  bool show_cond = result.uncertain();
  if (show_cond) headers.push_back("condition");

  std::vector<std::vector<std::string>> cells;
  for (const Row& row : result.rows()) {
    std::vector<std::string> line;
    for (const Value& v : row.values) line.push_back(v.ToString());
    if (show_cond) line.push_back(row.condition.ToString());
    cells.push_back(std::move(line));
  }

  std::vector<size_t> widths(headers.size(), 0);
  for (size_t i = 0; i < headers.size(); ++i) widths[i] = headers[i].size();
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) widths[i] = std::max(widths[i], line[i].size());
  }

  auto render_row = [&](const std::vector<std::string>& line) {
    std::string out = "|";
    for (size_t i = 0; i < headers.size(); ++i) {
      std::string cell = i < line.size() ? line[i] : "";
      out += " " + cell + std::string(widths[i] - cell.size(), ' ') + " |";
    }
    return out + "\n";
  };
  std::string sep = "+";
  for (size_t w : widths) sep += std::string(w + 2, '-') + "+";
  sep += "\n";

  std::string out = sep + render_row(headers) + sep;
  for (const auto& line : cells) out += render_row(line);
  out += sep;
  out += StringFormat("(%zu row%s)\n", cells.size(), cells.size() == 1 ? "" : "s");
  return out;
}

}  // namespace maybms
