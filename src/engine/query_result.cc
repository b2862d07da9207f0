#include "src/engine/query_result.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "src/common/str_util.h"

namespace maybms {

std::optional<Value> QueryResult::Lookup(size_t key_col, const Value& key,
                                         size_t value_col) const {
  for (const Row& row : data_.rows) {
    if (row.values[key_col].Equals(key)) return row.values[value_col];
  }
  return std::nullopt;
}

Result<Value> QueryResult::ScalarValue() const {
  if (NumRows() != 1 || NumColumns() != 1) {
    return Status::InvalidArgument(StringFormat(
        "expected a scalar result, got %zu rows x %zu columns", NumRows(),
        NumColumns()));
  }
  return data_.rows[0].values[0];
}

namespace {

template <typename T>
void AppendChars(std::string* out, T v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// Value::ToString, appended without a temporary: doubles print as "%.1f"
// when integral and below 1e15, else "%.6g" — std::to_chars with a
// precision is specified as printf with that conversion.
void AppendValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case TypeId::kNull:
      out->append("NULL");
      return;
    case TypeId::kBool:
      out->append(v.AsBool() ? "true" : "false");
      return;
    case TypeId::kInt:
      AppendChars(out, v.AsInt());
      return;
    case TypeId::kDouble: {
      const double d = v.AsDouble();
      char buf[64];
      const std::to_chars_result r =
          std::floor(d) == d && std::fabs(d) < 1e15
              ? std::to_chars(buf, buf + sizeof buf, d, std::chars_format::fixed, 1)
              : std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 6);
      out->append(buf, r.ptr);
      return;
    }
    case TypeId::kString:
      out->append(v.AsString());
      return;
  }
}

// Condition::ToString: "{x1->0, x4->2}".
void AppendCondition(const Condition& c, std::string* out) {
  out->push_back('{');
  for (size_t i = 0; i < c.atoms().size(); ++i) {
    if (i > 0) out->append(", ");
    out->push_back('x');
    AppendChars(out, c.atoms()[i].var);
    out->append("->");
    AppendChars(out, c.atoms()[i].asg);
  }
  out->push_back('}');
}

}  // namespace

std::string QueryResult::ToString() const {
  // Pass 1: every cell (headers first) into one text arena, recording cell
  // ends and column widths. Pass 2: the table into one reserved buffer.
  const size_t ncols = data_.schema.NumColumns();
  const bool show_cond = data_.uncertain;
  const size_t width = ncols + (show_cond ? 1 : 0);
  std::string text;
  std::vector<size_t> ends;
  ends.reserve((data_.rows.size() + 1) * width);
  std::vector<size_t> widths(width, 0);
  auto end_cell = [&](size_t col) {
    const size_t begin = ends.empty() ? 0 : ends.back();
    widths[col] = std::max(widths[col], text.size() - begin);
    ends.push_back(text.size());
  };
  for (size_t c = 0; c < ncols; ++c) {
    text.append(data_.schema.column(c).name);
    end_cell(c);
  }
  if (show_cond) {
    text.append("condition");
    end_cell(ncols);
  }
  for (const Row& row : data_.rows) {
    for (size_t c = 0; c < ncols; ++c) {
      if (c < row.values.size()) AppendValue(row.values[c], &text);
      end_cell(c);
    }
    if (show_cond) {
      AppendCondition(row.condition, &text);
      end_cell(ncols);
    }
  }

  size_t line_len = 2;  // leading '|' or '+', trailing newline
  for (size_t w : widths) line_len += w + 3;
  const size_t num_lines = data_.rows.size() + 4;
  std::string out;
  out.reserve(line_len * num_lines + 24);
  auto rule = [&] {
    out.push_back('+');
    for (size_t w : widths) {
      out.append(w + 2, '-');
      out.push_back('+');
    }
    out.push_back('\n');
  };
  size_t cell = 0;
  auto line = [&] {
    out.push_back('|');
    for (size_t c = 0; c < width; ++c, ++cell) {
      const size_t begin = cell == 0 ? 0 : ends[cell - 1];
      const size_t len = ends[cell] - begin;
      out.push_back(' ');
      out.append(text, begin, len);
      out.append(widths[c] - len, ' ');
      out.append(" |");
    }
    out.push_back('\n');
  };
  rule();
  line();
  rule();
  for (size_t r = 0; r < data_.rows.size(); ++r) line();
  rule();
  out.push_back('(');
  AppendChars(&out, data_.rows.size());
  out.append(data_.rows.size() == 1 ? " row)\n" : " rows)\n");
  return out;
}

}  // namespace maybms
