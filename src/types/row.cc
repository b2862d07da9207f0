#include "src/types/row.h"

namespace maybms {

std::string Row::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].ToString();
  }
  if (!condition.IsTrue()) {
    out += " | ";
    out += condition.ToString();
  }
  out += ")";
  return out;
}

bool ValuesEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].Equals(b[i])) return false;
  }
  return true;
}

}  // namespace maybms
