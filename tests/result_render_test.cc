// QueryResult::ToString against the reference renderer in
// result_render_oracle.h: byte-identical output over random results —
// NULL, bools, int64 extremes, doubles at the "%.1f"/"%.6g" boundary and
// the special values, strings, and empty or multi-atom conditions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/database.h"
#include "tests/result_render_oracle.h"

namespace maybms {
namespace {

double FromBits(uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

// Doubles that exercise both formats and every special case.
double RandomDouble(Rng* rng) {
  static const double kSpecial[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      1e15,
      -1e15,
      1e15 - 1,
      -(1e15 - 1),
      1e15 + 2,
      999999999999999.5,
      123456.5,
      1234567.0,
      0.1 + 0.2,
      1e-7,
      -1e-300,
      4.9e-324,
      1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  constexpr size_t kNumSpecial = sizeof kSpecial / sizeof kSpecial[0];
  switch (rng->NextBounded(5)) {
    case 0:
      return kSpecial[rng->NextBounded(kNumSpecial)];
    case 1:  // an integral value on either side of 1e15
      return std::floor((rng->NextDouble() * 2 - 1) * 4e15);
    case 2:  // any bit pattern
      return FromBits(rng->Next());
    case 3:
      return (rng->NextDouble() - 0.5) * std::pow(10.0, static_cast<int>(rng->NextBounded(40)) - 20);
    default:
      return rng->NextDouble();
  }
}

Value RandomValue(Rng* rng) {
  switch (rng->NextBounded(6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->NextBounded(2) == 1);
    case 2: {
      static const int64_t kInts[] = {0, -1, 1, std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max()};
      if (rng->NextBounded(2) == 0) return Value::Int(kInts[rng->NextBounded(5)]);
      return Value::Int(static_cast<int64_t>(rng->Next()));
    }
    case 3:
    case 4:
      return Value::Double(RandomDouble(rng));
    default: {
      std::string s(rng->NextBounded(12), ' ');
      for (char& c : s) c = static_cast<char>(' ' + rng->NextBounded(95));
      return Value::String(std::move(s));
    }
  }
}

Condition RandomCondition(Rng* rng) {
  std::vector<Atom> atoms;
  const size_t n = rng->NextBounded(4);
  uint32_t var = static_cast<uint32_t>(rng->NextBounded(3));
  for (size_t i = 0; i < n; ++i) {
    var += 1 + static_cast<uint32_t>(rng->NextBounded(rng->NextBounded(2) == 0 ? 10 : 4000000000u));
    atoms.push_back(Atom{var, static_cast<uint32_t>(rng->NextBounded(1000))});
  }
  return *Condition::FromAtoms(std::move(atoms));
}

QueryResult RandomResult(Rng* rng) {
  TableData data;
  const size_t ncols = rng->NextBounded(5);
  for (size_t c = 0; c < ncols; ++c) {
    std::string name = "c" + std::to_string(c);
    name.append(rng->NextBounded(10), '_');
    data.schema.AddColumn(Column{std::move(name), TypeId::kNull});
  }
  data.uncertain = rng->NextBounded(2) == 1;
  const size_t nrows = rng->NextBounded(3) == 0 ? rng->NextBounded(2) : rng->NextBounded(40);
  for (size_t r = 0; r < nrows; ++r) {
    Row row;
    for (size_t c = 0; c < ncols; ++c) row.values.push_back(RandomValue(rng));
    if (data.uncertain) row.condition = RandomCondition(rng);
    data.rows.push_back(std::move(row));
  }
  return QueryResult(std::move(data), "");
}

TEST(ResultRenderTest, MatchesOracleOnRandomResults) {
  Rng rng(20261017);
  for (int iter = 0; iter < 3000; ++iter) {
    QueryResult r = RandomResult(&rng);
    ASSERT_EQ(r.ToString(), OracleRender(r)) << "iteration " << iter;
  }
}

TEST(ResultRenderTest, MatchesOracleOnEveryDoubleBoundary) {
  // Each special double alone in a column, so a one-byte difference in
  // its text also changes the column width.
  const double values[] = {-0.0, 1e15, 1e15 - 1, -1e15, 1e15 + 2, 1e16, 0.1,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (double d : values) {
    TableData data;
    data.schema.AddColumn(Column{"d", TypeId::kDouble});
    Row row;
    row.values.push_back(Value::Double(d));
    data.rows.push_back(std::move(row));
    QueryResult r(std::move(data), "");
    EXPECT_EQ(r.ToString(), OracleRender(r)) << Value::Double(d).ToString();
  }
}

TEST(ResultRenderTest, MatchesOracleOnEngineResults) {
  Database db;
  ASSERT_TRUE(db.Execute("create table base (k int, v double, s text, w double)").ok());
  ASSERT_TRUE(db.Execute("insert into base values (1, 0.5, 'a', 0.3), (1, -2.0, 'b', 0.7), "
                         "(2, 1e20, null, 1.0), (3, null, 'c', 0.4), (3, 7.25, 'd', 0.6)")
                  .ok());
  ASSERT_TRUE(db.Execute("create table u as repair key k in base weight by w").ok());
  for (const char* sql : {"select * from u", "select s, conf() as p from u group by s",
                          "select k, v from base order by k", "select * from base where k = 9"}) {
    auto r = db.Query(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_EQ(r->ToString(), OracleRender(*r)) << sql;
  }
}

}  // namespace
}  // namespace maybms
