// Unit tests for src/types: Value semantics, Schema, row hashing.
#include <gtest/gtest.h>

#include "src/types/row.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace maybms {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), TypeId::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Bool(true).type(), TypeId::kBool);
  EXPECT_EQ(Value::Int(3).type(), TypeId::kInt);
  EXPECT_EQ(Value::Double(2.5).type(), TypeId::kDouble);
  EXPECT_EQ(Value::String("x").type(), TypeId::kString);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Int(3).AsInt(), 3);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_EQ(*Value::Int(3).ToDouble(), 3.0);
  EXPECT_EQ(*Value::Double(2.9).ToInt(), 2);
  EXPECT_EQ(*Value::Bool(true).ToDouble(), 1.0);
  EXPECT_FALSE(Value::String("x").ToDouble().ok());
  EXPECT_FALSE(Value::Null().ToInt().ok());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_TRUE(Value::Int(5).Equals(Value::Double(5.0)));
  EXPECT_FALSE(Value::Int(5).Equals(Value::Double(5.5)));
  EXPECT_TRUE(Value::Double(0.0).Equals(Value::Int(0)));
}

TEST(ValueTest, NullEqualsOnlyNull) {
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int(0)));
  EXPECT_FALSE(Value::String("").Equals(Value::Null()));
}

TEST(ValueTest, StringEquality) {
  EXPECT_TRUE(Value::String("ab").Equals(Value::String("ab")));
  EXPECT_FALSE(Value::String("ab").Equals(Value::String("Ab")));
  EXPECT_FALSE(Value::String("5").Equals(Value::Int(5)));
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value::Null().Compare(Value::Bool(false)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Int(4)), 0);
  EXPECT_GT(Value::Int(4).Compare(Value::Double(3.5)), 0);
  EXPECT_EQ(Value::Int(4).Compare(Value::Double(4.0)), 0);
  EXPECT_LT(Value::Double(9.0).Compare(Value::String("a")), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  EXPECT_EQ(Value::String("a").Compare(Value::String("a")), 0);
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Double(5.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::Double(0.25).ToString(), "0.25");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s({{"Player", TypeId::kString}, {"P", TypeId::kDouble}});
  EXPECT_EQ(*s.FindColumn("player"), 0u);
  EXPECT_EQ(*s.FindColumn("PLAYER"), 0u);
  EXPECT_EQ(*s.FindColumn("p"), 1u);
  EXPECT_FALSE(s.FindColumn("missing").has_value());
}

TEST(SchemaTest, GetColumnIndexErrors) {
  Schema s({{"a", TypeId::kInt}});
  EXPECT_TRUE(s.GetColumnIndex("a").ok());
  Result<size_t> r = s.GetColumnIndex("b");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", TypeId::kInt}});
  Schema b({{"y", TypeId::kString}, {"z", TypeId::kDouble}});
  Schema c = Schema::Concat(a, b);
  ASSERT_EQ(c.NumColumns(), 3u);
  EXPECT_EQ(c.column(0).name, "x");
  EXPECT_EQ(c.column(2).name, "z");
}

TEST(SchemaTest, UnionCompatibility) {
  Schema a({{"x", TypeId::kInt}, {"y", TypeId::kString}});
  Schema b({{"u", TypeId::kDouble}, {"v", TypeId::kString}});
  Schema c({{"u", TypeId::kString}, {"v", TypeId::kString}});
  Schema d({{"u", TypeId::kInt}});
  EXPECT_TRUE(a.UnionCompatible(b));  // int/double compatible
  EXPECT_FALSE(a.UnionCompatible(c));
  EXPECT_FALSE(a.UnionCompatible(d));
}

TEST(SchemaTest, ToStringRendering) {
  Schema s({{"a", TypeId::kInt}, {"b", TypeId::kString}});
  EXPECT_EQ(s.ToString(), "(a int, b string)");
}

TEST(RowTest, HashAndEquality) {
  std::vector<Value> a = {Value::Int(1), Value::String("x")};
  std::vector<Value> b = {Value::Double(1.0), Value::String("x")};
  std::vector<Value> c = {Value::Int(1), Value::String("y")};
  EXPECT_EQ(HashValueSpan(a.data(), a.size()),
            HashValueSpan(b.data(), b.size()));  // 1 == 1.0
  EXPECT_TRUE(ValuesEqual(a, b));
  EXPECT_FALSE(ValuesEqual(a, c));
  EXPECT_FALSE(ValuesEqual(a, {Value::Int(1)}));
}

TEST(RowTest, ToStringIncludesCondition) {
  Row row({Value::Int(1)});
  EXPECT_EQ(row.ToString(), "(1)");
  row.condition.AddAtom(Atom{3, 1});
  EXPECT_EQ(row.ToString(), "(1 | {x3->1})");
}

}  // namespace
}  // namespace maybms
