#include "engine/database.h"

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "engine/value.h"

namespace vbr {
namespace {

TEST(ValueTest, NumericConstantsEncodeAsIntegers) {
  EXPECT_EQ(EncodeConstant(Const("42")), 42);
  EXPECT_EQ(EncodeConstant(Const("-7")), -7);
  EXPECT_EQ(EncodeConstant(Const("0")), 0);
}

TEST(ValueTest, SymbolicConstantsAreStableAndDisjointFromData) {
  const Value a1 = EncodeConstant(Const("anderson"));
  const Value a2 = EncodeConstant(Const("anderson"));
  const Value b = EncodeConstant(Const("boston"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_LE(a1, kSymbolicValueBase);
}

TEST(ValueTest, ValueToStringRoundTrips) {
  EXPECT_EQ(ValueToString(EncodeConstant(Const("anderson"))), "anderson");
  EXPECT_EQ(ValueToString(123), "123");
  EXPECT_EQ(ValueToString(-123), "-123");
}

TEST(DatabaseTest, GetOrCreateAndFind) {
  Database db;
  EXPECT_EQ(db.Find(SymbolTable::Global().Intern("nothing")), nullptr);
  db.AddRow("r", {1, 2});
  const Symbol r = SymbolTable::Global().Intern("r");
  ASSERT_NE(db.Find(r), nullptr);
  EXPECT_EQ(db.Find(r)->arity(), 2u);
  EXPECT_EQ(db.Find(r)->size(), 1u);
}

TEST(DatabaseTest, AddFactEncodesConstants) {
  Database db;
  const auto q = MustParseQuery("h() :- car(m,anderson)");
  db.AddFact(q.subgoal(0));
  const Relation* car = db.Find(SymbolTable::Global().Intern("car"));
  ASSERT_NE(car, nullptr);
  EXPECT_TRUE(car->Contains({EncodeConstant(Const("m")),
                             EncodeConstant(Const("anderson"))}));
}

TEST(DatabaseTest, TotalRowsAndPredicates) {
  Database db;
  db.AddRow("b_rel", {1});
  db.AddRow("a_rel", {1});
  db.AddRow("a_rel", {2});
  EXPECT_EQ(db.TotalRows(), 3u);
  const auto preds = db.Predicates();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(SymbolTable::Global().NameOf(preds[0]), "a_rel");
}

// Copies share relations until one writes; a write in either direction
// stays in the database it was made through.
TEST(DatabaseTest, CopiesShareRelationsUntilAWrite) {
  Database original;
  original.AddRow("r", {1});
  original.AddRow("s", {1});
  const Symbol r = SymbolTable::Global().Intern("r");
  const Symbol s = SymbolTable::Global().Intern("s");

  Database copy = original;
  EXPECT_EQ(copy.Find(r), original.Find(r));
  copy.AddRow("r", {2});
  EXPECT_NE(copy.Find(r), original.Find(r));
  EXPECT_EQ(original.Find(r)->size(), 1u);
  EXPECT_EQ(copy.Find(r)->size(), 2u);

  original.AddRow("s", {2});
  EXPECT_EQ(original.Find(s)->size(), 2u);
  EXPECT_EQ(copy.Find(s)->size(), 1u);

  Database merged;
  merged.MergeFrom(copy);
  EXPECT_EQ(merged.Find(r), copy.Find(r));
  EXPECT_TRUE(copy.Remove(r));
  EXPECT_EQ(merged.Find(r)->size(), 2u);
}

TEST(DatabaseDeathTest, ArityMismatchAborts) {
  Database db;
  db.AddRow("r", {1, 2});
  EXPECT_DEATH(db.AddRow("r", {1}), "arity");
}

}  // namespace
}  // namespace vbr
