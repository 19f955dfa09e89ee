// Edge cases across smaller surfaces: result sets, cache keys, degenerate
// dimensions, and evaluator guardrails.

#include <gtest/gtest.h>

#include <string>

#include "constraint/cst_object.h"
#include "constraint/solver_cache.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "query/result_set.h"

namespace lyric {
namespace {

TEST(ResultSetTest, DeduplicatesRows) {
  ResultSet r({"a", "b"});
  r.AddRow({Oid::Int(1), Oid::Int(2)});
  r.AddRow({Oid::Int(1), Oid::Int(2)});
  r.AddRow({Oid::Int(3), Oid::Int(4)});
  EXPECT_EQ(r.size(), 2u);
}

TEST(ResultSetTest, ColumnAndContains) {
  ResultSet r({"a", "b"});
  r.AddRow({Oid::Int(1), Oid::Str("x")});
  r.AddRow({Oid::Int(2), Oid::Str("y")});
  EXPECT_TRUE(r.ContainsOid(Oid::Int(1)));
  EXPECT_FALSE(r.ContainsOid(Oid::Str("x")));  // Only first column.
  auto col = r.Column(1);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col[0], Oid::Str("x"));
  EXPECT_EQ(r.Column(7).size(), 0u);  // Out-of-range column is empty.
}

TEST(ResultSetTest, ToStringShape) {
  ResultSet r({"only"});
  EXPECT_NE(r.ToString().find("(0 rows)"), std::string::npos);
  r.AddRow({Oid::Int(1)});
  EXPECT_NE(r.ToString().find("(1 row)"), std::string::npos);
}

// Equal values reached by different arithmetic (4x * 1/2 vs 2x) give
// equal solver-cache keys, at every level the key encodes.
TEST(HashingTest, EqualValuesHashEqual) {
  auto key = [](const SolverCache::Question& q) {
    std::string out;
    SolverCache::EncodeKey(q, &out);
    return out;
  };
  VarId x = Variable::Intern("hx");
  LinearExpr a = LinearExpr::Term(Rational(2), x);
  LinearExpr b = LinearExpr::Term(Rational(4), x).Scale(Rational(1, 2));
  EXPECT_EQ(a, b);
  LinearConstraint ca = LinearConstraint::Le(a, LinearExpr());
  LinearConstraint cb = LinearConstraint::Le(b, LinearExpr());
  EXPECT_EQ(ca, cb);
  Conjunction c1;
  c1.Add(ca);
  Conjunction c2;
  c2.Add(cb);
  EXPECT_EQ(key(SolverCache::Question::Sat(c1)),
            key(SolverCache::Question::Sat(c2)));
  EXPECT_EQ(key(SolverCache::Question::Simplify(c1, CanonicalLevel::kCheap)),
            key(SolverCache::Question::Simplify(c2, CanonicalLevel::kCheap)));
  Dnf d1(c1);
  Dnf d2(c2);
  EXPECT_EQ(key(SolverCache::Question::Entails(c1, d1)),
            key(SolverCache::Question::Entails(c2, d2)));
}

TEST(ZeroDimensionalTest, CstObjectOperations) {
  CstObject t;  // TRUE, dimension 0.
  CstObject f = CstObject::FromDnf({}, Dnf::False()).value();
  EXPECT_TRUE(t.Satisfiable().value());
  EXPECT_FALSE(f.Satisfiable().value());
  // Entailment between 0-dimensional objects is propositional.
  EXPECT_TRUE(f.Entails(t).value());
  EXPECT_FALSE(t.Entails(f).value());
  EXPECT_TRUE(t.Conjoin(f).value().Satisfiable().value() == false);
  EXPECT_TRUE(t.Disjoin(f).value().Satisfiable().value());
  // Canonical identity distinguishes them.
  EXPECT_NE(t.CanonicalString().value(), f.CanonicalString().value());
}

TEST(ZeroDimensionalTest, ProjectionToNothing) {
  VarId x = Variable::Intern("zx");
  Conjunction c;
  c.Add(LinearConstraint::Ge(LinearExpr::Var(x),
                             LinearExpr::Constant(Rational(5))));
  CstObject obj = CstObject::FromConjunction({x}, c).value();
  CstObject empty_iface = obj.ProjectEager({}).value();
  EXPECT_EQ(empty_iface.Dimension(), 0u);
  EXPECT_TRUE(empty_iface.Satisfiable().value());  // x >= 5 is satisfiable.
}

TEST(EvaluatorGuardTest, MaxRowsEnforced) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(office::AddScaledDesks(&db, 12, 1).ok());
  EvalOptions opts;
  opts.max_rows = 5;
  Evaluator ev(&db, opts);
  auto r = ev.Execute("SELECT O1, O2 FROM Object_in_Room O1, "
                      "Object_in_Room O2");
  // The limit truncates the result instead of failing the query; the
  // truncation is flagged so callers can tell a full answer from a cut.
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 5u);
  EXPECT_TRUE(r->truncated());
}

TEST(EvaluatorGuardTest, EmptyFromProductIsEmpty) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok());
  Evaluator ev(&db);
  // File_Cabinet extent is empty: the cartesian product collapses.
  auto r = ev.Execute("SELECT X FROM Desk X, File_Cabinet F");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 0u);
}

TEST(OidEdgeTest, EmptyFunctionArgs) {
  Oid f = Oid::Func("now", {});
  EXPECT_EQ(f.ToString(), "now()");
  EXPECT_EQ(f, Oid::Func("now", {}));
  EXPECT_NE(f, Oid::Symbol("now"));
}

TEST(ConjunctionEdgeTest, FalseAbsorbs) {
  Conjunction f = Conjunction::False();
  Conjunction c;
  c.Add(LinearConstraint::Ge(LinearExpr::Var(Variable::Intern("fx")),
                             LinearExpr::Constant(Rational(0))));
  EXPECT_EQ(f.Conjoin(c), Conjunction::False());
  // Conjoining FALSE from either side collapses to the canonical FALSE.
  EXPECT_EQ(c.Conjoin(f), Conjunction::False());
  EXPECT_TRUE(c.Conjoin(f).HasConstantFalse());
}

}  // namespace
}  // namespace lyric
