// Differential test of the simplex against Fourier-Motzkin elimination,
// which shares no code with it. Seeded random conjunctions over <= 4
// variables and <= 8 atoms (=, <=, <, !=) cover infeasible, unbounded,
// degenerate and duplicate-row systems and near-INT64 coefficients:
//   * the satisfiability verdict must match FM's projection onto no
//     variables (disequalities by the convexity argument);
//   * Maximize/Minimize must match the projection of a fresh t = objective
//     onto t, value and `attained` flag alike;
//   * every FindPoint point and every attained optimum must satisfy the
//     conjunction under Conjunction::Eval.

#include <cstdint>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "constraint/fourier_motzkin.h"
#include "constraint/simplex.h"

namespace lyric {
namespace {

// The value of a kernel call that must succeed (a failure is reported and
// yields a default value, which the caller's checks then flag).
template <typename T>
T Ok(Result<T> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? std::move(*r) : T{};
}

// One random problem: a conjunction and an objective over its variables.
struct Problem {
  Conjunction c;
  LinearExpr objective;
};

Problem RandomProblem(std::mt19937_64& rng) {
  static const VarId kVars[4] = {
      Variable::Intern("sd_a"), Variable::Intern("sd_b"),
      Variable::Intern("sd_c"), Variable::Intern("sd_d")};
  auto pick = [&](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  auto coeff = [&]() {
    if (pick(40) == 0) {
      // Near-INT64 magnitudes: the tableau must stay exact.
      int64_t big = std::numeric_limits<int64_t>::max() - pick(3);
      return Rational(pick(2) == 0 ? big : -big);
    }
    int64_t v = pick(7) - 3;
    return Rational(v == 0 ? 1 : v);
  };
  size_t num_vars = 1 + pick(4);
  // Constants are often 0 so that many atoms meet in one vertex
  // (degenerate pivots).
  auto constant = [&]() {
    return pick(3) == 0 ? Rational() : Rational(pick(13) - 6);
  };
  Problem p;
  size_t num_atoms = pick(9);
  std::vector<LinearConstraint> atoms;
  for (size_t i = 0; i < num_atoms; ++i) {
    if (!atoms.empty() && pick(6) == 0) {
      // A duplicate row: the same atom again, or the same terms bounded
      // from the other side.
      const LinearConstraint& prev = atoms[pick(atoms.size())];
      atoms.push_back(pick(2) == 0
                          ? prev
                          : LinearConstraint(
                                -prev.lhs() + LinearExpr::Constant(constant()),
                                RelOp::kLe));
      continue;
    }
    LinearExpr lhs = LinearExpr::Constant(constant());
    for (size_t v = 0; v < num_vars; ++v) {
      if (v == 0 || pick(2) == 0) lhs.AddTerm(kVars[pick(num_vars)], coeff());
    }
    int64_t r = pick(20);
    RelOp op = r < 3 ? RelOp::kEq
                     : r < 11 ? RelOp::kLe
                              : r < 17 ? RelOp::kLt : RelOp::kNeq;
    atoms.push_back(LinearConstraint(lhs, op));
  }
  for (const LinearConstraint& a : atoms) p.c.Add(a);
  p.objective = LinearExpr::Constant(constant());
  for (size_t v = 0; v < num_vars; ++v) {
    if (pick(3) != 0) p.objective.AddTerm(kVars[v], coeff());
  }
  return p;
}

// The atoms of `c` other than disequalities.
Conjunction WithoutDisequalities(const Conjunction& c) {
  Conjunction out;
  for (const LinearConstraint& a : c.atoms()) {
    if (!a.IsDisequality()) out.Add(a);
  }
  return out;
}

// The set of values of an expression over a disequality-free conjunction,
// computed by Fourier-Motzkin: an interval with possibly open or infinite
// ends, or empty.
struct Interval {
  bool empty = false;
  std::optional<Rational> lo, hi;  // nullopt: unbounded on that side.
  bool lo_closed = true, hi_closed = true;
};

Interval FmRange(const Conjunction& c, const LinearExpr& expr) {
  static const VarId t = Variable::Intern("sd_t");
  Conjunction with_t = c;
  with_t.Add(LinearConstraint(LinearExpr::Var(t) - expr, RelOp::kEq));
  Conjunction proj = Ok(FourierMotzkin::ProjectOnto(with_t, VarSet{t}));
  Interval out;
  if (proj.HasConstantFalse()) {
    out.empty = true;
    return out;
  }
  auto lower = [&](const Rational& b, bool closed) {
    if (!out.lo || b > *out.lo || (b == *out.lo && !closed)) {
      out.lo = b;
      out.lo_closed = closed;
    }
  };
  auto upper = [&](const Rational& b, bool closed) {
    if (!out.hi || b < *out.hi || (b == *out.hi && !closed)) {
      out.hi = b;
      out.hi_closed = closed;
    }
  };
  for (const LinearConstraint& atom : proj.atoms()) {
    // a*t + k op 0.
    Rational a = atom.lhs().Coeff(t);
    EXPECT_FALSE(a.IsZero()) << atom;
    EXPECT_EQ(atom.lhs().terms().size(), 1u) << atom;
    Rational b = -atom.lhs().constant() / a;
    bool closed = atom.op() != RelOp::kLt;
    if (atom.op() == RelOp::kEq || a.Sign() > 0) upper(b, closed);
    if (atom.op() == RelOp::kEq || a.Sign() < 0) lower(b, closed);
  }
  if (out.lo && out.hi &&
      (*out.lo > *out.hi ||
       (*out.lo == *out.hi && !(out.lo_closed && out.hi_closed)))) {
    out.empty = true;
  }
  return out;
}

// Checks Maximize (or Minimize) of `p.objective` over `c` against the
// range FM computes over the disequality-free part (the closures agree
// whenever `c` is satisfiable).
void CheckOptimum(const Problem& p, const Conjunction& c, bool sat,
                  const Interval& range, bool maximize) {
  LpSolution sol = Ok(maximize ? Simplex::Maximize(p.objective, c)
                                : Simplex::Minimize(p.objective, c));
  if (!sat) {
    EXPECT_EQ(sol.status, LpStatus::kInfeasible);
    return;
  }
  const std::optional<Rational>& end = maximize ? range.hi : range.lo;
  if (!end) {
    EXPECT_EQ(sol.status, LpStatus::kUnbounded);
    return;
  }
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.value, *end);
  EXPECT_EQ(Ok(p.objective.Eval(sol.point)), sol.value);
  if (sol.attained) {
    EXPECT_TRUE(Ok(c.Eval(sol.point)));
  }
  if (!c.HasDisequality()) {
    EXPECT_EQ(sol.attained, maximize ? range.hi_closed : range.lo_closed);
  }
}

void CheckProblem(const Problem& p) {
  SCOPED_TRACE("c = " + p.c.ToString() +
               "; objective = " + p.objective.ToString());
  Conjunction base = WithoutDisequalities(p.c);
  bool base_sat =
      !Ok(FourierMotzkin::ProjectOnto(base, VarSet{})).HasConstantFalse();
  EXPECT_EQ(Ok(Simplex::IsSatisfiable(base)), base_sat);
  // With the disequalities: unsatisfiable iff the base is, or some
  // disequality's expression is the constant 0 over the base.
  bool sat = base_sat;
  for (const LinearConstraint& a : p.c.atoms()) {
    if (!a.IsDisequality() || !sat) continue;
    Interval r = FmRange(base, a.lhs());
    if (r.lo && r.hi && r.lo->IsZero() && r.hi->IsZero()) sat = false;
  }
  EXPECT_EQ(Ok(Simplex::IsSatisfiable(p.c)), sat);
  std::optional<Assignment> point = Ok(Simplex::FindPoint(p.c));
  EXPECT_EQ(point.has_value(), sat);
  if (point) {
    EXPECT_TRUE(Ok(p.c.Eval(*point)));
  }

  Interval range = FmRange(base, p.objective);
  EXPECT_EQ(range.empty, !base_sat);
  for (bool maximize : {true, false}) {
    CheckOptimum(p, base, base_sat, range, maximize);
    CheckOptimum(p, p.c, sat, range, maximize);
  }
  bool constant = base_sat && range.lo && range.hi && *range.lo == *range.hi;
  EXPECT_EQ(Ok(Simplex::EntailsZero(p.c, p.objective)),
            !sat || (constant && range.lo->IsZero()));
}

class SimplexDiff : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDiff, AgreesWithFourierMotzkin) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    CheckProblem(RandomProblem(rng));
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexDiff, ::testing::Range(1, 9));

}  // namespace
}  // namespace lyric
