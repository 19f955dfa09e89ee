// Exact-rational linear programming over conjunctions.
//
// This is the workhorse behind four language features of LyriC:
//   * the WHERE-clause satisfiability predicate (§4.2),
//   * the entailment predicate |= (via refutation),
//   * MAX/MIN ... SUBJECT TO and MAX_POINT/MIN_POINT (§4.2),
//   * projection of a conjunction onto <= 1 variable (the "all but one
//     free variables eliminated" restricted quantifier elimination of
//     §3.1, computed as an LP interval rather than iterated
//     Fourier-Motzkin).
//
// Implementation: one bounded-variable simplex (Dutertre & de Moura, "A
// Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006) with Bland's rule
// on a dense tableau of exact rationals. Variables are unbounded columns;
// each atom bounds its row's slack variable (or its variable, when it has
// one). Strict inequalities are exact via δ-rationals (x < b is
// x <= b - δ for an infinitesimal δ > 0); optimization runs the primal
// bounded simplex from the feasible basis, and the optimum's δ-part says
// whether an open set attains its supremum, so Maximize is one LP unless
// disequalities are present. Disequalities use the convexity argument (a
// polyhedron is inside a finite union of hyperplanes iff it is inside one
// of them).

#ifndef LYRIC_CONSTRAINT_SIMPLEX_H_
#define LYRIC_CONSTRAINT_SIMPLEX_H_

#include <optional>
#include <string_view>

#include "constraint/conjunction.h"

namespace lyric {

/// Outcome class of an optimization call.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

const char* LpStatusToString(LpStatus status);
/// Inverse of LpStatusToString; nullopt for an unknown string.
std::optional<LpStatus> LpStatusFromString(std::string_view s);

/// Result of Maximize/Minimize.
struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  /// Optimal value (supremum/infimum over the closure) when kOptimal.
  Rational value;
  /// True when the optimum is attained by a point of the (possibly open)
  /// feasible set itself; false when strict atoms or disequalities make it
  /// a supremum only.
  bool attained = false;
  /// A maximizing/minimizing point of the closure when kOptimal; when
  /// `attained`, the point satisfies the original conjunction.
  Assignment point;
};

/// Exact LP interface over conjunctions of linear atoms.
class Simplex {
 public:
  /// Satisfiability of a conjunction over the reals. Handles =, <=, <, !=.
  static Result<bool> IsSatisfiable(const Conjunction& c);

  /// A witness point when satisfiable; nullopt when unsatisfiable.
  static Result<std::optional<Assignment>> FindPoint(const Conjunction& c);

  /// Maximizes `objective` subject to `c` (over the closure of the solution
  /// set; see LpSolution::attained).
  static Result<LpSolution> Maximize(const LinearExpr& objective,
                                     const Conjunction& c);
  /// Minimizes `objective` subject to `c`.
  static Result<LpSolution> Minimize(const LinearExpr& objective,
                                     const Conjunction& c);

  /// True iff every point of `c` satisfies `expr = 0` (used for the
  /// disequality convexity test and for entailment of equalities).
  static Result<bool> EntailsZero(const Conjunction& c,
                                  const LinearExpr& expr);
};

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_SIMPLEX_H_
