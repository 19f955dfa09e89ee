// Atomic linear arithmetic constraints: expr relop 0.
//
// The paper (§3.1) defines a linear arithmetic constraint as
//   r1*x1 + ... + rm*xm  relop  r,   relop in {=, <=, <, >=, >, !=}.
// We normalize to `lhs relop 0` with relop in {=, <=, <, !=}: >= and > flip
// by negating the left-hand side. Each atom is further scaled so that the
// coefficient gcd is 1 and (for = and !=, whose two sign forms are
// equivalent) the leading coefficient is positive — making structural
// equality usable for the paper's "deletion of syntactic duplicates"
// canonical-form step.

#ifndef LYRIC_CONSTRAINT_LINEAR_CONSTRAINT_H_
#define LYRIC_CONSTRAINT_LINEAR_CONSTRAINT_H_

#include <ostream>
#include <string>
#include <vector>

#include "constraint/linear_expr.h"
#include "util/result.h"

namespace lyric {

/// Relational operator of a normalized atom (`lhs relop 0`).
enum class RelOp {
  kEq,   // lhs == 0
  kLe,   // lhs <= 0
  kLt,   // lhs <  0
  kNeq,  // lhs != 0
};

/// Three-valued truth of an atom with no free variables.
enum class Truth { kTrue, kFalse, kUnknown };

const char* RelOpToString(RelOp op);

/// A normalized atomic linear constraint.
class LinearConstraint {
 public:
  /// Builds `lhs op rhs` and normalizes. Accepts any of the six paper
  /// relops via the factory helpers below.
  LinearConstraint(LinearExpr lhs, RelOp op);

  static LinearConstraint Eq(const LinearExpr& lhs, const LinearExpr& rhs) {
    return LinearConstraint(lhs - rhs, RelOp::kEq);
  }
  static LinearConstraint Le(const LinearExpr& lhs, const LinearExpr& rhs) {
    return LinearConstraint(lhs - rhs, RelOp::kLe);
  }
  static LinearConstraint Lt(const LinearExpr& lhs, const LinearExpr& rhs) {
    return LinearConstraint(lhs - rhs, RelOp::kLt);
  }
  static LinearConstraint Ge(const LinearExpr& lhs, const LinearExpr& rhs) {
    return LinearConstraint(rhs - lhs, RelOp::kLe);
  }
  static LinearConstraint Gt(const LinearExpr& lhs, const LinearExpr& rhs) {
    return LinearConstraint(rhs - lhs, RelOp::kLt);
  }
  static LinearConstraint Neq(const LinearExpr& lhs, const LinearExpr& rhs) {
    return LinearConstraint(lhs - rhs, RelOp::kNeq);
  }

  const LinearExpr& lhs() const { return lhs_; }
  RelOp op() const { return op_; }

  bool IsStrict() const { return op_ == RelOp::kLt; }
  bool IsEquality() const { return op_ == RelOp::kEq; }
  bool IsDisequality() const { return op_ == RelOp::kNeq; }

  /// If the atom has no free variables, its truth value; kUnknown otherwise.
  Truth ConstantTruth() const;

  /// Variables occurring in the atom.
  VarSet FreeVars() const { return lhs_.FreeVars(); }
  void CollectVars(VarSet* out) const { lhs_.CollectVars(out); }

  /// Truth under a total assignment of the atom's variables.
  Result<bool> Eval(const Assignment& assignment) const;

  /// Substitutes an expression for a variable and re-normalizes.
  LinearConstraint Substitute(VarId var, const LinearExpr& replacement) const;
  /// Renames variables.
  LinearConstraint Rename(const std::map<VarId, VarId>& renaming) const;

  /// The negation, as a disjunction of atoms (negating an equality yields
  /// two strict inequalities; every other relop negates to a single atom).
  std::vector<LinearConstraint> Negate() const;

  /// The non-strict closure: < becomes <=; = and <= unchanged. Must not be
  /// called on a disequality (asserts).
  LinearConstraint Closure() const;

  bool operator==(const LinearConstraint& o) const {
    return op_ == o.op_ && lhs_ == o.lhs_;
  }
  bool operator!=(const LinearConstraint& o) const { return !(*this == o); }

  /// Total order for canonical sorting.
  int Compare(const LinearConstraint& o) const;
  bool operator<(const LinearConstraint& o) const { return Compare(o) < 0; }

  /// Renders e.g. "2*x + 3*y <= 5" (constant moved to the right).
  std::string ToString() const;

 private:
  void Normalize();

  LinearExpr lhs_;
  RelOp op_;
};

inline std::ostream& operator<<(std::ostream& os, const LinearConstraint& c) {
  return os << c.ToString();
}

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_LINEAR_CONSTRAINT_H_
