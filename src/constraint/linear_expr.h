// Sparse linear expressions over exact rationals:
//   c0 + c1*x1 + ... + cm*xm.

#ifndef LYRIC_CONSTRAINT_LINEAR_EXPR_H_
#define LYRIC_CONSTRAINT_LINEAR_EXPR_H_

#include <map>
#include <ostream>
#include <string>

#include "arith/rational.h"
#include "constraint/variable.h"
#include "util/result.h"

namespace lyric {

/// An assignment of rational values to variables.
using Assignment = std::map<VarId, Rational>;

/// A linear expression: constant + sum of coefficient*variable terms.
/// Zero-coefficient terms are never stored, so structural equality is
/// semantic equality.
class LinearExpr {
 public:
  /// Constructs the zero expression.
  LinearExpr() = default;
  /// Constructs a constant expression.
  explicit LinearExpr(Rational constant) : constant_(std::move(constant)) {}

  /// Returns the expression consisting of the single term `coeff * var`.
  static LinearExpr Term(Rational coeff, VarId var);
  /// Returns the expression `1 * var`.
  static LinearExpr Var(VarId var) { return Term(Rational(1), var); }
  /// Returns the constant expression `c`.
  static LinearExpr Constant(Rational c) { return LinearExpr(std::move(c)); }

  const Rational& constant() const { return constant_; }
  /// Coefficient of `var` (zero if absent).
  const Rational& Coeff(VarId var) const;
  /// The terms, keyed by variable id in increasing order.
  const std::map<VarId, Rational>& terms() const { return terms_; }

  bool IsConstant() const { return terms_.empty(); }

  /// Adds `coeff * var` to this expression.
  void AddTerm(VarId var, const Rational& coeff);
  /// Adds a constant.
  void AddConstant(const Rational& c) { constant_ += c; }

  LinearExpr operator+(const LinearExpr& o) const;
  LinearExpr operator-(const LinearExpr& o) const;
  LinearExpr operator-() const;
  /// Multiplies every coefficient and the constant by `k`.
  LinearExpr Scale(const Rational& k) const;

  bool operator==(const LinearExpr& o) const {
    return constant_ == o.constant_ && terms_ == o.terms_;
  }
  bool operator!=(const LinearExpr& o) const { return !(*this == o); }

  /// Total order for canonical sorting (lexicographic on terms then
  /// constant).
  int Compare(const LinearExpr& o) const;

  /// Variables with non-zero coefficient.
  VarSet FreeVars() const;
  /// Adds this expression's variables into `out`.
  void CollectVars(VarSet* out) const;

  /// Substitutes `replacement` for `var` (replacement may mention any
  /// variables, including `var` itself is not allowed — asserts).
  LinearExpr Substitute(VarId var, const LinearExpr& replacement) const;

  /// Renames variables according to `renaming` (ids absent from the map are
  /// kept). The renaming must be injective on this expression's variables;
  /// collisions merge coefficients, which is what joint renaming wants.
  LinearExpr Rename(const std::map<VarId, VarId>& renaming) const;

  /// Evaluates under `assignment`; every free variable must be assigned.
  Result<Rational> Eval(const Assignment& assignment) const;

  /// Renders e.g. "2*x + 3*y - 5". The zero expression renders as "0".
  std::string ToString() const;

 private:
  Rational constant_;
  std::map<VarId, Rational> terms_;
};

inline std::ostream& operator<<(std::ostream& os, const LinearExpr& e) {
  return os << e.ToString();
}

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_LINEAR_EXPR_H_
