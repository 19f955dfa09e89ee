#include "constraint/linear_constraint.h"

#include <cassert>

namespace lyric {

const char* RelOpToString(RelOp op) {
  switch (op) {
    case RelOp::kEq:
      return "=";
    case RelOp::kLe:
      return "<=";
    case RelOp::kLt:
      return "<";
    case RelOp::kNeq:
      return "!=";
  }
  return "?";
}

LinearConstraint::LinearConstraint(LinearExpr lhs, RelOp op)
    : lhs_(std::move(lhs)), op_(op) {
  Normalize();
}

void LinearConstraint::Normalize() {
  if (lhs_.terms().empty()) return;
  // Scale so the gcd of numerators over the lcm of denominators is 1:
  // divide by |first coefficient|, then clear denominators, then divide by
  // the integer gcd. Simpler equivalent: multiply by the lcm of all
  // denominators and divide by the gcd of all numerators.
  BigInt den_lcm(1);
  for (const auto& [var, coeff] : lhs_.terms()) {
    (void)var;
    BigInt g = BigInt::Gcd(den_lcm, coeff.den());
    den_lcm = den_lcm / g * coeff.den();
  }
  {
    BigInt g = BigInt::Gcd(den_lcm, lhs_.constant().den());
    den_lcm = den_lcm / g * lhs_.constant().den();
  }
  lhs_ = lhs_.Scale(Rational(den_lcm, BigInt(1)));
  BigInt num_gcd(0);
  for (const auto& [var, coeff] : lhs_.terms()) {
    (void)var;
    num_gcd = BigInt::Gcd(num_gcd, coeff.num());
  }
  // Note: the constant is deliberately excluded from the gcd so that e.g.
  // 2x <= 1 stays distinct from x <= 1/2 only in scaling; including it
  // would also be fine. We include it when it keeps integrality:
  if (!lhs_.constant().IsZero()) {
    num_gcd = BigInt::Gcd(num_gcd, lhs_.constant().num());
  }
  if (num_gcd > BigInt(1)) {
    lhs_ = lhs_.Scale(Rational(BigInt(1), num_gcd));
  }
  // For = and !=, both sign forms are equivalent; fix the sign of the
  // leading (lowest-id) coefficient to positive.
  if (op_ == RelOp::kEq || op_ == RelOp::kNeq) {
    if (!lhs_.terms().empty() && lhs_.terms().begin()->second.IsNegative()) {
      lhs_ = -lhs_;
    }
  }
}

Truth LinearConstraint::ConstantTruth() const {
  if (!lhs_.IsConstant()) return Truth::kUnknown;
  int sign = lhs_.constant().Sign();
  bool holds = false;
  switch (op_) {
    case RelOp::kEq:
      holds = sign == 0;
      break;
    case RelOp::kLe:
      holds = sign <= 0;
      break;
    case RelOp::kLt:
      holds = sign < 0;
      break;
    case RelOp::kNeq:
      holds = sign != 0;
      break;
  }
  return holds ? Truth::kTrue : Truth::kFalse;
}

Result<bool> LinearConstraint::Eval(const Assignment& assignment) const {
  LYRIC_ASSIGN_OR_RETURN(Rational v, lhs_.Eval(assignment));
  switch (op_) {
    case RelOp::kEq:
      return v.IsZero();
    case RelOp::kLe:
      return v.Sign() <= 0;
    case RelOp::kLt:
      return v.Sign() < 0;
    case RelOp::kNeq:
      return !v.IsZero();
  }
  return Status::Internal("bad relop");
}

LinearConstraint LinearConstraint::Substitute(
    VarId var, const LinearExpr& replacement) const {
  return LinearConstraint(lhs_.Substitute(var, replacement), op_);
}

LinearConstraint LinearConstraint::Rename(
    const std::map<VarId, VarId>& renaming) const {
  return LinearConstraint(lhs_.Rename(renaming), op_);
}

std::vector<LinearConstraint> LinearConstraint::Negate() const {
  switch (op_) {
    case RelOp::kEq:
      // not(e = 0)  ==  e < 0  or  -e < 0.
      return {LinearConstraint(lhs_, RelOp::kLt),
              LinearConstraint(-lhs_, RelOp::kLt)};
    case RelOp::kLe:
      // not(e <= 0)  ==  -e < 0.
      return {LinearConstraint(-lhs_, RelOp::kLt)};
    case RelOp::kLt:
      // not(e < 0)  ==  -e <= 0.
      return {LinearConstraint(-lhs_, RelOp::kLe)};
    case RelOp::kNeq:
      return {LinearConstraint(lhs_, RelOp::kEq)};
  }
  return {};
}

LinearConstraint LinearConstraint::Closure() const {
  assert(op_ != RelOp::kNeq && "closure of a disequality");
  if (op_ == RelOp::kLt) return LinearConstraint(lhs_, RelOp::kLe);
  return *this;
}

int LinearConstraint::Compare(const LinearConstraint& o) const {
  if (op_ != o.op_) {
    return static_cast<int>(op_) < static_cast<int>(o.op_) ? -1 : 1;
  }
  return lhs_.Compare(o.lhs_);
}

std::string LinearConstraint::ToString() const {
  // Move the constant to the right-hand side for readability.
  LinearExpr vars_only = lhs_;
  Rational c = lhs_.constant();
  vars_only.AddConstant(-c);
  return vars_only.ToString() + " " + RelOpToString(op_) + " " +
         (-c).ToString();
}

}  // namespace lyric
