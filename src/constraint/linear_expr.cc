#include "constraint/linear_expr.h"

#include <cassert>

namespace lyric {

LinearExpr LinearExpr::Term(Rational coeff, VarId var) {
  LinearExpr out;
  out.AddTerm(var, coeff);
  return out;
}

const Rational& LinearExpr::Coeff(VarId var) const {
  static const Rational kZero;
  auto it = terms_.find(var);
  return it == terms_.end() ? kZero : it->second;
}

void LinearExpr::AddTerm(VarId var, const Rational& coeff) {
  if (coeff.IsZero()) return;
  auto [it, inserted] = terms_.emplace(var, coeff);
  if (!inserted) {
    it->second += coeff;
    if (it->second.IsZero()) terms_.erase(it);
  }
}

LinearExpr LinearExpr::operator+(const LinearExpr& o) const {
  LinearExpr out = *this;
  out.constant_ += o.constant_;
  for (const auto& [var, coeff] : o.terms_) out.AddTerm(var, coeff);
  return out;
}

LinearExpr LinearExpr::operator-(const LinearExpr& o) const {
  return *this + (-o);
}

LinearExpr LinearExpr::operator-() const { return Scale(Rational(-1)); }

LinearExpr LinearExpr::Scale(const Rational& k) const {
  LinearExpr out;
  if (k.IsZero()) return out;
  out.constant_ = constant_ * k;
  for (const auto& [var, coeff] : terms_) {
    out.terms_.emplace(var, coeff * k);
  }
  return out;
}

int LinearExpr::Compare(const LinearExpr& o) const {
  auto it = terms_.begin();
  auto jt = o.terms_.begin();
  while (it != terms_.end() && jt != o.terms_.end()) {
    if (it->first != jt->first) return it->first < jt->first ? -1 : 1;
    int c = it->second.Compare(jt->second);
    if (c != 0) return c;
    ++it;
    ++jt;
  }
  if (it != terms_.end()) return 1;
  if (jt != o.terms_.end()) return -1;
  return constant_.Compare(o.constant_);
}

VarSet LinearExpr::FreeVars() const {
  VarSet out;
  CollectVars(&out);
  return out;
}

void LinearExpr::CollectVars(VarSet* out) const {
  for (const auto& [var, coeff] : terms_) {
    (void)coeff;
    out->insert(var);
  }
}

LinearExpr LinearExpr::Substitute(VarId var,
                                  const LinearExpr& replacement) const {
  assert(replacement.Coeff(var).IsZero() &&
         "substitution replacement mentions the substituted variable");
  auto it = terms_.find(var);
  if (it == terms_.end()) return *this;
  Rational coeff = it->second;
  LinearExpr out = *this;
  out.terms_.erase(var);
  return out + replacement.Scale(coeff);
}

LinearExpr LinearExpr::Rename(const std::map<VarId, VarId>& renaming) const {
  LinearExpr out;
  out.constant_ = constant_;
  for (const auto& [var, coeff] : terms_) {
    auto it = renaming.find(var);
    out.AddTerm(it == renaming.end() ? var : it->second, coeff);
  }
  return out;
}

Result<Rational> LinearExpr::Eval(const Assignment& assignment) const {
  Rational out = constant_;
  for (const auto& [var, coeff] : terms_) {
    auto it = assignment.find(var);
    if (it == assignment.end()) {
      return Status::InvalidArgument("unassigned variable '" +
                                     Variable::Name(var) + "' in Eval");
    }
    out += coeff * it->second;
  }
  return out;
}

std::string LinearExpr::ToString() const {
  if (terms_.empty()) return constant_.ToString();
  std::string out;
  bool first = true;
  for (const auto& [var, coeff] : terms_) {
    if (first) {
      if (coeff == Rational(1)) {
        out += Variable::Name(var);
      } else if (coeff == Rational(-1)) {
        out += "-" + Variable::Name(var);
      } else {
        out += coeff.ToString() + "*" + Variable::Name(var);
      }
      first = false;
      continue;
    }
    if (coeff.IsNegative()) {
      Rational abs = coeff.Abs();
      out += " - ";
      if (abs != Rational(1)) out += abs.ToString() + "*";
    } else {
      out += " + ";
      if (coeff != Rational(1)) out += coeff.ToString() + "*";
    }
    out += Variable::Name(var);
  }
  if (!constant_.IsZero()) {
    if (constant_.IsNegative()) {
      out += " - " + constant_.Abs().ToString();
    } else {
      out += " + " + constant_.ToString();
    }
  }
  return out;
}

}  // namespace lyric
