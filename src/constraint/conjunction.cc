#include "constraint/conjunction.h"

#include <algorithm>

namespace lyric {

Conjunction Conjunction::False() {
  Conjunction out;
  // 1 <= 0.
  out.atoms_.push_back(
      LinearConstraint(LinearExpr::Constant(Rational(1)), RelOp::kLe));
  return out;
}

void Conjunction::Add(const LinearConstraint& atom) {
  switch (atom.ConstantTruth()) {
    case Truth::kTrue:
      return;
    case Truth::kFalse:
      *this = False();
      return;
    case Truth::kUnknown:
      break;
  }
  if (HasConstantFalse()) return;  // Already FALSE; stay collapsed.
  atoms_.push_back(atom);
}

void Conjunction::AddAll(const Conjunction& o) {
  for (const LinearConstraint& atom : o.atoms_) Add(atom);
}

bool Conjunction::HasConstantFalse() const {
  for (const LinearConstraint& atom : atoms_) {
    if (atom.ConstantTruth() == Truth::kFalse) return true;
  }
  return false;
}

bool Conjunction::HasDisequality() const {
  for (const LinearConstraint& atom : atoms_) {
    if (atom.IsDisequality()) return true;
  }
  return false;
}

Conjunction Conjunction::Conjoin(const Conjunction& o) const {
  Conjunction out = *this;
  out.AddAll(o);
  return out;
}

VarSet Conjunction::FreeVars() const {
  VarSet out;
  CollectVars(&out);
  return out;
}

void Conjunction::CollectVars(VarSet* out) const {
  for (const LinearConstraint& atom : atoms_) atom.CollectVars(out);
}

Conjunction Conjunction::Substitute(VarId var,
                                    const LinearExpr& replacement) const {
  Conjunction out;
  for (const LinearConstraint& atom : atoms_) {
    out.Add(atom.Substitute(var, replacement));
  }
  return out;
}

Conjunction Conjunction::Rename(const std::map<VarId, VarId>& renaming) const {
  Conjunction out;
  for (const LinearConstraint& atom : atoms_) {
    out.Add(atom.Rename(renaming));
  }
  return out;
}

Result<bool> Conjunction::Eval(const Assignment& assignment) const {
  for (const LinearConstraint& atom : atoms_) {
    LYRIC_ASSIGN_OR_RETURN(bool holds, atom.Eval(assignment));
    if (!holds) return false;
  }
  return true;
}

void Conjunction::SortAndDedupe() {
  if (HasConstantFalse()) {
    *this = False();
    return;
  }
  std::sort(atoms_.begin(), atoms_.end());
  atoms_.erase(std::unique(atoms_.begin(), atoms_.end()), atoms_.end());
}

int Conjunction::Compare(const Conjunction& o) const {
  size_t n = std::min(atoms_.size(), o.atoms_.size());
  for (size_t i = 0; i < n; ++i) {
    int c = atoms_[i].Compare(o.atoms_[i]);
    if (c != 0) return c;
  }
  if (atoms_.size() != o.atoms_.size()) {
    return atoms_.size() < o.atoms_.size() ? -1 : 1;
  }
  return 0;
}

std::string Conjunction::ToString() const {
  if (atoms_.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += " and ";
    out += atoms_[i].ToString();
  }
  return out;
}

}  // namespace lyric
