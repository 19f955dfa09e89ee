// Disjunctive constraints: disjunctions of conjunctions (DNF).
//
// This is the engine form of the paper's *disjunctive* family (§3.1):
// closed under disjunction, conjunction (by distribution), negation of a
// conjunctive constraint, and restricted projection. The canonical-form
// simplifications the paper prescribes — deletion of inconsistent
// disjuncts and deletion of syntactic duplicates, explicitly NOT the
// co-NP-complete redundant-disjunct detection — live in canonical.h.

#ifndef LYRIC_CONSTRAINT_DNF_H_
#define LYRIC_CONSTRAINT_DNF_H_

#include <optional>
#include <ostream>

#include "constraint/conjunction.h"

namespace lyric {

/// A disjunction of conjunctions of linear atoms. The empty disjunction is
/// FALSE; the single empty conjunction is TRUE.
class Dnf {
 public:
  /// Constructs FALSE.
  Dnf() = default;
  /// Wraps a single conjunct.
  explicit Dnf(Conjunction c) { AddDisjunct(std::move(c)); }
  explicit Dnf(std::vector<Conjunction> disjuncts);

  static Dnf True() { return Dnf(Conjunction()); }
  static Dnf False() { return Dnf(); }

  const std::vector<Conjunction>& disjuncts() const { return disjuncts_; }
  bool IsFalse() const { return disjuncts_.empty(); }
  /// True iff some disjunct is the trivial TRUE conjunction (syntactic).
  bool IsTrue() const;
  size_t size() const { return disjuncts_.size(); }

  /// Appends a disjunct, dropping it if syntactically FALSE.
  void AddDisjunct(Conjunction c);

  /// Logical OR (concatenation of disjunct lists).
  Dnf Or(const Dnf& o) const;
  /// Logical AND by distribution: |this| * |o| candidate disjuncts.
  Dnf And(const Dnf& o) const;
  /// Negation of a single conjunction, as a DNF (one disjunct per atom,
  /// two for each equality atom).
  static Dnf NegateConjunction(const Conjunction& c);
  /// Full negation via De Morgan + distribution (exponential; intended for
  /// small formulas and tests — entailment uses refutation instead).
  Dnf Negate() const;

  /// Rewrites every disequality t != 0 as (t < 0) or (t > 0); the result
  /// has no kNeq atoms and is projection-safe.
  Dnf SplitDisequalities() const;

  /// Eliminates one variable in every disjunct (restricted projection).
  Result<Dnf> EliminateVariable(VarId var) const;
  /// Projects every disjunct onto at most one variable (LP intervals).
  Result<Dnf> ProjectOntoAtMostOne(std::optional<VarId> keep) const;
  /// Projects onto an arbitrary variable set (exponential worst case).
  Result<Dnf> ProjectOnto(const VarSet& keep) const;

  VarSet FreeVars() const;
  Dnf Substitute(VarId var, const LinearExpr& replacement) const;
  Dnf Rename(const std::map<VarId, VarId>& renaming) const;

  /// Semantic satisfiability (per-disjunct simplex).
  Result<bool> Satisfiable() const;
  /// A witness point of some satisfiable disjunct.
  Result<std::optional<Assignment>> FindPoint() const;
  /// Truth under a total assignment.
  Result<bool> Eval(const Assignment& assignment) const;

  bool operator==(const Dnf& o) const { return disjuncts_ == o.disjuncts_; }
  bool operator!=(const Dnf& o) const { return !(*this == o); }
  /// Total order on canonicalized DNFs.
  int Compare(const Dnf& o) const;

  /// "(...) or (...)"; "false" for the empty DNF.
  std::string ToString() const;

 private:
  std::vector<Conjunction> disjuncts_;
};

inline std::ostream& operator<<(std::ostream& os, const Dnf& d) {
  return os << d.ToString();
}

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_DNF_H_
