// Conjunctions of atomic linear constraints.
//
// A Conjunction is the engine representation of the paper's *conjunctive
// constraint* family (§3.1): a finite conjunction of linear arithmetic
// atoms. Geometrically it is a convex polyhedron possibly punctured by
// disequality hyperplanes. Restricted projection (the paper's polynomial
// quantifier-elimination steps) lives in fourier_motzkin.h; satisfiability
// and optimization live in simplex.h.

#ifndef LYRIC_CONSTRAINT_CONJUNCTION_H_
#define LYRIC_CONSTRAINT_CONJUNCTION_H_

#include <ostream>
#include <string>
#include <vector>

#include "constraint/linear_constraint.h"

namespace lyric {

/// A conjunction of atomic linear constraints.
class Conjunction {
 public:
  /// Constructs the empty conjunction (logically TRUE).
  Conjunction() = default;
  explicit Conjunction(std::vector<LinearConstraint> atoms)
      : atoms_(std::move(atoms)) {}

  /// The canonical FALSE conjunction (contains the single atom 1 <= 0).
  static Conjunction False();

  const std::vector<LinearConstraint>& atoms() const { return atoms_; }
  bool IsTrue() const { return atoms_.empty(); }
  size_t size() const { return atoms_.size(); }

  /// Appends an atom; drops it if it is a constant TRUE, and collapses the
  /// whole conjunction to False() if it is a constant FALSE.
  void Add(const LinearConstraint& atom);
  /// Conjoins all atoms of `o`.
  void AddAll(const Conjunction& o);

  /// True if some atom is the constant-false atom (syntactic check only;
  /// use Simplex for semantic infeasibility).
  bool HasConstantFalse() const;

  /// True if the conjunction contains a disequality atom.
  bool HasDisequality() const;

  /// The conjunction of the two.
  Conjunction Conjoin(const Conjunction& o) const;

  VarSet FreeVars() const;
  void CollectVars(VarSet* out) const;

  Conjunction Substitute(VarId var, const LinearExpr& replacement) const;
  Conjunction Rename(const std::map<VarId, VarId>& renaming) const;

  /// Truth under a total assignment.
  Result<bool> Eval(const Assignment& assignment) const;

  /// Sorts atoms and removes syntactic duplicates and constant-true atoms
  /// (the cheap canonical-form steps of §3.1). Collapses to False() when a
  /// constant-false atom is present.
  void SortAndDedupe();

  bool operator==(const Conjunction& o) const { return atoms_ == o.atoms_; }
  bool operator!=(const Conjunction& o) const { return !(*this == o); }
  /// Total order (assumes both sides are SortAndDedupe'd for canonical use).
  int Compare(const Conjunction& o) const;

  /// "x + y <= 3 and x >= 0"; "true" for the empty conjunction.
  std::string ToString() const;

 private:
  std::vector<LinearConstraint> atoms_;
};

inline std::ostream& operator<<(std::ostream& os, const Conjunction& c) {
  return os << c.ToString();
}

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_CONJUNCTION_H_
