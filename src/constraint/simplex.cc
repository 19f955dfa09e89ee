#include "constraint/simplex.h"

#include <algorithm>
#include <optional>

#include "constraint/solver_cache.h"
#include "exec/governor.h"
#include "obs/metrics.h"

namespace lyric {

const char* LpStatusToString(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
  }
  return "?";
}

std::optional<LpStatus> LpStatusFromString(std::string_view s) {
  if (s == "optimal") return LpStatus::kOptimal;
  if (s == "infeasible") return LpStatus::kInfeasible;
  if (s == "unbounded") return LpStatus::kUnbounded;
  return std::nullopt;
}

namespace {

// A δ-rational c + k·δ, where δ is a positive infinitesimal: the strict
// bound x < b is the non-strict bound x <= b - δ, so strict and non-strict
// atoms are decided by one simplex. Ordered lexicographically.
struct DeltaRational {
  Rational c;
  Rational k;

  DeltaRational operator+(const DeltaRational& o) const {
    return {c + o.c, k + o.k};
  }
  DeltaRational operator-(const DeltaRational& o) const {
    return {c - o.c, k - o.k};
  }
  DeltaRational operator*(const Rational& r) const { return {c * r, k * r}; }
  int Compare(const DeltaRational& o) const {
    int cmp = c.Compare(o.c);
    return cmp != 0 ? cmp : k.Compare(o.k);
  }
  bool operator<(const DeltaRational& o) const { return Compare(o) < 0; }
  bool operator>(const DeltaRational& o) const { return Compare(o) > 0; }
};

using Bound = std::optional<DeltaRational>;

constexpr size_t kNone = static_cast<size_t>(-1);

obs::Histogram& SolveHistogram() {
  static obs::Histogram& hist =
      obs::Registry::Global().GetHistogram("simplex.solve");
  return hist;
}

// The bounded-variable simplex of Dutertre & de Moura, "A Fast
// Linear-Arithmetic Solver for DPLL(T)" (CAV 2006), on a dense tableau of
// exact rationals. The conjunction's variables are columns, unbounded and
// never split. Each distinct multi-variable atom row gets one slack
// variable, bounded by every atom on that row; a one-variable atom bounds
// its variable directly. Each objective gets an unbounded slack row. A row
// keeps its basic variable as a combination of the non-basic ones.
//
// One tableau is one LP: Check() finds a point of the atoms (disequalities
// aside), and Optimize() runs the primal bounded simplex from that
// feasible basis, over the δ-rational atoms or, after Close() drops δ,
// over their closure. Both pick variables by Bland's rule (smallest index
// first), so neither cycles.
class Tableau {
 public:
  // Builds the tableau of the =, <= and < atoms of `c`; `objectives` get
  // one row each, addressed by their position.
  Tableau(const Conjunction& c, const std::vector<LinearExpr>& objectives)
      : timer_(SolveHistogram()) {
    LYRIC_OBS_COUNT("simplex.lp_solves");
    VarSet var_set = c.FreeVars();
    for (const LinearExpr& obj : objectives) obj.CollectVars(&var_set);
    vars_.assign(var_set.begin(), var_set.end());
    lower_.resize(vars_.size());
    upper_.resize(vars_.size());
    std::vector<LinearExpr> row_exprs;
    for (const LinearConstraint& atom : c.atoms()) {
      if (atom.IsDisequality()) continue;
      const LinearExpr& lhs = atom.lhs();
      if (lhs.IsConstant()) {
        if (atom.ConstantTruth() == Truth::kFalse) infeasible_ = true;
        continue;
      }
      // The atom is `scale * var op rhs` for a column or slack `var`.
      size_t var;
      Rational scale;
      if (lhs.terms().size() == 1) {
        var = Column(lhs.terms().begin()->first);
        scale = lhs.terms().begin()->second;
      } else {
        // Rows are keyed by their terms with a positive leading
        // coefficient, so `t <= b` and `t >= a` bound one slack.
        scale = Rational(lhs.terms().begin()->second.Sign());
        LinearExpr key = lhs.Scale(scale);
        key.AddConstant(-key.constant());
        size_t row = std::find(row_exprs.begin(), row_exprs.end(), key) -
                     row_exprs.begin();
        if (row == row_exprs.size()) AddRow(&row_exprs, std::move(key));
        var = vars_.size() + row;
      }
      DeltaRational b{-lhs.constant() / scale, Rational()};
      bool is_upper = scale.Sign() > 0;
      bool is_eq = atom.op() == RelOp::kEq;
      if (atom.op() == RelOp::kLt) b.k = Rational(is_upper ? -1 : 1);
      if (is_eq || is_upper) Tighten(&upper_[var], b, true);
      if (is_eq || !is_upper) Tighten(&lower_[var], b, false);
    }
    for (const LinearExpr& obj : objectives) {
      objective_vars_.push_back(vars_.size() + row_exprs.size());
      objective_constants_.push_back(obj.constant());
      LinearExpr terms = obj;
      terms.AddConstant(-terms.constant());
      AddRow(&row_exprs, std::move(terms));
    }
    size_t num_vars = vars_.size() + row_exprs.size();
    // The tableau is the dominant transient allocation; charge it against
    // the governor's memory budget.
    exec::AccountKernelMemory(row_exprs.size() * num_vars * sizeof(Rational),
                              "simplex.tableau");
    row_of_.assign(num_vars, kNone);
    value_.resize(num_vars);
    for (size_t v = 0; v < num_vars; ++v) {
      if (lower_[v] && upper_[v] && *lower_[v] > *upper_[v]) {
        infeasible_ = true;
      }
    }
    // Non-basic columns start at the point of their bounds nearest 0; each
    // slack starts basic, at the value of its row.
    for (size_t j = 0; j < vars_.size(); ++j) {
      if (lower_[j] && *lower_[j] > value_[j]) value_[j] = *lower_[j];
      if (upper_[j] && *upper_[j] < value_[j]) value_[j] = *upper_[j];
    }
    rows_.assign(row_exprs.size(), std::vector<Rational>(num_vars));
    for (size_t r = 0; r < row_exprs.size(); ++r) {
      size_t slack = vars_.size() + r;
      basic_.push_back(slack);
      row_of_[slack] = r;
      for (const auto& [v, coeff] : row_exprs[r].terms()) {
        size_t j = Column(v);
        rows_[r][j] = coeff;
        value_[slack] = value_[slack] + value_[j] * coeff;
      }
    }
  }

  // Decides whether the atoms have a common point (δ-rationals make the
  // strict ones exact): repairs the smallest basic variable outside its
  // bounds until none is. False when infeasible or when the governor trips.
  bool Check() {
    if (infeasible_) {
      LYRIC_OBS_COUNT("simplex.lp_infeasible");
      return false;
    }
    for (size_t iteration = 0;; ++iteration) {
      if (Interrupted(iteration)) return false;
      size_t row = kNone;
      for (size_t r = 0; r < rows_.size(); ++r) {
        size_t b = basic_[r];
        if ((row == kNone || b < basic_[row]) &&
            ((lower_[b] && value_[b] < *lower_[b]) ||
             (upper_[b] && value_[b] > *upper_[b]))) {
          row = r;
        }
      }
      if (row == kNone) return true;
      size_t b = basic_[row];
      bool raise = lower_[b] && value_[b] < *lower_[b];
      size_t enter = Entering(row, raise);
      if (enter == kNone) {
        LYRIC_OBS_COUNT("simplex.lp_infeasible");
        return false;
      }
      PivotAndUpdate(row, enter, raise ? *lower_[b] : *upper_[b]);
    }
  }

  // Replaces every bound and value by its real part: the tableau then
  // describes the closure of the atoms, and a Check()ed point stays
  // feasible (lexicographic order implies order of the real parts).
  void Close() {
    for (size_t v = 0; v < value_.size(); ++v) {
      value_[v].k = Rational();
      if (lower_[v]) lower_[v]->k = Rational();
      if (upper_[v]) upper_[v]->k = Rational();
    }
  }

  // Maximizes (or minimizes) objective `i` from the current feasible
  // point, lexicographically on δ-rationals unless Close() dropped δ.
  // kUnbounded leaves the tableau at a feasible point where the objective
  // is >= 1 (<= -1 when minimizing); a governor trip returns kInfeasible.
  LpStatus Optimize(size_t i, bool maximize) {
    size_t row = row_of_[objective_vars_[i]];
    for (size_t iteration = 0;; ++iteration) {
      if (Interrupted(iteration)) return LpStatus::kInfeasible;
      size_t enter = Entering(row, maximize);
      if (enter == kNone) return LpStatus::kOptimal;
      bool up = (rows_[row][enter].Sign() > 0) == maximize;
      // Ratio test: the largest step of the entering variable that keeps
      // every bound, ties to the smallest variable.
      Bound step;
      size_t leave = kNone;
      auto limit = [&](size_t var, const DeltaRational& room) {
        int cmp = step ? room.Compare(*step) : -1;
        if (cmp < 0 || (cmp == 0 && var < leave)) {
          step = room;
          leave = var;
        }
      };
      if (up && upper_[enter]) limit(enter, *upper_[enter] - value_[enter]);
      if (!up && lower_[enter]) limit(enter, value_[enter] - *lower_[enter]);
      for (size_t r = 0; r < rows_.size(); ++r) {
        const Rational& a = rows_[r][enter];
        if (a.IsZero()) continue;
        size_t b = basic_[r];
        Rational per_unit = a.Abs().Inverse();
        if ((a.Sign() > 0) == up) {
          if (upper_[b]) limit(b, (*upper_[b] - value_[b]) * per_unit);
        } else if (lower_[b]) {
          limit(b, (value_[b] - *lower_[b]) * per_unit);
        }
      }
      if (!step) {
        // Walk far enough along the ray that the objective clears 0.
        LYRIC_OBS_COUNT("simplex.lp_unbounded");
        Rational far =
            (Value(i).Abs() + Rational(1)) / rows_[row][enter].Abs();
        Update(enter, value_[enter] + DeltaRational{up ? far : -far, {}});
        return LpStatus::kUnbounded;
      }
      if (leave == enter) {
        // The entering variable meets its own bound: no basis change.
        Update(enter, up ? value_[enter] + *step : value_[enter] - *step);
      } else {
        bool rises = (rows_[row_of_[leave]][enter].Sign() > 0) == up;
        PivotAndUpdate(row_of_[leave], enter,
                       rises ? *upper_[leave] : *lower_[leave]);
      }
    }
  }

  // The current value of objective `i`, constant included, and whether
  // it carries no δ-part. At a δ-rational optimum the δ-part is zero iff
  // a point satisfying the strict atoms strictly reaches the supremum.
  Rational Value(size_t i) const {
    return value_[objective_vars_[i]].c + objective_constants_[i];
  }
  bool ValueIsReal(size_t i) const {
    return value_[objective_vars_[i]].k.IsZero();
  }

  // The current point, with δ instantiated small enough that every bound
  // still holds (strict ones strictly).
  Assignment Point() const {
    Rational delta(1);
    auto keep_order = [&](const DeltaRational& lo, const DeltaRational& hi) {
      if (lo.c < hi.c && lo.k > hi.k) {
        delta = std::min(delta, (hi.c - lo.c) / (lo.k - hi.k));
      }
    };
    for (size_t v = 0; v < value_.size(); ++v) {
      if (lower_[v]) keep_order(*lower_[v], value_[v]);
      if (upper_[v]) keep_order(value_[v], *upper_[v]);
    }
    Assignment out;
    for (size_t j = 0; j < vars_.size(); ++j) {
      out[vars_[j]] = value_[j].c + value_[j].k * delta;
    }
    return out;
  }

 private:
  size_t Column(VarId var) const {
    return std::lower_bound(vars_.begin(), vars_.end(), var) - vars_.begin();
  }

  void AddRow(std::vector<LinearExpr>* row_exprs, LinearExpr terms) {
    row_exprs->push_back(std::move(terms));
    lower_.emplace_back();
    upper_.emplace_back();
  }

  static void Tighten(Bound* bound, const DeltaRational& b, bool is_upper) {
    if (!*bound || (is_upper ? b < **bound : b > **bound)) *bound = b;
  }

  // Cooperative cancellation: one pivot is accounted per iteration and the
  // wall clock sampled every 64. On a trip the caller bails with a dummy
  // answer — the public entry points re-check the token before publishing,
  // so that answer never escapes.
  static bool Interrupted(size_t iteration) {
    return exec::AccountPivots(1, "simplex.run") ||
           ((iteration & 63) == 0 &&
            exec::GovernorScope::Current() != nullptr &&
            exec::GovernorScope::Current()->CheckDeadline("simplex.run"));
  }

  // Bland's rule: the smallest non-basic variable that can move the basic
  // variable of `row` up (`raise`) or down within its own bounds.
  size_t Entering(size_t row, bool raise) const {
    for (size_t j = 0; j < value_.size(); ++j) {
      const Rational& a = rows_[row][j];
      if (a.IsZero()) continue;  // Basic variables have 0 here too.
      bool up = (a.Sign() > 0) == raise;
      if (up ? !upper_[j] || value_[j] < *upper_[j]
             : !lower_[j] || value_[j] > *lower_[j]) {
        return j;
      }
    }
    return kNone;
  }

  // Sets non-basic variable `j` to `v`, moving the basic variables along.
  void Update(size_t j, const DeltaRational& v) {
    DeltaRational diff = v - value_[j];
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Rational& a = rows_[r][j];
      if (!a.IsZero()) value_[basic_[r]] = value_[basic_[r]] + diff * a;
    }
    value_[j] = v;
  }

  // Moves the basic variable of `row` to `v` through non-basic `j`, then
  // swaps the two.
  void PivotAndUpdate(size_t row, size_t j, const DeltaRational& v) {
    size_t b = basic_[row];
    std::vector<Rational>& pivot_row = rows_[row];
    Rational inv = pivot_row[j].Inverse();
    Update(j, value_[j] + (v - value_[b]) * inv);
    LYRIC_OBS_COUNT("simplex.pivots");
    // b = a*j + rest  =>  j = b/a - rest/a.
    Rational neg_inv = -inv;
    pivot_row[j] = Rational();
    pivot_row[b] = Rational(-1);
    std::vector<size_t> nonzero;
    for (size_t l = 0; l < pivot_row.size(); ++l) {
      if (pivot_row[l].IsZero()) continue;
      pivot_row[l] *= neg_inv;
      nonzero.push_back(l);
    }
    for (size_t r = 0; r < rows_.size(); ++r) {
      Rational f = rows_[r][j];
      if (r == row || f.IsZero()) continue;
      rows_[r][j] = Rational();
      for (size_t l : nonzero) rows_[r][l] += f * pivot_row[l];
    }
    basic_[row] = j;
    row_of_[j] = row;
    row_of_[b] = kNone;
  }

  obs::ScopedHistogramTimer timer_;  // One `simplex.solve` sample per LP.
  std::vector<VarId> vars_;          // Column j is variable vars_[j].
  // Variables: the columns, then one slack per row. Row r keeps basic_[r]
  // as rows_[r] . (all variables); row_of_ is its inverse.
  std::vector<std::vector<Rational>> rows_;
  std::vector<size_t> basic_;
  std::vector<size_t> row_of_;
  std::vector<DeltaRational> value_;
  std::vector<Bound> lower_;
  std::vector<Bound> upper_;
  std::vector<size_t> objective_vars_;
  std::vector<Rational> objective_constants_;
  bool infeasible_ = false;  // A constant-false atom or crossed bounds.
};

// The left-hand sides of the disequalities of `c`.
std::vector<LinearExpr> DisequalityExprs(const Conjunction& c) {
  std::vector<LinearExpr> out;
  for (const LinearConstraint& atom : c.atoms()) {
    if (atom.IsDisequality()) out.push_back(atom.lhs());
  }
  return out;
}

// True iff objective `i` is 0 on the whole closure of a Close()d tableau.
bool ClosureEntailsZero(Tableau* t, size_t i) {
  for (bool maximize : {true, false}) {
    if (t->Optimize(i, maximize) != LpStatus::kOptimal ||
        !t->Value(i).IsZero()) {
      return false;
    }
  }
  return true;
}

// Decides `c` on one tableau. A governor trip may leave a bogus verdict.
bool Satisfiable(const Conjunction& c) {
  std::vector<LinearExpr> diseqs = DisequalityExprs(c);
  Tableau t(c, diseqs);
  if (!t.Check()) return false;
  // A nonempty convex set lies inside a finite union of hyperplanes iff
  // it lies inside one of them, so the disequalities can be checked one
  // at a time against the closure.
  t.Close();
  for (size_t i = 0; i < diseqs.size(); ++i) {
    if (ClosureEntailsZero(&t, i)) return false;
  }
  return true;
}

}  // namespace

Result<bool> Simplex::IsSatisfiable(const Conjunction& c) {
  LYRIC_OBS_COUNT("simplex.calls.is_satisfiable");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.is_satisfiable"));
  return SolverCache::Global().Memoize<bool>(
      SolverCache::Question::Sat(c), [&]() -> Result<bool> {
        bool sat = Satisfiable(c);
        // A tripped run may have bailed mid-solve: report the trip, never
        // the (possibly bogus) verdict.
        LYRIC_RETURN_NOT_OK(
            exec::CheckCancellation("simplex.is_satisfiable"));
        return sat;
      });
}

Result<std::optional<Assignment>> Simplex::FindPoint(const Conjunction& c) {
  LYRIC_OBS_COUNT("simplex.calls.find_point");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.find_point"));
  LYRIC_ASSIGN_OR_RETURN(bool sat, IsSatisfiable(c));
  if (!sat) return std::optional<Assignment>();

  std::vector<LinearExpr> diseqs = DisequalityExprs(c);
  Tableau t(c, diseqs);
  if (!t.Check()) {
    LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.find_point"));
    return Status::Internal("FindPoint: no point after sat check");
  }
  Assignment x = t.Point();
  t.Close();

  // x satisfies the =, <= and < atoms. Repair each violated disequality by
  // blending toward a point y of the closure that breaks it; convexity
  // keeps the closed atoms satisfied and a small enough step keeps the
  // strict ones.
  for (size_t i = 0; i < diseqs.size(); ++i) {
    const LinearExpr& d = diseqs[i];
    if (!d.Eval(x).ValueOr(Rational()).IsZero()) continue;
    // y exists because IsSatisfiable passed: maximizing d either stops
    // at a point where d != 0 or shows max d = 0, and then minimizing does.
    LpStatus st = t.Optimize(i, true);
    if (st == LpStatus::kOptimal && t.Value(i).IsZero()) {
      st = t.Optimize(i, false);
    }
    if (st == LpStatus::kInfeasible || t.Value(i).IsZero()) {
      // A governed run may have bailed out of the witness LP mid-solve;
      // report the trip rather than a spurious internal error.
      LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.find_point"));
      return Status::Internal("FindPoint: no witness for disequality " +
                              d.ToString() + " != 0");
    }
    Assignment y = t.Point();
    // Largest step bound that keeps every strict atom satisfied.
    Rational bound(1);
    for (const LinearConstraint& s : c.atoms()) {
      if (!s.IsStrict()) continue;
      Rational ex = s.lhs().Eval(x).ValueOr(Rational());
      Rational ey = s.lhs().Eval(y).ValueOr(Rational());
      if (ey > ex) {
        // (1-l)ex + l*ey < 0  <=>  l < -ex / (ey - ex).
        bound = std::min(bound, (-ex) / (ey - ex));
      }
    }
    // Choose l in (0, bound) avoiding the finitely many values where some
    // other disequality's expression crosses zero.
    for (int denom = 2;; ++denom) {
      Rational l = bound * Rational(1, denom);
      Assignment cand;
      for (const auto& [var, vx] : x) cand[var] = vx + (y.at(var) - vx) * l;
      bool ok = true;
      for (size_t k = 0; k < diseqs.size() && ok; ++k) {
        // Only reject candidates that break an already-satisfied (or the
        // current) disequality; each disequality excludes at most one l.
        ok = !diseqs[k].Eval(cand).ValueOr(Rational(1)).IsZero() ||
             (k != i && diseqs[k].Eval(x).ValueOr(Rational(1)).IsZero());
      }
      if (ok) {
        x = std::move(cand);
        break;
      }
      if (denom > static_cast<int>(diseqs.size()) + 4) {
        return Status::Internal("FindPoint: step selection failed");
      }
    }
  }
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.find_point"));
  return std::optional<Assignment>(std::move(x));
}

Result<LpSolution> Simplex::Maximize(const LinearExpr& objective,
                                     const Conjunction& c) {
  LYRIC_OBS_COUNT("simplex.calls.maximize");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.maximize"));
  LpSolution out;
  // Without disequalities one LP decides everything: Check() decides
  // satisfiability on δ-rationals, Optimize() finds the supremum from that
  // basis, and its δ-part says whether the open set attains it.
  // Disequalities are not tableau rows, so they need a satisfiability
  // check first and a point on the optimal face afterwards.
  bool diseqs = std::any_of(
      c.atoms().begin(), c.atoms().end(),
      [](const LinearConstraint& a) { return a.IsDisequality(); });
  if (diseqs) {
    LYRIC_ASSIGN_OR_RETURN(bool sat, IsSatisfiable(c));
    if (!sat) {
      out.status = LpStatus::kInfeasible;
      return out;
    }
  }
  bool feasible = false;
  {
    // One tableau, one `simplex.solve` sample: it ends before the
    // attainment check below runs LPs of its own.
    Tableau t(c, {objective});
    feasible = t.Check();
    if (feasible) {
      if (diseqs) t.Close();
      out.status = t.Optimize(0, true);
      if (out.status == LpStatus::kOptimal) {
        out.value = t.Value(0);
        out.attained = !diseqs && t.ValueIsReal(0);
        // A supremum that is not attained gets a point of the closure.
        if (!out.attained) t.Close();
        out.point = t.Point();
      }
    }
  }
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.maximize"));
  if (!feasible) {
    if (diseqs) return Status::Internal("closure infeasible after sat check");
    out.status = LpStatus::kInfeasible;
    return out;
  }
  if (out.status != LpStatus::kOptimal || !diseqs) return out;
  // Attained iff the original set meets the optimal face.
  Conjunction on_face = c;
  on_face.Add(LinearConstraint(objective - LinearExpr::Constant(out.value),
                               RelOp::kEq));
  LYRIC_ASSIGN_OR_RETURN(std::optional<Assignment> pt, FindPoint(on_face));
  if (pt.has_value()) {
    out.attained = true;
    out.point = std::move(*pt);
  }
  return out;
}

Result<LpSolution> Simplex::Minimize(const LinearExpr& objective,
                                     const Conjunction& c) {
  LYRIC_ASSIGN_OR_RETURN(LpSolution neg, Maximize(-objective, c));
  neg.value = -neg.value;
  return neg;
}

Result<bool> Simplex::EntailsZero(const Conjunction& c,
                                  const LinearExpr& expr) {
  LYRIC_OBS_COUNT("simplex.calls.entails_zero");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.entails_zero"));
  // If c itself is unsatisfiable, entailment holds vacuously.
  LYRIC_ASSIGN_OR_RETURN(bool sat, IsSatisfiable(c));
  if (!sat) return true;
  // With c satisfiable, disequalities cannot change the entailment (the
  // punctured set and its closure entail the same linear equalities).
  Tableau t(c, {expr});
  bool entails = t.Check();
  if (entails) {
    t.Close();
    entails = ClosureEntailsZero(&t, 0);
  }
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.entails_zero"));
  return entails;
}

}  // namespace lyric
