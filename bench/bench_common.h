// Shared workload generators for the benchmark harness.

#ifndef LYRIC_BENCH_BENCH_COMMON_H_
#define LYRIC_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "constraint/conjunction.h"
#include "constraint/dnf.h"
#include "constraint/solver_cache.h"
#include "obs/metrics.h"

namespace lyric {
namespace bench {

/// Emits per-iteration engine-counter deltas into the benchmark report.
/// Declare one right before the `for (auto _ : state)` loop; on scope exit
/// every counter that moved during the timed region shows up in the JSON
/// and console output divided by the iteration count (e.g.
/// `simplex.pivots=41.2/iter`).
class CounterDeltas {
 public:
  explicit CounterDeltas(benchmark::State& state)
      : state_(state), before_(obs::Registry::Global().Snapshot()) {}
  ~CounterDeltas() {
    obs::MetricsSnapshot delta =
        obs::Registry::Global().Snapshot().DeltaSince(before_);
    double iters = static_cast<double>(
        state_.iterations() == 0 ? 1 : state_.iterations());
    for (const auto& [name, value] : delta.counters) {
      if (value == 0) continue;
      state_.counters[name] =
          benchmark::Counter(static_cast<double>(value) / iters);
    }
  }
  CounterDeltas(const CounterDeltas&) = delete;
  CounterDeltas& operator=(const CounterDeltas&) = delete;

 private:
  benchmark::State& state_;
  obs::MetricsSnapshot before_;
};

/// Solver benches register a cold and a warm series (BENCHMARK_CAPTURE
/// with `cold` = true / false). Called first in the loop body, this
/// empties SolverCache::Global() outside the timed region on the cold
/// series, so every cold iteration times a solve rather than a cache hit;
/// the warm series times the memoized answer.
inline void ClearCacheIfCold(benchmark::State& state, bool cold) {
  if (!cold) return;
  state.PauseTiming();
  SolverCache::Global().Clear();
  state.ResumeTiming();
}

/// Deterministic variable ids bvar0..bvar{n-1}.
inline std::vector<VarId> BenchVars(size_t n) {
  std::vector<VarId> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Variable::Intern("bvar" + std::to_string(i)));
  }
  return out;
}

/// A random *feasible bounded* polytope over `vars`: every constraint is
/// slack at the origin and a bounding box keeps the region finite.
inline Conjunction RandomPolytope(const std::vector<VarId>& vars,
                                  int num_constraints, uint64_t seed,
                                  int64_t coeff_range = 5,
                                  int64_t box = 100) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 12345);
  Conjunction c;
  for (VarId v : vars) {
    c.Add(LinearConstraint::Ge(LinearExpr::Var(v),
                               LinearExpr::Constant(Rational(-box))));
    c.Add(LinearConstraint::Le(LinearExpr::Var(v),
                               LinearExpr::Constant(Rational(box))));
  }
  for (int i = 0; i < num_constraints; ++i) {
    LinearExpr e;
    bool nonzero = false;
    for (VarId v : vars) {
      int64_t coeff = static_cast<int64_t>(rng() % (2 * coeff_range + 1)) -
                      coeff_range;
      if (coeff != 0) nonzero = true;
      e.AddTerm(v, Rational(coeff));
    }
    if (!nonzero) e.AddTerm(vars[i % vars.size()], Rational(1));
    // Loose at the origin: e <= slack with slack >= 1.
    int64_t slack = 1 + static_cast<int64_t>(rng() % 50);
    c.Add(LinearConstraint::Le(e, LinearExpr::Constant(Rational(slack))));
  }
  return c;
}

/// A random DNF with `disjuncts` conjuncts of `atoms` atoms each; roughly
/// a third of the disjuncts are planted inconsistent and duplicates are
/// planted every fourth disjunct.
inline Dnf RandomDnf(const std::vector<VarId>& vars, int disjuncts, int atoms,
                     uint64_t seed) {
  Dnf out;
  Conjunction last;
  for (int d = 0; d < disjuncts; ++d) {
    if (d % 4 == 3 && !last.IsTrue()) {
      out.AddDisjunct(last);  // Planted syntactic duplicate.
      continue;
    }
    Conjunction c = RandomPolytope(vars, atoms, seed * 131 + d);
    if (d % 3 == 2) {
      // Plant inconsistency.
      VarId v = vars[d % vars.size()];
      c.Add(LinearConstraint::Ge(LinearExpr::Var(v),
                                 LinearExpr::Constant(Rational(1))));
      c.Add(LinearConstraint::Le(LinearExpr::Var(v),
                                 LinearExpr::Constant(Rational(0))));
    }
    last = c;
    out.AddDisjunct(std::move(c));
  }
  return out;
}

}  // namespace bench
}  // namespace lyric

#endif  // LYRIC_BENCH_BENCH_COMMON_H_
