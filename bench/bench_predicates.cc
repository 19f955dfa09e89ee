// E6 — the WHERE-clause constraint predicates (§4.2): satisfiability of
// disjunctive existential formulas and the |= entailment test.
//
// Expected shape: satisfiability is linear in the number of disjuncts
// (one LP each); entailment grows with the *right-hand* disjunct count
// (the refutation case split — co-NP in general), while left-hand
// disjuncts only multiply linearly. Every bench runs a cold series (empty
// solver cache every iteration) and a warm one (cache hits).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "constraint/entailment.h"

namespace lyric {
namespace {

void BM_DnfSatisfiable(benchmark::State& state, bool cold) {
  auto vars = bench::BenchVars(4);
  Dnf d = bench::RandomDnf(vars, static_cast<int>(state.range(0)), 8,
                           /*seed=*/31);
  for (auto _ : state) {
    bench::ClearCacheIfCold(state, cold);
    auto r = d.Satisfiable();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK_CAPTURE(BM_DnfSatisfiable, cold, true)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_DnfSatisfiable, warm, false)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_EntailsByLhsDisjuncts(benchmark::State& state, bool cold) {
  auto vars = bench::BenchVars(4);
  Dnf lhs = bench::RandomDnf(vars, static_cast<int>(state.range(0)), 6,
                             /*seed=*/33);
  // rhs: a fixed loose box that everything entails.
  Conjunction box;
  for (VarId v : vars) {
    box.Add(LinearConstraint::Ge(LinearExpr::Var(v),
                                 LinearExpr::Constant(Rational(-1000))));
    box.Add(LinearConstraint::Le(LinearExpr::Var(v),
                                 LinearExpr::Constant(Rational(1000))));
  }
  Dnf rhs(box);
  for (auto _ : state) {
    bench::ClearCacheIfCold(state, cold);
    auto r = Entailment::Entails(lhs, rhs);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK_CAPTURE(BM_EntailsByLhsDisjuncts, cold, true)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_EntailsByLhsDisjuncts, warm, false)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_EntailsByRhsDisjuncts(benchmark::State& state, bool cold) {
  auto vars = bench::BenchVars(2);
  // lhs: the box [0, 2^k] x [0, 1].
  Conjunction box;
  box.Add(LinearConstraint::Ge(LinearExpr::Var(vars[0]),
                               LinearExpr::Constant(Rational(0))));
  box.Add(LinearConstraint::Le(
      LinearExpr::Var(vars[0]),
      LinearExpr::Constant(Rational(state.range(0)))));
  box.Add(LinearConstraint::Ge(LinearExpr::Var(vars[1]),
                               LinearExpr::Constant(Rational(0))));
  box.Add(LinearConstraint::Le(LinearExpr::Var(vars[1]),
                               LinearExpr::Constant(Rational(1))));
  // rhs: the union of unit slabs [i, i+1] — entailment must cover the lhs
  // by genuinely splitting cases across all disjuncts.
  Dnf rhs;
  for (int64_t i = 0; i < state.range(0); ++i) {
    Conjunction slab;
    slab.Add(LinearConstraint::Ge(LinearExpr::Var(vars[0]),
                                  LinearExpr::Constant(Rational(i))));
    slab.Add(LinearConstraint::Le(LinearExpr::Var(vars[0]),
                                  LinearExpr::Constant(Rational(i + 1))));
    rhs.AddDisjunct(std::move(slab));
  }
  for (auto _ : state) {
    bench::ClearCacheIfCold(state, cold);
    auto r = Entailment::Entails(Dnf(box), rhs);
    benchmark::DoNotOptimize(r);
  }
  state.counters["rhs_disjuncts"] = static_cast<double>(state.range(0));
}
BENCHMARK_CAPTURE(BM_EntailsByRhsDisjuncts, cold, true)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_EntailsByRhsDisjuncts, warm, false)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_OverlapPredicate(benchmark::State& state, bool cold) {
  // The spatial overlap test (intersection satisfiability) used by the
  // §2.2 Overlap view, at growing atom counts.
  auto vars = bench::BenchVars(2);
  Conjunction a = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/35);
  Conjunction b = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/36);
  for (auto _ : state) {
    bench::ClearCacheIfCold(state, cold);
    auto r = Entailment::Overlaps(Dnf(a), Dnf(b));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK_CAPTURE(BM_OverlapPredicate, cold, true)
    ->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_OverlapPredicate, warm, false)
    ->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace lyric
