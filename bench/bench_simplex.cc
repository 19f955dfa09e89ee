// E5 — the MAX/MIN ... SUBJECT TO operator (§4.2): exact-rational LP cost
// as the constraint system grows, plus the satisfiability predicate on
// closed and strict systems.
//
// Expected shape: polynomial growth in both variables and constraints;
// strict systems cost about what closed ones do (δ-rationals, no second
// LP); witness extraction (FindPoint) tracks feasibility cost. The
// satisfiability and FindPoint benches run a cold series (empty solver
// cache every iteration) and a warm one (cache hits); closed-system
// Maximize never consults the cache.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "constraint/simplex.h"

namespace lyric {
namespace {

void BM_MaximizeByConstraints(benchmark::State& state) {
  auto vars = bench::BenchVars(6);
  Conjunction c = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/21);
  LinearExpr obj;
  for (VarId v : vars) obj.AddTerm(v, Rational(1));
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::Maximize(obj, c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MaximizeByConstraints)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_MaximizeByVariables(benchmark::State& state) {
  auto vars = bench::BenchVars(static_cast<size_t>(state.range(0)));
  Conjunction c = bench::RandomPolytope(vars, 24, /*seed=*/22);
  LinearExpr obj;
  for (VarId v : vars) obj.AddTerm(v, Rational(1));
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::Maximize(obj, c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MaximizeByVariables)->Arg(2)->Arg(4)->Arg(8)->Arg(10);

void BM_SatisfiabilityClosed(benchmark::State& state, bool cold) {
  auto vars = bench::BenchVars(6);
  Conjunction c = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/23);
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    bench::ClearCacheIfCold(state, cold);
    auto r = Simplex::IsSatisfiable(c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK_CAPTURE(BM_SatisfiabilityClosed, cold, true)
    ->Arg(8)->Arg(32)->Arg(64);
BENCHMARK_CAPTURE(BM_SatisfiabilityClosed, warm, false)
    ->Arg(8)->Arg(32)->Arg(64);

void BM_SatisfiabilityStrict(benchmark::State& state, bool cold) {
  auto vars = bench::BenchVars(6);
  Conjunction closed = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/23);
  Conjunction strict;
  for (const LinearConstraint& atom : closed.atoms()) {
    strict.Add(atom.op() == RelOp::kLe
                   ? LinearConstraint(atom.lhs(), RelOp::kLt)
                   : atom);
  }
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    bench::ClearCacheIfCold(state, cold);
    auto r = Simplex::IsSatisfiable(strict);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK_CAPTURE(BM_SatisfiabilityStrict, cold, true)
    ->Arg(8)->Arg(32)->Arg(64);
BENCHMARK_CAPTURE(BM_SatisfiabilityStrict, warm, false)
    ->Arg(8)->Arg(32)->Arg(64);

void BM_FindPointWithDisequalities(benchmark::State& state, bool cold) {
  auto vars = bench::BenchVars(4);
  Conjunction c = bench::RandomPolytope(vars, 12, /*seed=*/25);
  // Puncture the polytope along several hyperplanes through the origin —
  // the witness point the simplex finds often needs repair.
  for (int64_t k = 0; k < state.range(0); ++k) {
    LinearExpr e;
    e.AddTerm(vars[static_cast<size_t>(k) % vars.size()], Rational(1));
    e.AddTerm(vars[(static_cast<size_t>(k) + 1) % vars.size()],
              Rational(-1));
    c.Add(LinearConstraint(e, RelOp::kNeq));
  }
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    bench::ClearCacheIfCold(state, cold);
    auto r = Simplex::FindPoint(c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK_CAPTURE(BM_FindPointWithDisequalities, cold, true)
    ->Arg(0)->Arg(2)->Arg(4);
BENCHMARK_CAPTURE(BM_FindPointWithDisequalities, warm, false)
    ->Arg(0)->Arg(2)->Arg(4);

}  // namespace
}  // namespace lyric
