// Governor-aware cache tombstones: a query tripped by a budget limit
// (pivots / memory / disjuncts) records a "too expensive" marker in the
// SolverCache, so repeat runs under the same (or a tighter) budget fail
// fast with the byte-identical typed status instead of re-burning the
// budget. Tombstones never outlive their usefulness: larger budgets and
// ungoverned runs ignore them, successful recomputation overwrites them,
// and they evict from the LRU like any other entry.

#include <gtest/gtest.h>

#include <string>

#include "constraint/simplex.h"
#include "constraint/solver_cache.h"
#include "exec/governor.h"
#include "obs/metrics.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

using exec::CancellationToken;
using exec::GovernorLimits;
using exec::GovernorScope;
using exec::LimitKind;

uint64_t TombstoneHits() {
  return obs::Registry::Global().GetCounter("cache.tombstone.hit").value();
}

Conjunction IntervalConjunction(int64_t lo, int64_t hi) {
  VarId x = Variable::Intern("x");
  Conjunction c;
  c.Add(LinearConstraint::Ge(LinearExpr::Var(x),
                             LinearExpr::Constant(Rational(lo))));
  c.Add(LinearConstraint::Le(LinearExpr::Var(x),
                             LinearExpr::Constant(Rational(hi))));
  return c;
}

class TombstoneTest : public ::testing::Test {
 protected:
  void SetUp() override { SolverCache::Global().Clear(); }
  void TearDown() override { SolverCache::Global().Clear(); }
};

// -- Unit behavior against the cache API -----------------------------------

// A governed Memoize of `c` whose computation trips `kind` under `limits`;
// returns the trip status it reported.
Status TripOn(SolverCache& cache, const Conjunction& c,
              const GovernorLimits& limits, LimitKind kind) {
  CancellationToken token(limits);
  GovernorScope scope(&token);
  Result<bool> tripped = cache.Memoize<bool>(
      SolverCache::Question::Sat(c), [&]() -> Result<bool> {
        token.ForceTrip(kind, "simplex.solve");
        return token.ToStatus();
      });
  return tripped.status();
}

// Memoizes `c` under the ambient governor (if any) with a computation
// that answers `verdict` and counts its runs in `*computed`.
Result<bool> Ask(SolverCache& cache, const Conjunction& c, bool verdict,
                 int* computed) {
  return cache.Memoize<bool>(SolverCache::Question::Sat(c), [&] {
    ++*computed;
    return Result<bool>(verdict);
  });
}

TEST_F(TombstoneTest, StoredTombstoneReplaysTheOriginalTrip) {
  SolverCache& cache = SolverCache::Global();
  Conjunction doomed = IntervalConjunction(0, 10);

  GovernorLimits limits;
  limits.max_pivots = 32;
  Status tripped = TripOn(cache, doomed, limits, LimitKind::kPivots);
  ASSERT_TRUE(tripped.IsResourceExhausted()) << tripped;

  // A fresh governed run with the same budget is doomed before solving.
  CancellationToken token(limits);
  GovernorScope scope(&token);
  uint64_t before = TombstoneHits();
  uint64_t stats_before = cache.stats().tombstone_hits;
  int computed = 0;
  Result<bool> hit = Ask(cache, doomed, true, &computed);
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(computed, 0);
  EXPECT_TRUE(hit.status().IsResourceExhausted()) << hit.status();
  EXPECT_EQ(hit.status().message(), tripped.message());  // Byte-identical.
  EXPECT_EQ(TombstoneHits(), before + 1);
  EXPECT_EQ(cache.stats().tombstone_hits, stats_before + 1);
  // The serving token is now genuinely tripped (sticky), as if it had
  // done the doomed work itself.
  EXPECT_TRUE(token.stopped());
  EXPECT_EQ(token.tripped_kind(), LimitKind::kPivots);
}

TEST_F(TombstoneTest, HitsAndDoomedTombstonesNeverCompute) {
  SolverCache& cache = SolverCache::Global();
  Conjunction known = IntervalConjunction(0, 10);
  Conjunction doomed = IntervalConjunction(0, 20);
  int computed = 0;
  ASSERT_TRUE(Ask(cache, known, true, &computed).ok());
  ASSERT_EQ(computed, 1);
  GovernorLimits limits;
  limits.max_pivots = 32;
  TripOn(cache, doomed, limits, LimitKind::kPivots);

  CancellationToken token(limits);
  GovernorScope scope(&token);
  Result<bool> hit = Ask(cache, known, false, &computed);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(*hit);  // The stored verdict, not the computation's.
  EXPECT_FALSE(Ask(cache, doomed, true, &computed).ok());
  EXPECT_EQ(computed, 1);
}

TEST_F(TombstoneTest, LargerBudgetAndUngovernedLookupsIgnoreTombstones) {
  SolverCache& cache = SolverCache::Global();
  Conjunction doomed = IntervalConjunction(0, 10);
  GovernorLimits limits;
  limits.max_pivots = 32;
  int computed = 0;
  auto expect_recompute = [&] {
    // Recompute fails on purpose, so the tombstone stays in place for
    // the next case.
    Result<bool> r = cache.Memoize<bool>(
        SolverCache::Question::Sat(doomed), [&]() -> Result<bool> {
          ++computed;
          return Status::Internal("recomputed");
        });
    EXPECT_EQ(r.status().code(), StatusCode::kInternal) << r.status();
  };
  TripOn(cache, doomed, limits, LimitKind::kPivots);
  const uint64_t hits_before = cache.stats().tombstone_hits;
  {
    // Twice the budget: the tombstone proves nothing — really retry.
    GovernorLimits wider;
    wider.max_pivots = 64;
    CancellationToken token(wider);
    GovernorScope scope(&token);
    expect_recompute();
    EXPECT_FALSE(token.stopped());
  }
  {
    // A governed run with no pivot limit at all.
    GovernorLimits deadline_only;
    deadline_only.deadline_ms = 60000;
    CancellationToken token(deadline_only);
    GovernorScope scope(&token);
    expect_recompute();
  }
  // Ungoverned: no token, no tombstone service.
  expect_recompute();
  EXPECT_EQ(computed, 3);
  EXPECT_EQ(cache.stats().tombstone_hits, hits_before);
}

TEST_F(TombstoneTest, DeadlineTripsAreNeverTombstoned) {
  SolverCache& cache = SolverCache::Global();
  Conjunction c = IntervalConjunction(0, 10);
  GovernorLimits limits;
  limits.deadline_ms = 1;
  limits.max_pivots = 32;
  Status tripped = TripOn(cache, c, limits, LimitKind::kDeadline);
  EXPECT_EQ(tripped.code(), StatusCode::kDeadlineExceeded) << tripped;
  {
    // Even a ResourceExhausted answer leaves no tombstone when the
    // ambient token tripped on the wall clock.
    CancellationToken token(limits);
    GovernorScope scope(&token);
    token.ForceTrip(LimitKind::kDeadline, "simplex.solve");
    Result<bool> r = cache.Memoize<bool>(
        SolverCache::Question::Sat(c), [&]() -> Result<bool> {
          return Status::ResourceExhausted("budget");
        });
    EXPECT_FALSE(r.ok());
  }
  EXPECT_EQ(cache.stats().size, 0u);
  CancellationToken token(limits);
  GovernorScope scope(&token);
  int computed = 0;
  EXPECT_TRUE(Ask(cache, c, true, &computed).ok());
  EXPECT_EQ(computed, 1);
}

TEST_F(TombstoneTest, SuccessfulRecomputationOverwritesTheTombstone) {
  SolverCache& cache = SolverCache::Global();
  Conjunction doomed = IntervalConjunction(0, 10);
  GovernorLimits limits;
  limits.max_pivots = 32;
  TripOn(cache, doomed, limits, LimitKind::kPivots);
  // An ungoverned run recomputes and stores the real verdict over the
  // tombstone (shared key).
  int computed = 0;
  ASSERT_TRUE(Ask(cache, doomed, true, &computed).ok());
  EXPECT_EQ(cache.stats().size, 1u);
  CancellationToken token(limits);
  GovernorScope scope(&token);
  Result<bool> served = Ask(cache, doomed, false, &computed);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_TRUE(*served);
  EXPECT_EQ(computed, 1);
  EXPECT_FALSE(token.stopped());
}

TEST_F(TombstoneTest, TombstonesEvictLikeNormalEntries) {
  SolverCache& cache = SolverCache::Global();
  size_t previous = cache.capacity();
  cache.set_capacity(16);
  cache.Clear();
  Conjunction doomed = IntervalConjunction(0, 10);
  GovernorLimits limits;
  limits.max_pivots = 32;
  TripOn(cache, doomed, limits, LimitKind::kPivots);
  // Flood every shard until the tombstone falls off the LRU.
  int computed = 0;
  for (int i = 0; i < 512; ++i) {
    Ask(cache, IntervalConjunction(-1000 - i, 1000 + i), true, &computed);
  }
  CancellationToken token(limits);
  GovernorScope scope(&token);
  EXPECT_TRUE(Ask(cache, doomed, true, &computed).ok());
  EXPECT_EQ(computed, 513);
  cache.set_capacity(previous);
  cache.Clear();
}

// -- End-to-end: a budget-tripped query fails fast on repeat ---------------

TEST_F(TombstoneTest, RepeatGovernedQueryFailsFastWithIdenticalStatus) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok()) << ids.status();

  // An entailment query under a pivot budget far too small to finish: the
  // in-flight kernel computation trips and tombstones its key. The
  // premise is a box and the conclusion spans both of its variables, so
  // refuting the negation takes pivots (one-variable atoms over a point
  // are plain bounds, refuted without one).
  const char* kQuery =
      "SELECT DSK FROM Desk DSK "
      "WHERE DSK.extent[E] and E(w, z) |= w + z <= 6";
  EvalOptions governed;
  governed.threads = 1;
  governed.max_pivots = 1;

  Evaluator ev(&db, governed);
  auto first = ev.Execute(kQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->governor_status().IsResourceExhausted())
      << first->governor_status();
  ASSERT_EQ(first->governor_report().tripped, LimitKind::kPivots);
  const std::string first_message = first->governor_status().message();

  // Same budget again: served from the tombstone, byte-identical status,
  // and the kernels never re-burn the pivot budget on the doomed key.
  uint64_t before = TombstoneHits();
  Evaluator again(&db, governed);
  auto second = again.Execute(kQuery);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->governor_status().IsResourceExhausted())
      << second->governor_status();
  EXPECT_EQ(second->governor_status().message(), first_message);
  EXPECT_EQ(second->governor_report().site, first->governor_report().site);
  EXPECT_GT(TombstoneHits(), before);

  // A generous budget ignores the tombstone and completes the query.
  EvalOptions generous;
  generous.threads = 1;
  generous.max_pivots = 1000000;
  Evaluator wide(&db, generous);
  auto full = wide.Execute(kQuery);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_TRUE(full->governor_status().ok()) << full->governor_status();
  EXPECT_GT(full->size(), 0u);

  // The successful recomputation overwrote the tombstones: the tight
  // budget now rides the warm cache instead of failing fast.
  uint64_t after_success = TombstoneHits();
  Evaluator warm(&db, governed);
  auto third = warm.Execute(kQuery);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(TombstoneHits(), after_success);
}

}  // namespace
}  // namespace lyric
