// Property tests for the solver memo cache: a cache hit must be
// indistinguishable from a fresh solve. Three properties are hammered
// with pseudo-random constraint workloads:
//
//   1. cached-vs-fresh verdicts agree (sat, canonical, entailment),
//   2. eviction at tiny capacities never changes any answer,
//   3. forced hash collisions fall back to structural equality.
//
// The rest pin SolverCache::Memoize itself: key spaces, capacity,
// stats, and one hash per question.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "constraint/canonical.h"
#include "constraint/entailment.h"
#include "constraint/simplex.h"
#include "constraint/solver_cache.h"
#include "exec/governor.h"

namespace lyric {
namespace {

// Deterministic LCG — tests must not depend on the run's entropy.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed ? seed : 1) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  int64_t Range(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Next() % (hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// A random conjunction of interval and sum constraints over (x, y) —
// roughly half satisfiable, and small enough that solving is instant.
Conjunction RandomConjunction(Lcg& rng) {
  VarId x = Variable::Intern("x");
  VarId y = Variable::Intern("y");
  Conjunction c;
  int atoms = static_cast<int>(rng.Range(1, 4));
  for (int i = 0; i < atoms; ++i) {
    LinearExpr lhs;
    switch (rng.Range(0, 2)) {
      case 0: lhs = LinearExpr::Var(x); break;
      case 1: lhs = LinearExpr::Var(y); break;
      default:
        lhs = LinearExpr::Var(x);
        lhs.AddTerm(y, Rational(1));
        break;
    }
    LinearExpr rhs = LinearExpr::Constant(Rational(rng.Range(-8, 8)));
    if (rng.Range(0, 1) == 0) {
      c.Add(LinearConstraint::Le(lhs, rhs));
    } else {
      c.Add(LinearConstraint::Ge(lhs, rhs));
    }
  }
  return c;
}

using Question = SolverCache::Question;

// Memoizes `answer` for `q`: stored on a miss, ignored on a hit.
template <class T>
void Put(SolverCache& cache, const Question& q, T answer) {
  ASSERT_TRUE(cache.Memoize<T>(q, [&] { return Result<T>(answer); }).ok());
}

// The answer `cache` serves for `q`, or nullopt when it has to compute
// (the compute then fails with a non-budget status, so nothing is stored).
template <class T>
std::optional<T> Cached(SolverCache& cache, const Question& q) {
  bool computed = false;
  Result<T> served = cache.Memoize<T>(q, [&]() -> Result<T> {
    computed = true;
    return Status::Internal("miss");
  });
  if (computed || !served.ok()) return std::nullopt;
  return *served;
}

// Runs `fn` with the global cache in a known state and restores the
// previous capacity afterwards (the hooks in simplex/canonical/entailment
// consult SolverCache::Global(), which the whole test binary shares).
template <typename Fn>
void WithGlobalCapacity(size_t capacity, Fn fn) {
  SolverCache& cache = SolverCache::Global();
  size_t previous = cache.capacity();
  cache.set_capacity(capacity);
  cache.Clear();
  fn(cache);
  cache.set_capacity(previous);
  cache.Clear();
}

// Property 1a: a satisfiability verdict served from cache equals the
// verdict of a fresh solve with caching disabled.
TEST(SolverCacheProperty, CachedSatVerdictsAgreeWithFresh) {
  Lcg rng(42);
  std::vector<Conjunction> inputs;
  for (int i = 0; i < 200; ++i) inputs.push_back(RandomConjunction(rng));

  std::vector<bool> fresh;
  WithGlobalCapacity(0, [&](SolverCache&) {
    for (const Conjunction& c : inputs) {
      fresh.push_back(Simplex::IsSatisfiable(c).value());
    }
  });

  WithGlobalCapacity(4096, [&](SolverCache& cache) {
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(Simplex::IsSatisfiable(inputs[i]).value(), fresh[i])
            << "input " << i << " pass " << pass;
      }
    }
    EXPECT_GT(cache.stats().hits, 0u);  // later passes must actually hit
  });
}

// Property 1b: canonical forms served from cache equal fresh ones.
TEST(SolverCacheProperty, CachedCanonicalFormsAgreeWithFresh) {
  Lcg rng(7);
  std::vector<Conjunction> inputs;
  for (int i = 0; i < 80; ++i) inputs.push_back(RandomConjunction(rng));

  std::vector<Conjunction> fresh;
  WithGlobalCapacity(0, [&](SolverCache&) {
    for (const Conjunction& c : inputs) {
      fresh.push_back(
          Canonical::Simplify(c, CanonicalLevel::kRedundancy).value());
    }
  });

  WithGlobalCapacity(4096, [&](SolverCache& cache) {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        Conjunction got =
            Canonical::Simplify(inputs[i], CanonicalLevel::kRedundancy)
                .value();
        EXPECT_EQ(got, fresh[i]) << "input " << i << " pass " << pass;
      }
    }
    EXPECT_GT(cache.stats().hits, 0u);
  });
}

// Property 1c: entailment answers served from cache equal fresh ones.
TEST(SolverCacheProperty, CachedEntailmentAnswersAgreeWithFresh) {
  Lcg rng(1234);
  std::vector<std::pair<Conjunction, Dnf>> inputs;
  for (int i = 0; i < 120; ++i) {
    Conjunction lhs = RandomConjunction(rng);
    Dnf rhs(RandomConjunction(rng));
    if (rng.Range(0, 1) == 0) rhs.AddDisjunct(RandomConjunction(rng));
    inputs.emplace_back(std::move(lhs), std::move(rhs));
  }

  std::vector<bool> fresh;
  WithGlobalCapacity(0, [&](SolverCache&) {
    for (const auto& [lhs, rhs] : inputs) {
      fresh.push_back(Entailment::ConjunctionEntails(lhs, rhs).value());
    }
  });

  WithGlobalCapacity(4096, [&](SolverCache& cache) {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(Entailment::ConjunctionEntails(inputs[i].first,
                                                 inputs[i].second)
                      .value(),
                  fresh[i])
            << "input " << i << " pass " << pass;
      }
    }
    EXPECT_GT(cache.stats().hits, 0u);
  });
}

// Property 2: a cache far smaller than the working set thrashes (evicts
// constantly) yet never changes a single verdict.
TEST(SolverCacheProperty, EvictionAtTinyCapacityNeverChangesAnswers) {
  Lcg rng(99);
  std::vector<Conjunction> inputs;
  for (int i = 0; i < 150; ++i) inputs.push_back(RandomConjunction(rng));

  std::vector<bool> fresh;
  WithGlobalCapacity(0, [&](SolverCache&) {
    for (const Conjunction& c : inputs) {
      fresh.push_back(Simplex::IsSatisfiable(c).value());
    }
  });

  WithGlobalCapacity(16, [&](SolverCache& cache) {
    for (int pass = 0; pass < 4; ++pass) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(Simplex::IsSatisfiable(inputs[i]).value(), fresh[i])
            << "input " << i << " pass " << pass;
      }
    }
    SolverCache::Stats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);       // the point of the test
    EXPECT_LE(stats.size, size_t{16});    // the bound held throughout
  });
}

// Property 3: when every key lands in one hash bucket, structural
// equality must still route each lookup to its own entry.
TEST(SolverCacheProperty, HashCollisionsFallBackToStructuralEquality) {
  SolverCache cache(1024);
  cache.SetHashOverrideForTesting([](size_t) { return size_t{17}; });

  Lcg rng(5);
  std::vector<Conjunction> inputs;
  std::vector<bool> verdicts;
  for (int i = 0; i < 60; ++i) {
    Conjunction c = RandomConjunction(rng);
    bool sat = Simplex::IsSatisfiable(c).value();
    // Skip duplicates: the test wants N distinct colliding keys.
    bool dup = false;
    for (const Conjunction& seen : inputs) {
      if (seen == c) dup = true;
    }
    if (dup) continue;
    Put(cache, Question::Sat(c), sat);
    inputs.push_back(std::move(c));
    verdicts.push_back(sat);
  }
  ASSERT_GT(inputs.size(), 20u);

  for (size_t i = 0; i < inputs.size(); ++i) {
    std::optional<bool> cached = Cached<bool>(cache, Question::Sat(inputs[i]));
    ASSERT_TRUE(cached.has_value()) << "collision chain lost entry " << i;
    EXPECT_EQ(*cached, verdicts[i]) << "collision returned a foreign verdict";
  }

  // A structurally new key must miss even though its bucket is full.
  Conjunction unseen;
  unseen.Add(LinearConstraint::Le(
      LinearExpr::Var(Variable::Intern("collision_probe")),
      LinearExpr::Constant(Rational(123456))));
  EXPECT_FALSE(Cached<bool>(cache, Question::Sat(unseen)).has_value());

  cache.SetHashOverrideForTesting(nullptr);
}

// The kinds are distinct key spaces: a sat entry must never answer an
// entailment question for the same conjunction, and canonical entries are
// level-specific.
TEST(SolverCacheProperty, KindsAndLevelsDoNotAlias) {
  SolverCache cache(64);
  Lcg rng(3);
  Conjunction c = RandomConjunction(rng);
  Dnf rhs(c);

  Put(cache, Question::Sat(c), true);
  EXPECT_FALSE(Cached<bool>(cache, Question::Entails(c, rhs)).has_value());
  EXPECT_FALSE(
      Cached<Conjunction>(cache, Question::Simplify(c, CanonicalLevel::kCheap))
          .has_value());

  Conjunction simplified;  // TRUE — visibly different from c
  Put(cache, Question::Simplify(c, CanonicalLevel::kCheap), simplified);
  EXPECT_FALSE(Cached<Conjunction>(
                   cache, Question::Simplify(c, CanonicalLevel::kRedundancy))
                   .has_value());
  std::optional<Conjunction> cheap = Cached<Conjunction>(
      cache, Question::Simplify(c, CanonicalLevel::kCheap));
  ASSERT_TRUE(cheap.has_value());
  EXPECT_EQ(*cheap, simplified);
}

// Capacity 0 disables the cache: every question computes, nothing stays.
TEST(SolverCacheProperty, ZeroCapacityDisables) {
  SolverCache cache(0);
  Lcg rng(11);
  Conjunction c = RandomConjunction(rng);
  Put(cache, Question::Sat(c), true);
  EXPECT_FALSE(Cached<bool>(cache, Question::Sat(c)).has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

// Shrinking capacity evicts down to the new bound; Clear() empties but
// keeps the bound.
TEST(SolverCacheProperty, ShrinkAndClear) {
  SolverCache cache(256);
  Lcg rng(21);
  std::vector<Conjunction> inputs;
  while (inputs.size() < 64) {
    Conjunction c = RandomConjunction(rng);
    bool dup = false;
    for (const Conjunction& seen : inputs) {
      if (seen == c) dup = true;
    }
    if (!dup) inputs.push_back(std::move(c));
  }
  for (const Conjunction& c : inputs) Put(cache, Question::Sat(c), true);
  EXPECT_GT(cache.stats().size, 16u);

  cache.set_capacity(16);
  EXPECT_LE(cache.stats().size, size_t{16});
  EXPECT_GT(cache.stats().evictions, 0u);

  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.capacity(), size_t{16});
}

// Stats sanity: one miss then one hit, and HitRate reflects them.
TEST(SolverCacheProperty, StatsCountTraffic) {
  SolverCache cache(64);
  Lcg rng(31);
  Conjunction c = RandomConjunction(rng);
  Put(cache, Question::Sat(c), false);
  EXPECT_EQ(Cached<bool>(cache, Question::Sat(c)), std::optional<bool>(false));
  SolverCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  EXPECT_FALSE(stats.ToString().empty());
}

// A question is hashed exactly once per Memoize, on a miss (which also
// stores the answer) and on a hit alike, governed or not.
TEST(SolverCacheProperty, MemoizeHashesEachQuestionOnce) {
  SolverCache cache(64);
  size_t hashes = 0;
  cache.SetHashOverrideForTesting([&hashes](size_t h) {
    ++hashes;
    return h;
  });
  Lcg rng(41);
  Conjunction c = RandomConjunction(rng);
  Dnf rhs(RandomConjunction(rng));

  Put(cache, Question::Sat(c), true);  // miss + store
  EXPECT_EQ(hashes, 1u);
  EXPECT_EQ(Cached<bool>(cache, Question::Sat(c)), std::optional<bool>(true));
  EXPECT_EQ(hashes, 2u);

  exec::GovernorLimits limits;
  limits.max_pivots = 1000;
  exec::CancellationToken token(limits);
  exec::GovernorScope scope(&token);
  Put(cache, Question::Entails(c, rhs), false);  // governed miss + store
  EXPECT_EQ(hashes, 3u);
  EXPECT_EQ(Cached<bool>(cache, Question::Entails(c, rhs)),
            std::optional<bool>(false));
  EXPECT_EQ(hashes, 4u);

  cache.SetHashOverrideForTesting(nullptr);
}

}  // namespace
}  // namespace lyric
