// A sharded, size-bounded memo cache for solver answers.
//
// The alibi-query case study (Othman, Kuijpers & Grimson; PAPERS.md) shows
// quantifier-elimination and satisfiability cost dominating real
// constraint-database workloads, and LyriC evaluation re-asks the same
// questions constantly: every candidate binding conjoins the same stored
// CST bodies with a per-object location, and entailment's DPLL case split
// re-probes overlapping conjunctions. This cache memoizes the three pure
// solver questions:
//
//   * simplex satisfiability  Question::Sat(c)              -> bool
//   * canonical forms         Question::Simplify(c, level)  -> Conjunction
//   * entailment              Question::Entails(lhs, rhs)   -> bool
//
// through one entry point, Memoize(question, compute). It hashes the
// question once, probes its shard once, runs `compute` only on a miss, and
// records what `compute` returned: a verdict on success, a governor-budget
// tombstone (below) on a ResourceExhausted trip. A Question refers to the
// caller's constraint objects; they are copied only when an entry is
// stored.
//
// Keys are the structural hash of the constraint objects; a hash hit
// always falls back to full structural equality before a cached value is
// returned, so hash collisions can never change an answer. Entries are
// interned VarId-based, which is exact: two structurally equal
// conjunctions denote the same point set, so every cached verdict is
// deterministic and thread-agnostic.
//
// Governor-aware tombstones: a governed computation that trips a resource
// budget (memory / pivots / disjuncts) records a "too expensive" tombstone
// instead of a verdict. A later *governed* Memoize whose budget for that
// limit is no larger fails fast without calling `compute`: the tombstone
// replays the original trip (same LimitKind, same site — hence a
// byte-identical trip Status) on the ambient token. Ungoverned runs and
// runs with a strictly larger budget ignore tombstones and recompute; a
// successful computation overwrites the tombstone (same key). Deadline
// trips are never tombstoned — wall-clock cost depends on machine load,
// not the key. Tombstones live in the LRU and evict like normal entries.
//
// The cache is sharded (hash-picked shard, one mutex each) so concurrent
// evaluator workers rarely contend, and size-bounded with per-shard LRU
// eviction. Traffic feeds the obs metrics registry ("solver_cache.hits",
// ".misses", ".evictions", per-kind "*_hits", "cache.tombstone.hit" and
// ".stored") and occupancy the "solver_cache.entries", ".approx_bytes"
// and ".tombstones" gauges; lyric_shell's `.cache` prints stats().

#ifndef LYRIC_CONSTRAINT_SOLVER_CACHE_H_
#define LYRIC_CONSTRAINT_SOLVER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "constraint/canonical.h"
#include "constraint/dnf.h"
#include "exec/governor.h"
#include "util/result.h"
#include "util/sync.h"

namespace lyric {

/// Memoizes solver answers keyed by constraint structure. Thread-safe.
class SolverCache {
 public:
  /// Aggregate occupancy and traffic counters.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t tombstone_hits = 0;
    size_t size = 0;
    size_t capacity = 0;

    /// hits / (hits + misses), 0 when idle.
    double HitRate() const;
    /// "hits=... misses=... hit_rate=... evictions=... size=.../cap".
    std::string ToString() const;
  };

  enum class Kind : uint8_t { kSat, kCanonical, kEntails };

  /// One memoizable solver question. Borrows the caller's constraint
  /// objects, which must outlive the Memoize call.
  struct Question {
    static Question Sat(const Conjunction& c) {
      return {Kind::kSat, CanonicalLevel::kSyntactic, c, nullptr};
    }
    static Question Simplify(const Conjunction& c, CanonicalLevel level) {
      return {Kind::kCanonical, level, c, nullptr};
    }
    static Question Entails(const Conjunction& lhs, const Dnf& rhs) {
      return {Kind::kEntails, CanonicalLevel::kSyntactic, lhs, &rhs};
    }

    Kind kind;
    CanonicalLevel level;  // Meaningful for kCanonical only.
    const Conjunction& lhs;
    const Dnf* rhs;  // kEntails only.
  };

  /// The process-wide cache consulted by Simplex/Canonical/Entailment.
  /// Initial capacity comes from the LYRIC_CACHE_CAPACITY environment
  /// variable (entries; 0 disables), defaulting to 4096.
  static SolverCache& Global();

  /// A cache bounded at `capacity` entries (0 = disabled: every Memoize
  /// computes, nothing is stored). The bound is enforced per shard, so
  /// capacities below the shard count floor at one entry per shard: the
  /// effective bound is max(capacity, kShards).
  explicit SolverCache(size_t capacity);

  SolverCache(const SolverCache&) = delete;
  SolverCache& operator=(const SolverCache&) = delete;

  /// Answers `q` from the cache, or by `compute` (a callable returning
  /// Result<T>) on a miss, recording its outcome. T is bool for kSat and
  /// kEntails questions, Conjunction for kCanonical ones. Returns the
  /// replayed trip without calling `compute` when a tombstone dooms the
  /// ambient governor's budget.
  template <class T, class Fn>
  Result<T> Memoize(const Question& q, Fn&& compute) {
    static_assert(std::is_same_v<T, bool> || std::is_same_v<T, Conjunction>);
    if (!enabled()) return compute();
    const size_t hash = BucketHash(q);
    if (std::optional<Result<T>> served = Probe<T>(q, hash)) {
      return *std::move(served);
    }
    Result<T> out = compute();
    if (out.ok()) {
      Store(q, hash, Payload(*out));
    } else if (out.status().IsResourceExhausted()) {
      StoreTombstone(q, hash);
    }
    return out;
  }

  /// Re-bounds the cache; shrinking evicts LRU entries to fit, capacity 0
  /// clears and disables.
  void set_capacity(size_t capacity);
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  bool enabled() const { return capacity() > 0; }

  /// Drops every entry (capacity is kept).
  void Clear();

  /// Lifetime traffic and current occupancy, read from atomics without
  /// touching the shard locks. The evaluator samples it before and after
  /// each query to attribute hit/miss/tombstone deltas to its log record.
  Stats stats() const;

  /// Test seam: maps every structural hash through `fn` before bucketing
  /// (e.g. a constant function forces all keys to collide, exercising the
  /// structural-equality fallback). Pass nullptr to restore. Not for
  /// concurrent use with active lookups.
  void SetHashOverrideForTesting(std::function<size_t(size_t)> fn);

 private:
  /// A recorded budget trip, replayed verbatim on a doomed lookup.
  struct Tombstone {
    exec::LimitKind kind = exec::LimitKind::kNone;
    uint64_t limit = 0;  ///< The budget value that tripped.
    std::string site;    ///< First trip site.
  };
  using Payload = std::variant<bool, Conjunction, Tombstone>;

  struct Entry {
    Kind kind;
    CanonicalLevel level;
    Conjunction lhs;
    Dnf rhs;
    size_t hash = 0;  // Possibly overridden; the bucket key.
    Payload payload;

    bool Answers(const Question& q) const;
  };

  struct Shard {
    /// Shard locks never nest with each other (one shard per operation);
    /// tombstone hits take the governor site lock under them, hence the
    /// rank ordering kCacheShard < kGovernor.
    mutable sync::Mutex mu{sync::LockRank::kCacheShard, "cache_shard"};
    /// Front = most recently used.
    std::list<Entry> lru LYRIC_GUARDED_BY(mu);
    /// Structural hash -> entries with that hash (collision chain).
    std::unordered_map<size_t, std::vector<std::list<Entry>::iterator>> index
        LYRIC_GUARDED_BY(mu);
  };

  static constexpr size_t kShards = 16;

  size_t BucketHash(const Question& q) const;
  Shard& ShardFor(size_t hash);
  size_t PerShardCapacity() const;

  /// One shard probe: the cached answer, the replayed trip of a tombstone
  /// that dooms the ambient budget, or nullopt on a miss.
  template <class T>
  std::optional<Result<T>> Probe(const Question& q, size_t hash);
  /// Records a tombstone for `q` if the ambient token tripped a budget.
  void StoreTombstone(const Question& q, size_t hash);
  /// Inserts (or overwrites) the entry for `q`, evicting LRU entries past
  /// capacity; false when an injected cache fault drops the store. The
  /// only place a question's constraints are copied.
  bool Store(const Question& q, size_t hash, Payload payload);

  /// Returns the entry answering `q` in its shard (moving it to the LRU
  /// front) or nullptr.
  Entry* FindLocked(Shard& shard, const Question& q, size_t hash)
      LYRIC_REQUIRES(shard.mu);
  /// Evicts LRU entries until the shard holds at most `per`.
  void EvictLocked(Shard& shard, size_t per) LYRIC_REQUIRES(shard.mu);

  /// Rough heap footprint of one entry, for the occupancy gauge (exact
  /// accounting would walk every rational; the atom count dominates).
  static size_t ApproxEntryBytes(const Entry& entry);
  /// Enters `entry` into (+1) or retires it from (-1) the occupancy
  /// accounting.
  void Account(const Entry& entry, int sign);
  /// Pushes the occupancy atomics into the "solver_cache.*" gauges.
  void PublishGauges() const;

  std::atomic<size_t> capacity_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> tombstone_hits_{0};
  // Occupancy, maintained at every insert/overwrite/evict/clear so stats()
  // and the gauges never need the shard locks.
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> tombstones_{0};
  std::atomic<size_t> approx_bytes_{0};
  std::function<size_t(size_t)> hash_override_;
  Shard shards_[kShards];
};

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_SOLVER_CACHE_H_
