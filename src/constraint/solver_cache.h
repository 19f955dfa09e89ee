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
// through one entry point, Memoize(question, compute). It encodes the
// question once into an exact byte key (EncodeKey; a 4 + 4 atom
// entailment question is 92 bytes), probes its shard once, runs `compute`
// only on a miss, and records what `compute` returned: a verdict on
// success, a governor-budget tombstone (below) on a ResourceExhausted
// trip. A hit allocates nothing; the key bytes are copied only on a miss.
// Equal keys mean structurally equal questions, so a lookup compares
// bytes and hash collisions can never change an answer. VarIds are kept
// verbatim, which is exact: two structurally equal conjunctions denote
// the same point set, so every cached verdict is deterministic and
// thread-agnostic.
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
// The cache is sharded (one mutex each; the shard is picked from the
// multiplicatively mixed key hash, so keys spread evenly) so concurrent
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
#include <string_view>
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

  /// Appends `q`'s key to `out`: kind, level (kCanonical only), then per
  /// conjunction its atom count and per atom the relop, term count,
  /// (VarId, coefficient) pairs and constant; counts are varints. The
  /// layout is prefix-free, so keys are equal exactly when the questions
  /// are structurally equal.
  static void EncodeKey(const Question& q, std::string* out);

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
    std::string& scratch = ScratchKey();
    EncodeKey(q, &scratch);
    const size_t hash = HashKey(scratch);
    if (std::optional<Result<T>> served = Probe<T>(q.kind, scratch, hash)) {
      return *std::move(served);
    }
    // `compute` may re-enter Memoize and reuse the scratch buffer.
    std::string key = scratch;
    Result<T> out = compute();
    if (out.ok()) {
      Store(std::move(key), hash, Payload(*out));
    } else if (out.status().IsResourceExhausted()) {
      StoreTombstone(std::move(key), hash);
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

  /// Test seam: maps every key hash through `fn` before bucketing (e.g. a
  /// constant function forces all keys into one shard and bucket,
  /// exercising the byte comparison). Pass nullptr to restore. Not for
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
    std::string key;  // EncodeKey bytes.
    size_t hash = 0;  // HashKey(key), possibly overridden.
    Payload payload;
  };

  /// Key bytes (an entry's, or the probing thread's scratch) and hash.
  struct KeyRef {
    std::string_view bytes;
    size_t hash;
    bool operator==(const KeyRef& o) const { return bytes == o.bytes; }
  };
  struct KeyRefHash {
    size_t operator()(const KeyRef& k) const { return k.hash; }
  };

  struct Shard {
    /// Shard locks never nest with each other (one shard per operation);
    /// tombstone hits take the governor site lock under them, hence the
    /// rank ordering kCacheShard < kGovernor.
    mutable sync::Mutex mu{sync::LockRank::kCacheShard, "cache_shard"};
    /// Front = most recently used.
    std::list<Entry> lru LYRIC_GUARDED_BY(mu);
    std::unordered_map<KeyRef, std::list<Entry>::iterator, KeyRefHash> index
        LYRIC_GUARDED_BY(mu);
  };

  static constexpr size_t kShards = 16;

  /// The calling thread's key buffer, cleared.
  static std::string& ScratchKey();
  /// The hash of `key`'s bytes, mapped through the test override.
  size_t HashKey(std::string_view key) const;
  Shard& ShardFor(size_t hash);
  size_t PerShardCapacity() const;

  /// One shard probe: the cached answer, the replayed trip of a tombstone
  /// that dooms the ambient budget, or nullopt on a miss.
  template <class T>
  std::optional<Result<T>> Probe(Kind kind, std::string_view key,
                                 size_t hash);
  /// Records a tombstone for `key` if the ambient token tripped a budget.
  void StoreTombstone(std::string key, size_t hash);
  /// Inserts (or overwrites) the entry for `key`, evicting LRU entries
  /// past capacity; false when an injected cache fault drops the store.
  bool Store(std::string key, size_t hash, Payload payload);

  /// Returns the entry for `key` in its shard (moving it to the LRU
  /// front) or nullptr.
  Entry* FindLocked(Shard& shard, std::string_view key, size_t hash)
      LYRIC_REQUIRES(shard.mu);
  /// Evicts LRU entries until the shard holds at most `per`.
  void EvictLocked(Shard& shard, size_t per) LYRIC_REQUIRES(shard.mu);

  /// Footprint of one entry for the occupancy gauge: the entry, its key
  /// bytes and a flat per-atom estimate for a canonical answer.
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
