#include "constraint/solver_cache.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace lyric {

namespace {

// Simulated cache failure: lookups miss and stores drop. Safe by
// construction — every caller treats a miss as "recompute" — so the
// fault gate can hammer this site and only performance may change.
bool CacheFault() {
  return fault::Enabled() && fault::Inject(fault::kSiteSolverCache);
}

size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

double SolverCache::Stats::HitRate() const {
  uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

std::string SolverCache::Stats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "hits=%llu misses=%llu hit_rate=%.3f evictions=%llu "
                "size=%zu/%zu",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                HitRate(), static_cast<unsigned long long>(evictions), size,
                capacity);
  return buf;
}

SolverCache& SolverCache::Global() {
  static SolverCache* cache = new SolverCache(
      static_cast<size_t>(EnvUint64("LYRIC_CACHE_CAPACITY").value_or(4096)));
  return *cache;
}

SolverCache::SolverCache(size_t capacity) : capacity_(capacity) {}

bool SolverCache::Entry::Answers(const Question& q) const {
  if (kind != q.kind) return false;
  if (kind == Kind::kCanonical && level != q.level) return false;
  if (!(lhs == q.lhs)) return false;
  if (kind == Kind::kEntails && !(rhs == *q.rhs)) return false;
  return true;
}

size_t SolverCache::BucketHash(const Question& q) const {
  size_t h = static_cast<size_t>(q.kind) * 0x2545f4914f6cdd1dull;
  if (q.kind == Kind::kCanonical) {
    h = HashCombine(h, static_cast<size_t>(q.level));
  }
  h = HashCombine(h, q.lhs.Hash());
  if (q.kind == Kind::kEntails) h = HashCombine(h, q.rhs->Hash());
  if (hash_override_) h = hash_override_(h);
  return h;
}

SolverCache::Shard& SolverCache::ShardFor(size_t hash) {
  // The low bits pick the bucket inside the shard map; mix the high bits
  // into the shard choice so both spread.
  return shards_[(hash >> 48) % kShards];
}

size_t SolverCache::PerShardCapacity() const {
  size_t cap = capacity();
  if (cap == 0) return 0;
  size_t per = cap / kShards;
  return per == 0 ? 1 : per;
}

void SolverCache::set_capacity(size_t capacity) {
  capacity_.store(capacity, std::memory_order_relaxed);
  size_t per = PerShardCapacity();
  for (Shard& shard : shards_) {
    sync::MutexLock lock(shard.mu);
    EvictLocked(shard, per);
  }
  PublishGauges();
}

void SolverCache::Clear() {
  for (Shard& shard : shards_) {
    sync::MutexLock lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
  entries_.store(0, std::memory_order_relaxed);
  tombstones_.store(0, std::memory_order_relaxed);
  approx_bytes_.store(0, std::memory_order_relaxed);
  PublishGauges();
}

size_t SolverCache::ApproxEntryBytes(const Entry& entry) {
  // Per-atom footprint is dominated by the LinearExpr term vector and two
  // arbitrary-precision rationals; 64 bytes is a workable flat estimate.
  constexpr size_t kPerAtom = 64;
  size_t atoms = entry.lhs.size();
  for (const Conjunction& d : entry.rhs.disjuncts()) atoms += d.size();
  size_t extra = 0;
  if (const auto* canonical = std::get_if<Conjunction>(&entry.payload)) {
    atoms += canonical->size();
  } else if (const auto* tomb = std::get_if<Tombstone>(&entry.payload)) {
    extra = tomb->site.size();
  }
  return sizeof(Entry) + atoms * kPerAtom + extra;
}

void SolverCache::Account(const Entry& entry, int sign) {
  // Unsigned wrap-around: adding static_cast<size_t>(-1) * n subtracts n.
  const size_t unit = static_cast<size_t>(static_cast<ptrdiff_t>(sign));
  entries_.fetch_add(unit, std::memory_order_relaxed);
  if (std::holds_alternative<Tombstone>(entry.payload)) {
    tombstones_.fetch_add(unit, std::memory_order_relaxed);
  }
  approx_bytes_.fetch_add(unit * ApproxEntryBytes(entry),
                          std::memory_order_relaxed);
}

void SolverCache::PublishGauges() const {
  // Only the global instance feeds the process-wide gauges; short-lived
  // per-test caches must not clobber its occupancy numbers.
  static const SolverCache* global = &Global();
  if (this != global) return;
  obs::Registry& reg = obs::Registry::Global();
  static obs::Gauge& entries_gauge = reg.GetGauge("solver_cache.entries");
  static obs::Gauge& bytes_gauge =
      reg.GetGauge("solver_cache.approx_bytes");
  static obs::Gauge& tombstones_gauge =
      reg.GetGauge("solver_cache.tombstones");
  entries_gauge.Set(
      static_cast<int64_t>(entries_.load(std::memory_order_relaxed)));
  bytes_gauge.Set(
      static_cast<int64_t>(approx_bytes_.load(std::memory_order_relaxed)));
  tombstones_gauge.Set(
      static_cast<int64_t>(tombstones_.load(std::memory_order_relaxed)));
}

SolverCache::Stats SolverCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.tombstone_hits = tombstone_hits_.load(std::memory_order_relaxed);
  out.size = entries_.load(std::memory_order_relaxed);
  out.capacity = capacity();
  return out;
}

void SolverCache::SetHashOverrideForTesting(
    std::function<size_t(size_t)> fn) {
  Clear();
  hash_override_ = std::move(fn);
}

void SolverCache::EvictLocked(Shard& shard, size_t per) {
  while (shard.lru.size() > per) {
    auto last = std::prev(shard.lru.end());
    Account(*last, -1);
    auto bucket = shard.index.find(last->hash);
    std::vector<std::list<Entry>::iterator>& chain = bucket->second;
    chain.erase(std::find(chain.begin(), chain.end(), last));
    if (chain.empty()) shard.index.erase(bucket);
    shard.lru.erase(last);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    LYRIC_OBS_COUNT("solver_cache.evictions");
  }
}

SolverCache::Entry* SolverCache::FindLocked(Shard& shard, const Question& q,
                                            size_t hash) {
  auto bucket = shard.index.find(hash);
  if (bucket == shard.index.end()) return nullptr;
  for (auto it : bucket->second) {
    // Structural equality guards against hash collisions: an equal hash
    // with a different formula must never serve a cached verdict.
    if (it->Answers(q)) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it);
      return &*it;
    }
  }
  return nullptr;
}

template <class T>
std::optional<Result<T>> SolverCache::Probe(const Question& q, size_t hash) {
  if (CacheFault()) return std::nullopt;
  Shard& shard = ShardFor(hash);
  sync::MutexLock lock(shard.mu);
  if (Entry* e = FindLocked(shard, q, hash)) {
    if (const T* answer = std::get_if<T>(&e->payload)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      LYRIC_OBS_COUNT("solver_cache.hits");
      switch (q.kind) {
        case Kind::kSat:
          LYRIC_OBS_COUNT("solver_cache.sat_hits");
          break;
        case Kind::kCanonical:
          LYRIC_OBS_COUNT("solver_cache.canonical_hits");
          break;
        case Kind::kEntails:
          LYRIC_OBS_COUNT("solver_cache.entailment_hits");
          break;
      }
      return Result<T>(*answer);
    }
    // A tombstone serves governed runs only: ungoverned ones are entitled
    // to the full (unbounded) computation. Only budgets at or below the
    // one that tripped are doomed; a larger (or unlimited) one retries.
    const Tombstone* tomb = std::get_if<Tombstone>(&e->payload);
    exec::CancellationToken* token = exec::GovernorScope::Current();
    if (tomb != nullptr && token != nullptr) {
      std::optional<uint64_t> limit = token->LimitFor(tomb->kind);
      if (limit.has_value() && *limit <= tomb->limit) {
        token->ForceTrip(tomb->kind, tomb->site.c_str());
        tombstone_hits_.fetch_add(1, std::memory_order_relaxed);
        LYRIC_OBS_COUNT("cache.tombstone.hit");
        return Result<T>(token->ToStatus());
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  LYRIC_OBS_COUNT("solver_cache.misses");
  return std::nullopt;
}

template std::optional<Result<bool>> SolverCache::Probe<bool>(const Question&,
                                                              size_t);
template std::optional<Result<Conjunction>> SolverCache::Probe<Conjunction>(
    const Question&, size_t);

void SolverCache::StoreTombstone(const Question& q, size_t hash) {
  exec::CancellationToken* token = exec::GovernorScope::Current();
  if (token == nullptr) return;
  const exec::LimitKind kind = token->tripped_kind();
  // Budget trips only: wall-clock (deadline) cost is a property of the
  // machine's load, not of the key, so it is never tombstoned.
  if (kind != exec::LimitKind::kMemory && kind != exec::LimitKind::kPivots &&
      kind != exec::LimitKind::kDisjuncts) {
    return;
  }
  std::optional<uint64_t> limit = token->LimitFor(kind);
  if (!limit.has_value()) return;
  if (Store(q, hash, Tombstone{kind, *limit, token->Report().site})) {
    LYRIC_OBS_COUNT("cache.tombstone.stored");
  }
}

bool SolverCache::Store(const Question& q, size_t hash, Payload payload) {
  if (CacheFault()) return false;
  Shard& shard = ShardFor(hash);
  {
    sync::MutexLock lock(shard.mu);
    if (Entry* existing = FindLocked(shard, q, hash)) {
      Account(*existing, -1);
      existing->payload = std::move(payload);
      Account(*existing, +1);
    } else {
      shard.lru.push_front(Entry{q.kind, q.level, q.lhs,
                                 q.rhs != nullptr ? *q.rhs : Dnf(), hash,
                                 std::move(payload)});
      shard.index[hash].push_back(shard.lru.begin());
      Account(shard.lru.front(), +1);
      EvictLocked(shard, PerShardCapacity());
    }
  }
  PublishGauges();
  return true;
}

}  // namespace lyric
