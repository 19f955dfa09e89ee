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

void AppendRational(const Rational& r, std::string* out) {
  r.num().AppendBytes(out);
  r.den().AppendBytes(out);
}

void AppendConjunction(const Conjunction& c, std::string* out) {
  AppendVarint(c.size(), out);
  for (const LinearConstraint& atom : c.atoms()) {
    out->push_back(static_cast<char>(atom.op()));
    const LinearExpr& lhs = atom.lhs();
    AppendVarint(lhs.terms().size(), out);
    for (const auto& [var, coeff] : lhs.terms()) {
      AppendVarint(var, out);
      AppendRational(coeff, out);
    }
    AppendRational(lhs.constant(), out);
  }
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

void SolverCache::EncodeKey(const Question& q, std::string* out) {
  out->push_back(static_cast<char>(q.kind));
  if (q.kind == Kind::kCanonical) out->push_back(static_cast<char>(q.level));
  AppendConjunction(q.lhs, out);
  if (q.kind == Kind::kEntails) {
    AppendVarint(q.rhs->size(), out);
    for (const Conjunction& d : q.rhs->disjuncts()) AppendConjunction(d, out);
  }
}

std::string& SolverCache::ScratchKey() {
  thread_local std::string scratch;
  scratch.clear();
  return scratch;
}

size_t SolverCache::HashKey(std::string_view key) const {
  size_t h = std::hash<std::string_view>{}(key);
  if (hash_override_) h = hash_override_(h);
  return h;
}

SolverCache::Shard& SolverCache::ShardFor(size_t hash) {
  // Fibonacci hashing: every hash bit feeds the top bits of the product,
  // which pick the shard; the shard's map buckets by the low bits.
  static_assert(kShards == 16, "the shard is the mixed hash's top 4 bits");
  return shards_[(static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >> 60];
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
  constexpr size_t kPerAnswerAtom = 64;
  size_t extra = 0;
  if (const auto* canonical = std::get_if<Conjunction>(&entry.payload)) {
    extra = canonical->size() * kPerAnswerAtom;
  } else if (const auto* tomb = std::get_if<Tombstone>(&entry.payload)) {
    extra = tomb->site.size();
  }
  return sizeof(Entry) + entry.key.size() + extra;
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
    shard.index.erase(KeyRef{last->key, last->hash});
    shard.lru.erase(last);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    LYRIC_OBS_COUNT("solver_cache.evictions");
  }
}

SolverCache::Entry* SolverCache::FindLocked(Shard& shard,
                                            std::string_view key,
                                            size_t hash) {
  auto found = shard.index.find(KeyRef{key, hash});
  if (found == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
  return &*found->second;
}

template <class T>
std::optional<Result<T>> SolverCache::Probe(Kind kind, std::string_view key,
                                            size_t hash) {
  if (CacheFault()) return std::nullopt;
  Shard& shard = ShardFor(hash);
  sync::MutexLock lock(shard.mu);
  if (Entry* e = FindLocked(shard, key, hash)) {
    if (const T* answer = std::get_if<T>(&e->payload)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      LYRIC_OBS_COUNT("solver_cache.hits");
      switch (kind) {
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

template std::optional<Result<bool>> SolverCache::Probe<bool>(
    Kind, std::string_view, size_t);
template std::optional<Result<Conjunction>> SolverCache::Probe<Conjunction>(
    Kind, std::string_view, size_t);

void SolverCache::StoreTombstone(std::string key, size_t hash) {
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
  if (Store(std::move(key), hash,
            Tombstone{kind, *limit, token->Report().site})) {
    LYRIC_OBS_COUNT("cache.tombstone.stored");
  }
}

bool SolverCache::Store(std::string key, size_t hash, Payload payload) {
  if (CacheFault()) return false;
  Shard& shard = ShardFor(hash);
  {
    sync::MutexLock lock(shard.mu);
    if (Entry* existing = FindLocked(shard, key, hash)) {
      Account(*existing, -1);
      existing->payload = std::move(payload);
      Account(*existing, +1);
    } else {
      shard.lru.push_front(Entry{std::move(key), hash, std::move(payload)});
      const Entry& entry = shard.lru.front();
      shard.index.emplace(KeyRef{entry.key, hash}, shard.lru.begin());
      Account(entry, +1);
      EvictLocked(shard, PerShardCapacity());
    }
  }
  PublishGauges();
  return true;
}

}  // namespace lyric
