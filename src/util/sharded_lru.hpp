#pragma once
// ShardedLruCache: byte-budgeted, single-flight, sharded LRU cache — the
// residency policy of the multi-tenant model registry (DESIGN.md §12).
//
// A fleet server hosts thousands of tenant artifacts but only a budgeted
// subset fits in memory. The cache answers three needs at once:
//
//   * sharded lookup — the hot path (a resident hit) takes ONE shard mutex
//     keyed by the hash of the key, so concurrent submitters for different
//     tenants do not serialize on a global cache lock;
//   * single-flight loading — the first request for a cold key runs the
//     loader; every concurrent request for the same key waits on the same
//     shared_future and gets the one loaded value (a thundering herd on a
//     just-deployed tenant loads its artifact once, not once per request).
//     A loader FAILURE is delivered to every waiter of that flight but is
//     never cached: the next request retries the load;
//   * byte-budget LRU eviction — each value carries a byte cost; when an
//     insert would exceed the budget, least-recently-used values are dropped
//     first. Values are handed out as shared_ptr, so eviction only drops the
//     cache's reference — a consumer mid-request keeps its value alive until
//     it finishes (the registry's "in-flight batches pin their snapshot"
//     guarantee rides on exactly this).
//
// Recency is a global atomic stamp (not per-shard lists): ready entries are
// stamped on every hit, and the evictor scans shard maps for the smallest
// stamp. Eviction is O(resident) per victim — residency is bounded by the
// budget (tens to hundreds of models), and evictions happen at artifact-load
// rate, not request rate, so the scan is noise next to one deserialization.
//
// Budget invariant: accounted bytes never exceed the budget while more than
// one value is resident. A single value larger than the whole budget is
// still admitted (alone) — refusing it would make one oversized tenant
// permanently unservable; it simply evicts everything else.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace smore {

/// Counters + gauges of one cache (all since construction).
struct ShardedLruStats {
  std::uint64_t hits = 0;        ///< resident lookups
  std::uint64_t misses = 0;      ///< lookups that started a load
  std::uint64_t loads = 0;       ///< loader successes
  std::uint64_t load_failures = 0;  ///< loader throws (never cached)
  std::uint64_t evictions = 0;   ///< values dropped by the budget
  std::uint64_t single_flight_waits = 0;  ///< lookups that joined a flight
  std::size_t resident = 0;         ///< values currently cached
  std::size_t resident_bytes = 0;   ///< accounted bytes currently cached
  std::size_t peak_resident_bytes = 0;  ///< high-water mark of the above
};

/// Bounded sharded LRU with single-flight loads. Keys are strings; values
/// are shared (eviction never invalidates a handed-out pointer).
template <typename Value>
class ShardedLruCache {
 public:
  struct Config {
    std::size_t shards = 8;  ///< lock shards (clamped to >= 1)
    /// Eviction threshold over the sum of per-value byte costs.
    std::size_t byte_budget = std::numeric_limits<std::size_t>::max();
    /// Observer invoked once per budget eviction with (key, freed bytes),
    /// AFTER the victim left the map. Runs under the budget lock with no
    /// shard mutex held; it must not call back into this cache. erase() does
    /// not fire it (an operator drop is not a budget eviction).
    std::function<void(const std::string&, std::size_t)> on_evict;
  };

  /// Loader: key -> (value, byte cost). Run outside all cache locks; may
  /// throw (the exception reaches every waiter of that flight).
  using Loader =
      std::function<std::pair<std::shared_ptr<Value>, std::size_t>(
          const std::string&)>;

  explicit ShardedLruCache(Config config = {}) : config_(config) {
    shards_.resize(std::max<std::size_t>(1, config_.shards));
    for (auto& s : shards_) s = std::make_unique<Shard>();
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Resident value or, when cold, the single-flight load of one. Blocks
  /// only on a load (its own or a joined flight). Rethrows the loader's
  /// exception; the failed key stays cold (the next call retries).
  std::shared_ptr<Value> get_or_load(const std::string& key,
                                     const Loader& loader) {
    Shard& shard = shard_of(key);
    std::shared_ptr<Slot> slot;
    std::shared_future<std::shared_ptr<Value>> flight;
    {
      const MutexLock lock(shard.m);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        slot = it->second;
        if (!slot->loading) {
          slot->stamp = next_stamp();
          hits_.fetch_add(1, std::memory_order_relaxed);
          return slot->value;
        }
        flight = slot->flight;  // join the in-progress load
      } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
        slot = std::make_shared<Slot>();
        slot->flight = slot->promise.get_future().share();
        shard.map.emplace(key, slot);
      }
    }
    if (flight.valid()) {
      single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
      return flight.get();  // value, or the loader's rethrown exception
    }
    return run_load(shard, key, std::move(slot), loader);
  }

  /// Resident value without loading (and without counting a hit/miss);
  /// nullptr when cold or still loading. Bumps recency on a hit — callers
  /// peek because they are about to use the value.
  [[nodiscard]] std::shared_ptr<Value> peek(const std::string& key) {
    Shard& shard = shard_of(key);
    const MutexLock lock(shard.m);
    auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second->loading) return nullptr;
    it->second->stamp = next_stamp();
    return it->second->value;
  }

  /// Drop a resident value (no-op on cold keys; a key mid-load is left
  /// alone — its flight completes and caches normally). Returns whether a
  /// value was dropped. Not counted as an eviction (see stats()).
  bool erase(const std::string& key) {
    Shard& shard = shard_of(key);
    std::size_t freed = 0;
    {
      const MutexLock lock(shard.m);
      auto it = shard.map.find(key);
      if (it == shard.map.end() || it->second->loading) return false;
      freed = it->second->bytes;
      shard.map.erase(it);
    }
    resident_bytes_.fetch_sub(freed, std::memory_order_relaxed);
    resident_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  [[nodiscard]] std::size_t size() const {
    return resident_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  [[nodiscard]] ShardedLruStats stats() const {
    ShardedLruStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.loads = loads_.load(std::memory_order_relaxed);
    s.load_failures = load_failures_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.single_flight_waits =
        single_flight_waits_.load(std::memory_order_relaxed);
    s.resident = resident_.load(std::memory_order_relaxed);
    s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
    s.peak_resident_bytes =
        peak_resident_bytes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  // Slot state is guarded by the OWNING shard's mutex — an external guard a
  // GUARDED_BY attribute cannot name (slots do not point back at their
  // shard), so the contract is enforced by construction instead: every
  // slot access in this class sits inside a MutexLock(shard.m) block, and
  // DESIGN.md §15 records the exception. `promise`/`flight` are touched
  // lock-free only by the one flight owner (run_load) and by waiters through
  // the shared_future's own synchronization.
  struct Slot {
    std::shared_ptr<Value> value;  // set when loading flips to false
    std::size_t bytes = 0;
    std::uint64_t stamp = 0;  // guarded by the owning shard's mutex
    bool loading = true;
    std::promise<std::shared_ptr<Value>> promise;
    std::shared_future<std::shared_ptr<Value>> flight;
  };
  struct Shard {
    Mutex m;
    std::unordered_map<std::string, std::shared_ptr<Slot>> map
        SMORE_GUARDED_BY(m);
  };

  Shard& shard_of(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  std::uint64_t next_stamp() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// This thread owns the flight in `slot`. Lock order everywhere:
  /// budget_m_ before shard mutexes, never the reverse.
  std::shared_ptr<Value> run_load(Shard& shard, const std::string& key,
                                  std::shared_ptr<Slot> slot,
                                  const Loader& loader) {
    std::shared_ptr<Value> value;
    std::size_t bytes = 0;
    try {
      auto loaded = loader(key);
      value = std::move(loaded.first);
      bytes = loaded.second;
      if (value == nullptr) {
        throw std::runtime_error("ShardedLruCache: loader returned null");
      }
    } catch (...) {
      // Failure is delivered to every waiter but never cached: drop the
      // slot so the next request retries the load.
      {
        const MutexLock lock(shard.m);
        auto it = shard.map.find(key);
        if (it != shard.map.end() && it->second == slot) shard.map.erase(it);
      }
      load_failures_.fetch_add(1, std::memory_order_relaxed);
      slot->promise.set_exception(std::current_exception());
      throw;
    }

    {
      // Budget admission is serialized: evict-until-fit, the byte account
      // AND making the slot ready must be one step. Two concurrent loads
      // could otherwise both pass the check; and an admission that ran
      // between the account and the ready flip would find these bytes on a
      // still-loading (unevictable) slot and admit over budget.
      const MutexLock budget_lock(budget_m_);
      while (resident_bytes_.load(std::memory_order_relaxed) + bytes >
                 config_.byte_budget &&
             evict_lru_victim()) {
      }
      resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      resident_.fetch_add(1, std::memory_order_relaxed);
      std::size_t now = resident_bytes_.load(std::memory_order_relaxed);
      std::size_t peak = peak_resident_bytes_.load(std::memory_order_relaxed);
      while (now > peak && !peak_resident_bytes_.compare_exchange_weak(
                               peak, now, std::memory_order_relaxed)) {
      }
      const MutexLock lock(shard.m);  // lock order: budget, then shard
      slot->value = value;
      slot->bytes = bytes;
      slot->stamp = next_stamp();
      slot->loading = false;
    }
    loads_.fetch_add(1, std::memory_order_relaxed);
    slot->promise.set_value(value);
    return value;
  }

  /// Drop the ready value with the globally smallest recency stamp.
  /// Returns false when nothing is evictable (only loading slots, or
  /// empty) — the caller then admits over budget.
  bool evict_lru_victim() SMORE_REQUIRES(budget_m_) {
    Shard* victim_shard = nullptr;
    std::string victim_key;
    std::uint64_t victim_stamp = std::numeric_limits<std::uint64_t>::max();
    for (auto& shard : shards_) {
      const MutexLock lock(shard->m);
      for (const auto& [key, slot] : shard->map) {
        if (slot->loading) continue;
        if (slot->stamp < victim_stamp) {
          victim_stamp = slot->stamp;
          victim_key = key;
          victim_shard = shard.get();
        }
      }
    }
    if (victim_shard == nullptr) return false;
    std::size_t freed = 0;
    {
      const MutexLock lock(victim_shard->m);
      auto it = victim_shard->map.find(victim_key);
      // The victim may have been re-stamped or erased since the scan; that
      // only makes this eviction conservative (evict it anyway — it was the
      // LRU moments ago and the loop re-checks the budget).
      if (it == victim_shard->map.end() || it->second->loading) return true;
      freed = it->second->bytes;
      victim_shard->map.erase(it);
    }
    resident_bytes_.fetch_sub(freed, std::memory_order_relaxed);
    resident_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (config_.on_evict) config_.on_evict(victim_key, freed);
    return true;
  }

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Serializes eviction + byte accounting. Lock order everywhere: budget_m_
  // before shard mutexes, never the reverse (see run_load).
  Mutex budget_m_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> loads_{0};
  std::atomic<std::uint64_t> load_failures_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> single_flight_waits_{0};
  std::atomic<std::size_t> resident_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  std::atomic<std::size_t> peak_resident_bytes_{0};
};

}  // namespace smore
