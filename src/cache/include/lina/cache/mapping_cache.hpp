#pragma once

// Fixed-capacity loc/ID mapping cache for the resolution hot paths.
//
// Production loc/ID systems (LISP map-caches, DNS resolvers, Mobile-IP
// binding caches) do not pay a full resolution per session — they cache
// mappings and resolve only on misses. MappingCache is that component:
// a flat-arena, intrusively linked cache in the style of the arena tries
// (src/net/ip_trie.hpp): every slot, list link, frequency bucket and
// ghost entry lives in a contiguous vector addressed by 32-bit indices,
// keys are located by one open-addressed linear-probe table, and probe /
// insert / evict are all O(1) for every policy — no per-entry heap
// allocation, no rehashing after construction.
//
// Policies (see policy.hpp): TTL+LRU (the Coras-modeled baseline), exact
// O(1) LFU with frequency buckets, and the classic 2Q (FIFO probation +
// ghost queue + protected LRU). A disabled cache (policy off or capacity
// zero) holds no storage, always misses, and never counts anything; a
// simulator guards each of its cache steps on `enabled()`, so with a
// disabled cache every guard is false.
//
// Churn contract: a mobility update on the subscribed update stream calls
// invalidate() or refresh() for the moved endpoint. Those are counted
// separately from capacity evictions (CacheStats::invalidations /
// refreshes vs evictions) so the observed eviction pressure is never
// confused with correctness-driven invalidation.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "lina/cache/policy.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"

namespace lina::cache {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class MappingCache {
  static constexpr std::uint32_t kNil = 0xffffffffu;

 public:
  /// Outcome of one insert: whether a slot was written, and the key a
  /// capacity eviction displaced (tests replay this against reference
  /// policy models).
  struct InsertResult {
    bool inserted = false;
    std::optional<Key> evicted;
  };

  explicit MappingCache(const CacheConfig& config) : config_(config) {
    if (!config.valid())
      throw std::invalid_argument("MappingCache: non-positive ttl_ms");
    if (!config.enabled()) return;
    slots_.resize(config.capacity);
    for (std::uint32_t i = 0; i < slots_.size(); ++i)
      slots_[i].next = i + 1 < slots_.size() ? i + 1 : kNil;
    free_head_ = 0;
    table_.assign(table_size_for(config.capacity), kNil);
    if (config.policy == Policy::kTwoQ) {
      kin_ = std::max<std::size_t>(1, config.capacity / 4);
      ghost_capacity_ = std::max<std::size_t>(1, config.capacity / 2);
      ghosts_.resize(ghost_capacity_);
      for (std::uint32_t i = 0; i < ghosts_.size(); ++i)
        ghosts_[i].next = i + 1 < ghosts_.size() ? i + 1 : kNil;
      ghost_free_head_ = 0;
      ghost_table_.assign(table_size_for(ghost_capacity_), kNil);
    }
  }

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] bool enabled() const { return config_.enabled(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return config_.capacity; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  /// Arena footprint in bytes (slots + index tables + ghost arena), the
  /// number benches report alongside hit rates.
  [[nodiscard]] std::size_t arena_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           table_.capacity() * sizeof(std::uint32_t) +
           ghosts_.capacity() * sizeof(GhostSlot) +
           ghost_table_.capacity() * sizeof(std::uint32_t);
  }

  /// Looks the key up at simulation time `now_ms`. A present entry whose
  /// idle TTL lapsed is dropped and counted as a ttl_expiry (then a miss).
  /// A hit re-arms the TTL and promotes per policy (LRU: to MRU; LFU: to
  /// the next frequency bucket; 2Q: Am hits to MRU, A1in hits stay put).
  std::optional<Value> probe(const Key& key, double now_ms) {
    if (!enabled()) return std::nullopt;
    PROF_SPAN("lina.cache.probe");
    obs::metric::cache_probes().add();
    const std::uint32_t slot = find_slot(key);
    if (slot == kNil) return miss();
    if (slots_[slot].expire_ms < now_ms) {
      remove_slot(slot);
      ++stats_.ttl_expiries;
      obs::metric::cache_ttl_expiries().add();
      return miss();
    }
    slots_[slot].expire_ms = now_ms + config_.ttl_ms;
    touch(slot);
    ++stats_.hits;
    obs::metric::cache_hits().add();
    return slots_[slot].value;
  }

  /// Installs the mapping a miss just resolved. Returns the capacity
  /// victim, if making room displaced one. Inserting a key that is
  /// somehow still present updates its value in place (no eviction).
  InsertResult insert(const Key& key, const Value& value, double now_ms) {
    if (!enabled()) return {};
    InsertResult result;
    const std::uint32_t existing = find_slot(key);
    if (existing != kNil) {
      slots_[existing].value = value;
      slots_[existing].expire_ms = now_ms + config_.ttl_ms;
      return result;
    }
    // 2Q admission: keys remembered by the ghost queue go straight to the
    // protected main queue; cold keys start in the FIFO probation queue.
    const bool to_main =
        config_.policy == Policy::kTwoQ && ghost_erase(key);
    if (size_ == config_.capacity) {
      const std::uint32_t victim = pick_victim();
      result.evicted = slots_[victim].key;
      if (config_.policy == Policy::kTwoQ &&
          slots_[victim].queue == kQueueIn) {
        ghost_insert(slots_[victim].key);
      }
      remove_slot(victim);
      ++stats_.evictions;
      obs::metric::cache_evictions().add();
    }
    const std::uint32_t slot = alloc_slot();
    slots_[slot].key = key;
    slots_[slot].value = value;
    slots_[slot].expire_ms = now_ms + config_.ttl_ms;
    table_insert(table_, hash_(key), slot);
    attach_new(slot, to_main);
    ++size_;
    ++stats_.insertions;
    obs::metric::cache_insertions().add();
    result.inserted = true;
    return result;
  }

  /// Churn: drops the mapping if cached. Counted as an invalidation,
  /// never as an eviction. Returns whether an entry was dropped.
  bool invalidate(const Key& key) {
    if (!enabled()) return false;
    const std::uint32_t slot = find_slot(key);
    if (slot == kNil) return false;
    remove_slot(slot);
    ++stats_.invalidations;
    obs::metric::cache_invalidations().add();
    return true;
  }

  /// Churn: overwrites the cached value in place when present (the update
  /// stream carried the new locator). Recency/frequency state is left
  /// untouched — a pushed refresh is not a demand access. Returns whether
  /// an entry was refreshed.
  bool refresh(const Key& key, const Value& value, double now_ms) {
    if (!enabled()) return false;
    const std::uint32_t slot = find_slot(key);
    if (slot == kNil) return false;
    slots_[slot].value = value;
    slots_[slot].expire_ms = now_ms + config_.ttl_ms;
    ++stats_.refreshes;
    obs::metric::cache_refreshes().add();
    return true;
  }

  /// Applies the configured churn action for `key`; `value` is the new
  /// locator a refresh would install.
  void churn(const Key& key, const Value& value, double now_ms) {
    if (config_.churn == ChurnAction::kRefresh) {
      refresh(key, value, now_ms);
    } else {
      invalidate(key);
    }
  }

  /// Churn: drops every cached mapping (a shared-origin move invalidates
  /// the lot). Counted as invalidations. The ghost queue survives — it
  /// holds no mappings, only admission history.
  void invalidate_all() {
    if (!enabled() || size_ == 0) return;
    const std::uint64_t dropped = size_;
    std::fill(table_.begin(), table_.end(), kNil);
    lru_ = {};
    in_ = {};
    buckets_.clear();
    bucket_head_ = kNil;
    bucket_free_head_ = kNil;
    rebuild_free_list();
    size_ = 0;
    stats_.invalidations += dropped;
    obs::metric::cache_invalidations().add(dropped);
  }

  /// True when `key` is cached (TTL ignored); test/diagnostic use only —
  /// does not count as a probe or touch recency.
  [[nodiscard]] bool contains(const Key& key) const {
    return enabled() && find_slot(key) != kNil;
  }

 private:
  // Queue tags (Slot::queue). TTL+LRU and LFU keep everything on kQueueMain.
  static constexpr std::uint8_t kQueueMain = 0;  // LRU list / Am
  static constexpr std::uint8_t kQueueIn = 1;    // 2Q probation FIFO

  struct Slot {
    Key key{};
    Value value{};
    double expire_ms = 0.0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  // doubles as the free-list link
    std::uint32_t bucket = kNil;  // LFU frequency bucket
    std::uint8_t queue = kQueueMain;
  };

  struct GhostSlot {
    Key key{};
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// Intrusive list endpoints over the slot arena. Head is MRU / FIFO
  /// front, tail is the eviction end.
  struct ListHead {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::size_t size = 0;
  };

  /// LFU frequency bucket: ascending-frequency doubly linked list of
  /// buckets, each holding an intrusive member list (head = most recent).
  struct FreqBucket {
    std::uint64_t freq = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  // doubles as the bucket free-list link
    ListHead members;
  };

  [[nodiscard]] static std::size_t table_size_for(std::size_t entries) {
    std::size_t size = 8;
    while (size < entries * 2) size <<= 1;
    return size;
  }

  std::optional<Value> miss() {
    ++stats_.misses;
    obs::metric::cache_misses().add();
    return std::nullopt;
  }

  // ---- open-addressed index (linear probe, backward-shift delete) ----

  [[nodiscard]] std::uint32_t find_slot(const Key& key) const {
    if (table_.empty()) return kNil;
    const std::size_t mask = table_.size() - 1;
    for (std::size_t pos = hash_(key) & mask;; pos = (pos + 1) & mask) {
      const std::uint32_t slot = table_[pos];
      if (slot == kNil) return kNil;
      if (slots_[slot].key == key) return slot;
    }
  }

  void table_insert(std::vector<std::uint32_t>& table, std::size_t hash,
                    std::uint32_t index) {
    const std::size_t mask = table.size() - 1;
    for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
      if (table[pos] == kNil) {
        table[pos] = index;
        return;
      }
    }
  }

  /// Erases `index` (whose key hashes to `hash`) with the standard
  /// linear-probe backward-shift, so probe chains never need tombstones.
  template <typename SlotVec>
  void table_erase_impl(std::vector<std::uint32_t>& table,
                        const SlotVec& slots, std::size_t hash,
                        std::uint32_t index) {
    const std::size_t mask = table.size() - 1;
    std::size_t pos = hash & mask;
    while (table[pos] != index) pos = (pos + 1) & mask;
    std::size_t hole = pos;
    for (std::size_t next = (hole + 1) & mask; table[next] != kNil;
         next = (next + 1) & mask) {
      const std::size_t ideal = hash_(slots[table[next]].key) & mask;
      // `next` may fill the hole iff its probe path covers the hole:
      // distance(ideal -> next) >= distance(hole -> next).
      if (((next - ideal) & mask) >= ((next - hole) & mask)) {
        table[hole] = table[next];
        hole = next;
      }
    }
    table[hole] = kNil;
  }

  void table_erase(std::vector<std::uint32_t>& table, std::size_t hash,
                   std::uint32_t index) {
    if (&table == &ghost_table_) {
      table_erase_impl(table, ghosts_, hash, index);
    } else {
      table_erase_impl(table, slots_, hash, index);
    }
  }

  // ---- intrusive lists over the slot arena ----

  void list_push_front(ListHead& list, std::uint32_t index) {
    slots_[index].prev = kNil;
    slots_[index].next = list.head;
    if (list.head != kNil) slots_[list.head].prev = index;
    list.head = index;
    if (list.tail == kNil) list.tail = index;
    ++list.size;
  }

  void list_remove(ListHead& list, std::uint32_t index) {
    const std::uint32_t prev = slots_[index].prev;
    const std::uint32_t next = slots_[index].next;
    if (prev != kNil) slots_[prev].next = next; else list.head = next;
    if (next != kNil) slots_[next].prev = prev; else list.tail = prev;
    --list.size;
  }

  // ---- slot arena ----

  std::uint32_t alloc_slot() {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    slots_[slot].prev = slots_[slot].next = kNil;
    slots_[slot].bucket = kNil;
    slots_[slot].queue = kQueueMain;
    return slot;
  }

  void free_slot(std::uint32_t slot) {
    slots_[slot].next = free_head_;
    free_head_ = slot;
  }

  void rebuild_free_list() {
    for (std::uint32_t i = 0; i < slots_.size(); ++i)
      slots_[i].next = i + 1 < slots_.size() ? i + 1 : kNil;
    free_head_ = slots_.empty() ? kNil : 0;
  }

  // ---- policy machinery ----

  /// New entry joins its policy's entry queue.
  void attach_new(std::uint32_t slot, bool two_q_main) {
    switch (config_.policy) {
      case Policy::kTtlLru:
        list_push_front(lru_, slot);
        break;
      case Policy::kLfu:
        bucket_attach(slot, /*freq=*/1);
        break;
      case Policy::kTwoQ:
        if (two_q_main) {
          slots_[slot].queue = kQueueMain;
          list_push_front(lru_, slot);
        } else {
          slots_[slot].queue = kQueueIn;
          list_push_front(in_, slot);
        }
        break;
      case Policy::kOff:
        break;
    }
  }

  /// Promotion on a hit.
  void touch(std::uint32_t slot) {
    switch (config_.policy) {
      case Policy::kTtlLru:
        list_remove(lru_, slot);
        list_push_front(lru_, slot);
        break;
      case Policy::kLfu:
        bucket_promote(slot);
        break;
      case Policy::kTwoQ:
        // A1in hits do not promote (the 2Q paper's correlated-reference
        // guard); Am hits refresh recency.
        if (slots_[slot].queue == kQueueMain) {
          list_remove(lru_, slot);
          list_push_front(lru_, slot);
        }
        break;
      case Policy::kOff:
        break;
    }
  }

  /// The slot a capacity eviction removes (never counts TTL/churn).
  [[nodiscard]] std::uint32_t pick_victim() const {
    switch (config_.policy) {
      case Policy::kTtlLru:
        return lru_.tail;
      case Policy::kLfu:
        return buckets_[bucket_head_].members.tail;
      case Policy::kTwoQ:
        // Over-full probation evicts FIFO (into the ghost queue, handled
        // by insert()); otherwise the protected queue pays.
        if (in_.size > kin_ || lru_.tail == kNil) return in_.tail;
        return lru_.tail;
      case Policy::kOff:
        break;
    }
    return kNil;
  }

  /// Full removal: unlink from its queue, drop the index entry, free the
  /// slot. Shared by TTL expiry, invalidation and eviction.
  void remove_slot(std::uint32_t slot) {
    switch (config_.policy) {
      case Policy::kTtlLru:
        list_remove(lru_, slot);
        break;
      case Policy::kLfu:
        bucket_detach(slot);
        break;
      case Policy::kTwoQ:
        list_remove(slots_[slot].queue == kQueueIn ? in_ : lru_, slot);
        break;
      case Policy::kOff:
        break;
    }
    table_erase(table_, hash_(slots_[slot].key), slot);
    free_slot(slot);
    --size_;
  }

  // ---- LFU frequency buckets ----

  std::uint32_t bucket_alloc(std::uint64_t freq) {
    std::uint32_t index;
    if (bucket_free_head_ != kNil) {
      index = bucket_free_head_;
      bucket_free_head_ = buckets_[index].next;
      buckets_[index] = FreqBucket{};
    } else {
      index = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    }
    buckets_[index].freq = freq;
    return index;
  }

  void bucket_free(std::uint32_t index) {
    const std::uint32_t prev = buckets_[index].prev;
    const std::uint32_t next = buckets_[index].next;
    if (prev != kNil) buckets_[prev].next = next; else bucket_head_ = next;
    if (next != kNil) buckets_[next].prev = prev;
    buckets_[index].next = bucket_free_head_;
    bucket_free_head_ = index;
  }

  /// Links `bucket` immediately after `after` (kNil = front).
  void bucket_link_after(std::uint32_t bucket, std::uint32_t after) {
    buckets_[bucket].prev = after;
    if (after == kNil) {
      buckets_[bucket].next = bucket_head_;
      if (bucket_head_ != kNil) buckets_[bucket_head_].prev = bucket;
      bucket_head_ = bucket;
    } else {
      buckets_[bucket].next = buckets_[after].next;
      if (buckets_[after].next != kNil)
        buckets_[buckets_[after].next].prev = bucket;
      buckets_[after].next = bucket;
    }
  }

  void bucket_attach(std::uint32_t slot, std::uint64_t freq) {
    std::uint32_t bucket = bucket_head_;
    if (bucket == kNil || buckets_[bucket].freq != freq) {
      bucket = bucket_alloc(freq);
      bucket_link_after(bucket, kNil);
    }
    slots_[slot].bucket = bucket;
    list_push_front(buckets_[bucket].members, slot);
  }

  void bucket_detach(std::uint32_t slot) {
    const std::uint32_t bucket = slots_[slot].bucket;
    list_remove(buckets_[bucket].members, slot);
    if (buckets_[bucket].members.size == 0) bucket_free(bucket);
    slots_[slot].bucket = kNil;
  }

  /// Hit: move the slot from frequency f's bucket to f+1's (created and
  /// spliced in after the current bucket when absent).
  void bucket_promote(std::uint32_t slot) {
    const std::uint32_t bucket = slots_[slot].bucket;
    const std::uint64_t next_freq = buckets_[bucket].freq + 1;
    list_remove(buckets_[bucket].members, slot);
    std::uint32_t target = buckets_[bucket].next;
    if (target == kNil || buckets_[target].freq != next_freq) {
      target = bucket_alloc(next_freq);
      bucket_link_after(target, bucket);
    }
    if (buckets_[bucket].members.size == 0) bucket_free(bucket);
    slots_[slot].bucket = target;
    list_push_front(buckets_[target].members, slot);
  }

  // ---- 2Q ghost queue (keys only, FIFO, bounded) ----

  void ghost_insert(const Key& key) {
    if (ghost_size_ == ghost_capacity_) {
      // Drop the oldest ghost.
      const std::uint32_t victim = ghost_lru_.tail;
      ghost_list_remove(victim);
      table_erase(ghost_table_, hash_(ghosts_[victim].key), victim);
      ghosts_[victim].next = ghost_free_head_;
      ghost_free_head_ = victim;
      --ghost_size_;
    }
    const std::uint32_t slot = ghost_free_head_;
    ghost_free_head_ = ghosts_[slot].next;
    ghosts_[slot].key = key;
    ghosts_[slot].prev = kNil;
    ghosts_[slot].next = ghost_lru_.head;
    if (ghost_lru_.head != kNil) ghosts_[ghost_lru_.head].prev = slot;
    ghost_lru_.head = slot;
    if (ghost_lru_.tail == kNil) ghost_lru_.tail = slot;
    table_insert(ghost_table_, hash_(key), slot);
    ++ghost_size_;
  }

  void ghost_list_remove(std::uint32_t index) {
    const std::uint32_t prev = ghosts_[index].prev;
    const std::uint32_t next = ghosts_[index].next;
    if (prev != kNil) ghosts_[prev].next = next; else ghost_lru_.head = next;
    if (next != kNil) ghosts_[next].prev = prev; else ghost_lru_.tail = prev;
  }

  /// Removes `key` from the ghost queue; returns whether it was there
  /// (the 2Q admission signal).
  bool ghost_erase(const Key& key) {
    if (ghost_table_.empty()) return false;
    const std::size_t mask = ghost_table_.size() - 1;
    std::uint32_t found = kNil;
    for (std::size_t pos = hash_(key) & mask;; pos = (pos + 1) & mask) {
      const std::uint32_t slot = ghost_table_[pos];
      if (slot == kNil) return false;
      if (ghosts_[slot].key == key) {
        found = slot;
        break;
      }
    }
    ghost_list_remove(found);
    table_erase(ghost_table_, hash_(key), found);
    ghosts_[found].next = ghost_free_head_;
    ghost_free_head_ = found;
    --ghost_size_;
    return true;
  }

  CacheConfig config_;
  Hash hash_;
  CacheStats stats_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> table_;
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;

  ListHead lru_;  // TTL+LRU list / 2Q Am / unused by LFU

  // LFU
  std::vector<FreqBucket> buckets_;
  std::uint32_t bucket_head_ = kNil;
  std::uint32_t bucket_free_head_ = kNil;

  // 2Q
  std::size_t kin_ = 0;
  ListHead in_;  // A1in probation FIFO
  std::vector<GhostSlot> ghosts_;
  std::vector<std::uint32_t> ghost_table_;
  ListHead ghost_lru_;  // A1out FIFO (head = newest)
  std::uint32_t ghost_free_head_ = kNil;
  std::size_t ghost_size_ = 0;
  std::size_t ghost_capacity_ = 0;
};

}  // namespace lina::cache
