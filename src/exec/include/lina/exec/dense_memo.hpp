#pragma once

// Publish-once memoizer for values keyed by a dense index (an AS id): one
// atomic slot per index, sized at construction. It is Memo's contract —
// each value built exactly once, references valid for the table's
// lifetime — with a read path of one acquire load and no lock, for the
// per-hop route-row and BFS-row lookups whose keys are the graph's dense
// AS ids.
//
// A miss takes the build lock of its index's stripe, re-checks the slot,
// builds the value and publishes it with a release store, so the thread
// that loads a non-null pointer also sees the fully built value. Builds of
// indices on different stripes never queue behind one another. Published
// values are never replaced or freed before the table is destroyed.

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace lina::exec {

template <typename Value>
class DenseMemo {
 public:
  /// A table of `size` empty slots, for indices [0, size).
  explicit DenseMemo(std::size_t size)
      : slots_(std::make_unique<Slot[]>(size)), size_(size) {}
  DenseMemo(const DenseMemo&) = delete;
  DenseMemo& operator=(const DenseMemo&) = delete;

  /// Returns the value at `index`, building it via `build()` (under the
  /// stripe's build lock, so exactly once per index) on first use. Throws
  /// std::out_of_range for an index outside the table.
  template <typename Build>
  const Value& get_or_build(std::size_t index, Build&& build) const {
    if (index >= size_) throw std::out_of_range("DenseMemo: index");
    Slot& slot = slots_[index];
    if (const Value* value = slot.published.load(std::memory_order_acquire))
      return *value;
    const std::lock_guard<std::mutex> lock(build_locks_[index % kBuildStripes]);
    if (const Value* value = slot.published.load(std::memory_order_relaxed))
      return *value;
    slot.owned = std::make_unique<const Value>(build());
    slot.published.store(slot.owned.get(), std::memory_order_release);
    return *slot.owned;
  }

 private:
  static constexpr std::size_t kBuildStripes = 16;

  struct Slot {
    std::atomic<const Value*> published{nullptr};
    // Written once, under the build lock, before `published`; readers only
    // ever go through `published`.
    std::unique_ptr<const Value> owned;
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t size_;
  mutable std::array<std::mutex, kBuildStripes> build_locks_;
};

}  // namespace lina::exec
