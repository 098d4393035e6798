// Per-world bump-pointer arena with size-class recycling.
//
// Every simulated world allocates short-lived frame/event objects at a high
// rate: MAC frames and ACKs, datagrams, stream segments, transmission-log
// entries. Routing those through the global heap costs a malloc/free pair
// per event and shares one allocator across every shard of a fleet run. An
// Arena gives each world its own allocator: allocation is a pointer bump
// into chunked slabs, and freed blocks go onto per-size-class free lists so
// steady-state traffic recycles the same few blocks with no heap calls at
// all.
//
// Arenas are deliberately NOT thread-safe: one Arena belongs to one World,
// and a world is only ever driven by one thread at a time (the fleet engine
// may migrate a shard between workers, but never runs it concurrently).
// Allocation strategy has zero effect on simulated behavior — no RNG draws,
// no ordering — so enabling or disabling the arena cannot perturb event
// order or any fingerprint (asserted by fleet_bench's alloc-mode check).
//
// Lifetime contract: anything that deallocates into the arena (including
// the control blocks of arena_shared pointers) must be destroyed before the
// arena. sim::World declares its arena first, so world-owned state is safe;
// components constructed on a world die before it by the existing rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace aroma::sim {

class Arena {
 public:
  struct Stats {
    std::uint64_t allocations = 0;   // total allocate() calls served
    std::uint64_t recycled = 0;      // ...of which came from a free list
    std::uint64_t heap_fallbacks = 0;  // oversized/overaligned -> heap
    std::uint64_t bytes_requested = 0;
    std::uint64_t chunks = 0;        // slabs obtained from the heap
    std::uint64_t chunk_bytes = 0;
  };

  /// Live-block accounting (arena-served blocks only, by rounded block
  /// size). `live_*` must be zero before reset() or teardown — restore
  /// paths assert this so rebuilding arena-backed containers can never
  /// leak chunks; `peak_*` is the high-water mark for capacity planning.
  struct HighWater {
    std::uint64_t live_blocks = 0;
    std::uint64_t live_bytes = 0;
    std::uint64_t peak_blocks = 0;
    std::uint64_t peak_bytes = 0;
  };

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < kMaxBlockBytes ? kMaxBlockBytes
                                                  : chunk_bytes) {}
  ~Arena() {
    for (void* c : chunks_) ::operator delete(c);
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// When disabled, allocate/recycle pass straight through to the global
  /// heap. Exists so benches can measure the heap-allocation delta; flip it
  /// before any component resolves blocks from this arena.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Allocates `bytes` aligned to `align`. Requests larger than
  /// kMaxBlockBytes or stricter than alignof(max_align_t) fall back to the
  /// heap (counted in stats().heap_fallbacks).
  void* allocate(std::size_t bytes, std::size_t align) {
    if (!enabled_ || bytes > kMaxBlockBytes ||
        align > alignof(std::max_align_t)) {
      if (enabled_) ++stats_.heap_fallbacks;
      return ::operator new(bytes, std::align_val_t(align));
    }
    ++stats_.allocations;
    stats_.bytes_requested += bytes;
    const std::size_t cls = size_class(bytes);
    ++hw_.live_blocks;
    hw_.live_bytes += std::size_t{1} << cls;
    if (hw_.live_blocks > hw_.peak_blocks) hw_.peak_blocks = hw_.live_blocks;
    if (hw_.live_bytes > hw_.peak_bytes) hw_.peak_bytes = hw_.live_bytes;
    if (void* p = free_heads_[cls]) {
      ++stats_.recycled;
      std::memcpy(&free_heads_[cls], p, sizeof(void*));
      return p;
    }
    const std::size_t block = std::size_t{1} << cls;
    if (bump_ + block > bump_end_) refill(block);
    void* p = bump_;
    bump_ += block;
    return p;
  }

  /// Returns a block to its size-class free list. `bytes` and `align` must
  /// match the original allocate() call (the std::allocator contract).
  void recycle(void* p, std::size_t bytes, std::size_t align) {
    if (!enabled_ || bytes > kMaxBlockBytes ||
        align > alignof(std::max_align_t)) {
      ::operator delete(p, std::align_val_t(align));
      return;
    }
    const std::size_t cls = size_class(bytes);
    --hw_.live_blocks;
    hw_.live_bytes -= std::size_t{1} << cls;
    std::memcpy(p, &free_heads_[cls], sizeof(void*));
    free_heads_[cls] = p;
  }

  /// Drops all free lists and rewinds into the first chunk. Only valid when
  /// nothing allocated from the arena is still live; meant for reusing one
  /// arena across sequential trials.
  void reset() {
    for (void*& head : free_heads_) head = nullptr;
    if (!chunks_.empty()) {
      bump_ = static_cast<std::byte*>(chunks_.front());
      bump_end_ = bump_ + chunk_sizes_.front();
      // Later chunks stay owned but unreachable until refill() reuses the
      // heap; simplicity beats reclaiming them for the trial-loop use case.
    }
    hw_.live_blocks = 0;
    hw_.live_bytes = 0;
  }

  const Stats& stats() const { return stats_; }

  /// Live/peak block accounting; see HighWater. A caller about to reset()
  /// or tear down checks high_water().live_blocks == 0 to prove every
  /// arena-backed container has already released its blocks.
  const HighWater& high_water() const { return hw_; }

  static constexpr std::size_t kDefaultChunkBytes = std::size_t{64} << 10;
  /// Largest bump-allocated block: 2^kMaxClass bytes.
  static constexpr std::size_t kMaxClass = 13;  // 8 KiB
  static constexpr std::size_t kMaxBlockBytes = std::size_t{1} << kMaxClass;
  static constexpr std::size_t kMinClass = 4;  // 16 B floor keeps alignment

 private:
  /// Smallest c with 2^c >= bytes, clamped to [kMinClass, kMaxClass].
  /// Power-of-two classes keep every block max_align-aligned (chunks are
  /// max-aligned and blocks are carved at block-size boundaries).
  static std::size_t size_class(std::size_t bytes) {
    std::size_t cls = kMinClass;
    while ((std::size_t{1} << cls) < bytes) ++cls;
    return cls;
  }

  void refill(std::size_t need) {
    const std::size_t size = need > chunk_bytes_ ? need : chunk_bytes_;
    void* c = ::operator new(size);
    chunks_.push_back(c);
    chunk_sizes_.push_back(size);
    ++stats_.chunks;
    stats_.chunk_bytes += size;
    bump_ = static_cast<std::byte*>(c);
    bump_end_ = bump_ + size;
  }

  bool enabled_ = true;
  std::size_t chunk_bytes_;
  std::byte* bump_ = nullptr;
  std::byte* bump_end_ = nullptr;
  std::vector<void*> chunks_;
  std::vector<std::size_t> chunk_sizes_;
  // Per size class, the most recently recycled block; each free block
  // holds the pointer to the next one in its first bytes.
  void* free_heads_[kMaxClass + 1] = {};
  Stats stats_;
  HighWater hw_;
};

/// std-compatible allocator over an Arena; lets containers (the radio
/// medium's transmission log, scratch vectors) draw from the owning world's
/// arena. Default-constructed (or null-arena) instances pass through to the
/// heap, so allocator-aware members can be declared before the arena is
/// known and rebound by move-assignment (propagation traits below).
/// Comparison is identity of the arena.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() : arena_(nullptr) {}
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return arena_ != nullptr
               ? static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)))
               : static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    if (arena_ != nullptr) {
      arena_->recycle(p, n * sizeof(T), alignof(T));
    } else {
      ::operator delete(p);
    }
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& o) const {
    return arena_ == o.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& o) const {
    return arena_ != o.arena();
  }

 private:
  Arena* arena_;
};

/// make_shared into an arena: object and control block in one recycled
/// allocation. The arena must outlive the last copy of the returned pointer
/// (for world-scoped payloads that is the existing World-outlives-components
/// rule).
template <typename T, typename... Args>
std::shared_ptr<T> arena_shared(Arena& arena, Args&&... args) {
  return std::allocate_shared<T>(ArenaAllocator<T>(&arena),
                                 std::forward<Args>(args)...);
}

}  // namespace aroma::sim
