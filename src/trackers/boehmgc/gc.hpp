// Boehm-style mark-sweep garbage collector over the simulated guest heap,
// with dirty-page-driven incremental marking (paper §IV-E, §VI-E).
//
// Liveness is computed exactly (the collector never frees a reachable
// object). What the dirty-page technique changes -- exactly as in Boehm --
// is the *mark phase cost*: the first cycle scans the whole live heap; later
// cycles re-scan only roots and the objects on pages dirtied since the
// previous cycle, plus whatever the technique charges to find those pages
// (clear_refs + pagemap for /proc, ring reads for EPML, ring + reverse
// mapping for SPML).
#pragma once

#include <functional>
#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "ooh/tracker.hpp"

namespace ooh::gc {

struct GcCycleStats {
  unsigned cycle = 0;
  VirtDuration duration{0};     ///< total pause contributed by this cycle.
  VirtDuration dirty_query{0};  ///< time acquiring dirty pages (the technique).
  u64 pages_rescanned = 0;
  u64 objects_marked = 0;
  u64 objects_freed = 0;
  u64 bytes_freed = 0;
  bool full = false;  ///< first (or forced-full) cycle.
};

struct GcStats {
  std::vector<GcCycleStats> cycles;
  VirtDuration total_gc_time{0};
  u64 total_allocated_bytes = 0;

  [[nodiscard]] unsigned cycle_count() const noexcept {
    return static_cast<unsigned>(cycles.size());
  }
};

class GcHeap {
 public:
  /// Collection triggers when this many bytes have been allocated since the
  /// last cycle (Boehm's heap-growth heuristic, simplified).
  GcHeap(guest::GuestKernel& kernel, guest::Process& proc, u64 heap_bytes,
         u64 gc_threshold_bytes = 4 * kMiB);
  ~GcHeap();

  GcHeap(const GcHeap&) = delete;
  GcHeap& operator=(const GcHeap&) = delete;

  /// Use `technique` for incremental marking; kOracle by default. The
  /// tracker is created lazily on the first collection.
  void set_technique(lib::Technique technique) { technique_ = technique; }

  /// Create and initialise the tracker now (Boehm does this at startup);
  /// otherwise the one-time init cost lands inside the first cycle's pause.
  void prepare_tracker();

  // ---- mutator interface -----------------------------------------------------
  /// Allocate an object with `ref_slots` pointer fields and `data_bytes` of
  /// payload; returns its address. May trigger a collection first.
  [[nodiscard]] Gva alloc(unsigned ref_slots, u64 data_bytes);
  void add_root(Gva obj);
  void remove_root(Gva obj);

  /// RAII local root: keeps an under-construction object alive across
  /// allocations that may trigger a collection -- standing in for Boehm's
  /// conservative stack scan.
  class Local {
   public:
    Local(GcHeap& heap, Gva obj) : heap_(heap) { heap_.locals_.push_back(obj); }
    ~Local() { heap_.locals_.pop_back(); }
    Local(const Local&) = delete;
    Local& operator=(const Local&) = delete;

   private:
    GcHeap& heap_;
  };
  /// Store `target` (0 = null) into pointer field `slot` of `obj`.
  void write_ref(Gva obj, unsigned slot, Gva target);
  [[nodiscard]] Gva read_ref(Gva obj, unsigned slot);
  /// Write into the object's data payload at byte offset.
  void write_data(Gva obj, u64 offset, u64 value);

  // ---- collector ---------------------------------------------------------------
  GcCycleStats collect();

  [[nodiscard]] const GcStats& stats() const noexcept { return stats_; }
  [[nodiscard]] u64 live_objects() const noexcept {
    return stamp_.size() - free_slots_.size();
  }
  [[nodiscard]] u64 live_bytes() const noexcept { return live_bytes_; }
  [[nodiscard]] u64 heap_used_bytes() const noexcept { return bump_ - heap_base_; }
  [[nodiscard]] bool is_object(Gva obj) const noexcept { return find(obj) != kNoSlot; }
  [[nodiscard]] guest::Process& process() noexcept { return proc_; }

 private:
  /// A block's range in the ref pool. It belongs to the block's address and
  /// travels with it through the free lists (see FreeList).
  struct RefRange {
    u32 begin = 0;
    u32 count = 0;  ///< pointer fields of the object now in the block.
    u32 cap = 0;    ///< pool words reserved for the block.
  };
  struct FreeBlock {
    Gva addr = 0;
    u32 ref_begin = 0;
    u32 ref_cap = 0;
  };
  /// Free blocks of one exact size: LIFO over the sweep's ascending-address
  /// refills. A block address is therefore only ever reused for one size.
  struct FreeList {
    u64 size = 0;
    std::vector<FreeBlock> blocks;
  };
  static constexpr u32 kNoSlot = ~u32{0};
  /// Mark stamps: a free slot holds kFreed; a live object holds kUnmarked
  /// or the epoch of the last cycle that reached it (epochs start above
  /// kUnmarked), so stamp - kUnmarked < epoch_ - kUnmarked means garbage.
  static constexpr u32 kFreed = 0;
  static constexpr u32 kUnmarked = 1;

  /// Slot of the live object at `addr`, or kNoSlot.
  [[nodiscard]] u32 find(Gva addr) const noexcept;
  /// Slot of the live object at `addr`; throws std::invalid_argument.
  [[nodiscard]] u32 live_slot(Gva addr) const;
  /// Free list for `size`, created empty on first use.
  [[nodiscard]] std::vector<FreeBlock>& free_list(u64 size);
  void maybe_collect();
  [[nodiscard]] std::vector<Gva> acquire_dirty_pages(GcCycleStats& st);

  guest::GuestKernel& kernel_;
  guest::Process& proc_;
  lib::Technique technique_ = lib::Technique::kOracle;
  std::unique_ptr<lib::DirtyTracker> tracker_;

  Gva heap_base_ = 0;
  Gva heap_end_ = 0;
  Gva bump_ = 0;
  u64 gc_threshold_;
  u64 allocated_since_gc_ = 0;
  u64 live_bytes_ = 0;

  // Object table, one entry per slot in each array; slots are recycled
  // through a free-slot stack. An address finds its slot through a table
  // with one entry per 16-byte heap granule (slot + 1, 0 = no object starts
  // there), grown with bump_. Pointer fields hold target slots in one
  // pooled store, so marking never maps an address back to a slot. Slot
  // order is never observable: the sweep sorts its garbage by address, so
  // free-list order -- and through it every later allocation address -- is
  // defined.
  std::vector<u32> stamp_;
  std::vector<Gva> addr_;
  std::vector<u64> size_;  ///< header + slots + payload, in bytes.
  std::vector<RefRange> refs_;
  std::vector<u32> ref_pool_;  ///< target slot per pointer field, kNoSlot = null.
  std::vector<u32> free_slots_;
  std::vector<u32> granule_slot_;
  std::vector<u32> page_objects_;  ///< heap page -> objects overlapping it.
  u32 epoch_ = kUnmarked;          ///< current mark stamp.

  std::vector<u32> roots_;   ///< slots of rooted objects, ascending.
  std::vector<Gva> locals_;  ///< stack-scan stand-in (see Local).
  std::vector<FreeList> free_lists_;  ///< ascending size.

  // Per-cycle mark/sweep scratch, reused so steady-state cycles allocate
  // nothing.
  std::vector<u32> frontier_;  ///< slots to scan; FIFO via a head cursor.
  std::vector<u64> to_free_;   ///< garbage as granule << 32 | slot.

  GcStats stats_;
  bool first_cycle_done_ = false;
  double scan_ns_per_object_ = 40.0;  ///< mark-phase scan cost per object.
};

}  // namespace ooh::gc
