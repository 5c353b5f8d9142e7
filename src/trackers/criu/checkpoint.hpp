// CRIU-like process checkpoint/restore with pluggable dirty tracking.
//
// Phase structure follows the paper (§VI-F): after an initial full copy,
// the process keeps running under tracking; at checkpoint time CRIU
// collects dirty addresses (the MD, memory-dump phase) and writes those
// pages to the image (the MW, memory-write phase).
//
// The technique changes the phase shape exactly as the paper describes:
//   * /proc fuses MD into MW -- pages are written as the pagemap walk finds
//     them, so MW grows with memory size (Fig. 7);
//   * SPML performs the GPA->GVA reverse mapping inside MD, dominating the
//     checkpoint (Fig. 8);
//   * EPML reads GVAs from the ring, leaving MW as a pure page write.
//
// MW charges disk_write_page_us of virtual time per page written. The host
// work behind it is smaller: a re-dump copies only the 64-byte lines the
// page's frame changed since its image slot last copied it (PageStore).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/host_block.hpp"
#include "base/types.hpp"
#include "base/vtime.hpp"
#include "ooh/experiment.hpp"
#include "ooh/tracker.hpp"
#include "sim/phys_mem.hpp"

namespace ooh::criu {

/// The image's pages in CRIU's own layout: one pagemap region per VMA, each
/// a per-page state (absent, zero or data) plus a directory of host blocks
/// (base::HostBlock, page-aligned 16 MiB, recycled per thread), one per
/// 16 MiB of the VMA, each taken at the first data page dumped into its
/// range. Page i's slot is block i / 4 Ki at offset (i % 4 Ki) * 4 KiB. A
/// dump finds its slot by region and page index, with no hashing and no
/// per-page allocation, and writes it with non-temporal stores: nothing reads
/// the image again until restore, so the copy does not pull the slot into
/// the cache first. A recycled block holds stale bytes, but a fresh slot's
/// source is 0, so its first store copies the whole page and nothing reads
/// a slot before that.
///
/// A re-dump moves only the 64-byte lines the frame changed since this slot
/// last copied it. Each data slot records the frame it last copied (its
/// contents pointer), and the frame records the slot that last claimed it
/// (sim::PhysicalMemory::claim). Only when both name each other is the slot
/// the frame's last copy and the frame the slot's last source; then the
/// frame's line mask is exactly what changed. Anything else -- a first copy,
/// another image or slot that copied the frame since, a slot re-stored from
/// another frame, a frame freed and materialised again, a region erased and
/// made again -- resets one side, and the slot takes the whole page.
///
/// Reads like a map from page GVA to contents, iterated in ascending GVA
/// order; a zero or metadata-only page reads as an empty span.
class PageStore {
 public:
  using value_type = std::pair<Gva, std::span<const u8>>;

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = PageStore::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;
    /// operator-> hands out a pointer into this proxy (entries are built on
    /// the fly, not stored).
    struct pointer {
      value_type entry;
      const value_type* operator->() const noexcept { return &entry; }
    };

    const_iterator() = default;
    [[nodiscard]] value_type operator*() const noexcept;
    [[nodiscard]] pointer operator->() const noexcept { return {**this}; }
    const_iterator& operator++() noexcept {
      ++page_;
      settle();
      return *this;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return region_ == o.region_ && page_ == o.page_;
    }

   private:
    friend class PageStore;
    const_iterator(const PageStore* store, std::size_t region, std::size_t page) noexcept
        : store_(store), region_(region), page_(page) {}
    /// Advance to the next present page at or after the current position.
    void settle() noexcept;

    const PageStore* store_ = nullptr;
    std::size_t region_ = 0;
    std::size_t page_ = 0;
  };

  /// Number of present (zero or data) pages.
  [[nodiscard]] std::size_t size() const noexcept { return present_; }
  [[nodiscard]] bool empty() const noexcept { return present_ == 0; }
  [[nodiscard]] const_iterator begin() const noexcept;
  [[nodiscard]] const_iterator end() const noexcept { return {this, regions_.size(), 0}; }
  /// The entry of page `gva`, or end() when the page is absent.
  [[nodiscard]] const_iterator find(Gva gva) const noexcept;
  [[nodiscard]] bool contains(Gva gva) const noexcept { return find(gva) != end(); }
  /// The contents of page `gva`; throws std::out_of_range when absent.
  [[nodiscard]] std::span<const u8> at(Gva gva) const;

  /// Same pages with the same contents.
  bool operator==(const PageStore& o) const noexcept;

  /// Store page `gva` of `vma` as a copy of `frame` in `pmem` (a zero page
  /// when the frame has no contents) and return the lines it moved: all 64
  /// for a whole-page copy, fewer when the slot already held the frame's
  /// earlier bytes. A region left by a dead VMA that overlaps `vma` is
  /// dropped first. The copy is weakly ordered: before another thread reads
  /// the image, the writer fences (Checkpointer::dump_pages does, once per
  /// dump).
  u64 store(const guest::Vma& vma, Gva gva, sim::PhysicalMemory& pmem, Hpa frame);
  /// Store page `gva` of `vma` as a zero (or metadata-only) page.
  void store_zero(const guest::Vma& vma, Gva gva);
  /// Drop every region whose VMA is not in `vmas`.
  void retain(const std::vector<guest::Vma>& vmas) noexcept;

 private:
  enum class State : u8 { kAbsent, kZero, kData };
  struct Region {
    Gva start = 0;
    Gva end = 0;                   ///< exclusive.
    std::vector<State> state;      ///< per page.
    /// Per page, the address of the frame contents its data slot last
    /// copied (0 for none; an integer, since that frame may be gone). An
    /// element's address is the slot's identity to the frame. Sized, with
    /// `blocks`, at the first data store, so metadata-only regions carry none.
    std::vector<std::uintptr_t> source;
    /// The slots: one block per 16 MiB of the region, each taken at the
    /// first data page stored into its range.
    std::vector<base::HostBlock> blocks;

    /// The slot of page `page`; its block must be taken.
    [[nodiscard]] u8* slot(std::size_t page) const noexcept {
      return blocks[page / base::HostBlock::kPages].data() +
             page % base::HostBlock::kPages * kPageSize;
    }
  };

  /// The region of `vma`, made (replacing dead overlapping ones) if missing.
  Region& region_for(const guest::Vma& vma);
  /// The region of `vma` and the index of page `gva`, counted present.
  std::pair<Region*, std::size_t> slot_for(const guest::Vma& vma, Gva gva);
  /// Region index holding `gva`, or regions_.size().
  [[nodiscard]] std::size_t region_index(Gva gva) const noexcept;
  void erase_region(std::size_t i) noexcept;

  std::vector<Region> regions_;  ///< ascending by start, non-overlapping.
  std::size_t mru_ = 0;          ///< region of the last store.
  std::size_t present_ = 0;
};

/// A checkpoint image: the VMA layout needed to restore plus the pages.
struct CheckpointImage {
  struct VmaRecord {
    Gva start = 0;
    u64 bytes = 0;
    bool data_backed = false;
  };
  std::vector<VmaRecord> vmas;
  PageStore pages;
  u64 dump_ops = 0;  ///< total page writes, including overwrites of stale pages.

  /// Record `proc`'s current VMA layout and drop the pages of VMAs that are
  /// gone, as each CRIU (pre-)dump writes the layout it saw.
  void record_layout(const guest::Process& proc);
};

struct CheckpointPhases {
  VirtDuration init{0};      ///< tracker setup.
  VirtDuration precopy{0};   ///< incremental pre-dump rounds while running.
  VirtDuration md{0};        ///< final memory-dump (address collection).
  VirtDuration mw{0};        ///< final memory-write (page dump).
  [[nodiscard]] VirtDuration checkpoint_total() const noexcept { return md + mw; }
};

struct CheckpointOptions {
  /// Pre-copy cadence: dirty pages are collected and dumped every period
  /// while the workload runs. Zero = single final dump only.
  VirtDuration precopy_period{0};
  /// Dump the full mapped memory before tracking intervals begin.
  bool initial_full_copy = true;
};

struct CheckpointResult {
  CheckpointImage image;
  CheckpointPhases phases;
  lib::RunResult run;      ///< workload-side metrics (tracked time etc).
  u64 full_copy_pages = 0;
  u64 final_dirty_pages = 0;
};

class Checkpointer {
 public:
  Checkpointer(guest::GuestKernel& kernel, lib::Technique technique)
      : kernel_(kernel), technique_(technique) {}

  /// Run `workload` in `proc` under tracking and checkpoint it: initial full
  /// copy, optional pre-copy rounds, final MD + MW after the run.
  CheckpointResult checkpoint_during(guest::Process& proc, const lib::WorkloadFn& workload,
                                     const CheckpointOptions& opts = {});

  /// One-shot dump of the current memory state (no tracking).
  CheckpointImage full_checkpoint(guest::Process& proc);

  [[nodiscard]] lib::Technique technique() const noexcept { return technique_; }

  /// Write `pages` of `proc` into `image` (content + disk cost per page) and
  /// return the 64-byte lines moved (a page whose slot already held its
  /// earlier bytes moves only the lines written since). Fences the image's
  /// streamed stores before returning, so the finished image may be handed
  /// to another thread. With OOH_COHERENCE_AUDITS, every partly copied slot
  /// is checked against its frame (IMG-1).
  u64 dump_pages(guest::Process& proc, const std::vector<Gva>& pages,
                 CheckpointImage& image);

 private:

  guest::GuestKernel& kernel_;
  lib::Technique technique_;
};

/// IMG-1: the slot of page `gva` in `pages` holds exactly the 4 KiB at
/// `frame`. Throws check::InvariantViolation (naming VM `vm`) when the page
/// is absent, zero or differs.
void audit_slot(const PageStore& pages, Gva gva, const u8* frame, u32 vm);

/// Rebuild `proc` (must be fresh, no VMAs) from `image`: each recorded VMA is
/// mapped at its recorded start (CRIU's MAP_FIXED restore), then the pages
/// are written through the MMU in ascending GVA order, so the restore itself
/// is a trackable workload.
void restore(guest::Process& proc, const CheckpointImage& image);

/// A long-lived incremental checkpoint chain (CRIU's pre-dump series): one
/// full copy up front, then each step() runs a slice of the workload and
/// dumps only the pages dirtied since the previous step. The image always
/// restores to the state as of the latest step.
class IncrementalSession {
 public:
  IncrementalSession(guest::GuestKernel& kernel, lib::Technique technique,
                     guest::Process& proc);
  ~IncrementalSession();

  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;

  struct StepResult {
    u64 dirty_pages = 0;        ///< pages dumped this step.
    VirtDuration run_time{0};   ///< the workload slice's tracked time.
    VirtDuration dump_time{0};  ///< MD + MW for the delta.
  };
  StepResult step(const lib::WorkloadFn& slice);

  [[nodiscard]] const CheckpointImage& image() const noexcept { return image_; }
  [[nodiscard]] u64 steps() const noexcept { return steps_; }
  [[nodiscard]] u64 full_copy_pages() const noexcept { return full_copy_pages_; }

 private:
  guest::GuestKernel& kernel_;
  guest::Process& proc_;
  Checkpointer checkpointer_;
  std::unique_ptr<lib::DirtyTracker> tracker_;
  CheckpointImage image_;
  u64 full_copy_pages_ = 0;
  u64 steps_ = 0;
};

}  // namespace ooh::criu
