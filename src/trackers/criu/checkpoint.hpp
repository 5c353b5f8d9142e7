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
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "ooh/experiment.hpp"
#include "ooh/tracker.hpp"

namespace ooh::criu {

/// The image's pages in CRIU's own layout: one pagemap region per VMA, each
/// a per-page state (absent, zero or data) plus, from the first data page
/// dumped into it, one contiguous page-aligned buffer of the VMA's bytes. A
/// dump finds its slot by region and page index, with no hashing and no
/// per-page allocation, and writes it with non-temporal stores: nothing reads
/// the image again until restore, so the copy does not pull the slot into
/// the cache first.
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

  /// Store page `gva` of `vma`: a copy of the frame at `data`, or a zero page
  /// when `data` is null. A region left by a dead VMA that overlaps `vma` is
  /// dropped first. The copy is weakly ordered: before another thread reads
  /// the image, the writer fences (Checkpointer::dump_pages does, once per
  /// dump).
  void store(const guest::Vma& vma, Gva gva, const u8* data);
  /// Drop every region whose VMA is not in `vmas`.
  void retain(const std::vector<guest::Vma>& vmas) noexcept;

 private:
  enum class State : u8 { kAbsent, kZero, kData };
  struct Region {
    Gva start = 0;
    Gva end = 0;                   ///< exclusive.
    std::vector<State> state;      ///< per page.
    std::unique_ptr<u8[]> buffer;  ///< end - start bytes plus one page of slack.
    u8* bytes = nullptr;           ///< page-aligned slot base in buffer; null until a data page.
  };

  /// The region of `vma`, made (replacing dead overlapping ones) if missing.
  Region& region_for(const guest::Vma& vma);
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

  /// Write `pages` of `proc` into `image` (content + disk cost per page).
  /// Fences the image's streamed stores before returning, so the finished
  /// image may be handed to another thread.
  void dump_pages(guest::Process& proc, const std::vector<Gva>& pages,
                  CheckpointImage& image);

 private:

  guest::GuestKernel& kernel_;
  lib::Technique technique_;
};

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
