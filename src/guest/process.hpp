// A guest userspace process: VMAs, a page table, and the memory-access API
// that workloads run against. Every store routes through the simulated MMU,
// so dirty-tracking mechanisms observe real page-granularity write traffic.
//
// The process also keeps a zero-virtual-cost "truth" set of pages written
// since the last reset; the oracle tracker and the completeness tests use it
// (paper evaluation question 3).
#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace ooh::sim {
class GuestPageTable;
}

namespace ooh::guest {

class GuestKernel;

struct Vma {
  Gva start = 0;
  Gva end = 0;  ///< exclusive.
  bool writable = true;
  bool data_backed = false;  ///< stores/loads move real bytes through host RAM.
  enum class Uffd { kNone, kMissing, kWriteProtect } uffd = Uffd::kNone;

  [[nodiscard]] bool contains(Gva a) const noexcept { return a >= start && a < end; }
  [[nodiscard]] u64 bytes() const noexcept { return end - start; }
};

/// The ground-truth write ledger: per VMA, the global write sequence of each
/// page's last write, in one dense array allocated on the VMA's first write.
/// A page is dirty iff its sequence is above the watermark the last reset
/// left, so a reset is O(1) and a re-dirty is one array store; a running
/// count serves size(). Iteration yields (page, last-write sequence) items in
/// ascending GVA order.
class TruthLedger {
 public:
  struct Item {
    Gva first = 0;   ///< page address.
    u64 second = 0;  ///< sequence of the page's last write.
  };

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;  // items are built, not stored
    using value_type = Item;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Item;

    const_iterator() = default;
    [[nodiscard]] Item operator*() const noexcept;
    const_iterator& operator++() noexcept {
      ++page_;
      settle();
      return *this;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return region_ == o.region_ && page_ == o.page_;
    }

   private:
    friend class TruthLedger;
    const_iterator(const TruthLedger* ledger, std::size_t region) noexcept
        : ledger_(ledger), region_(region) {
      settle();
    }
    /// Advance to the next dirty page at or after the current position.
    void settle() noexcept;

    const TruthLedger* ledger_ = nullptr;
    std::size_t region_ = 0;
    std::size_t page_ = 0;
  };

  [[nodiscard]] std::size_t size() const noexcept { return dirty_; }
  [[nodiscard]] bool empty() const noexcept { return dirty_ == 0; }
  [[nodiscard]] bool contains(Gva page) const noexcept;
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, regions_.size()}; }

 private:
  friend class Process;

  struct Region {
    Gva start = 0;
    Gva end = 0;            ///< exclusive; the VMA's bounds.
    std::vector<u64> last;  ///< per page: sequence of its last write, 0 = never.
  };

  /// Stamp `page` with `seq`; `vmas` supplies the bounds of a first-written
  /// VMA. Throws std::out_of_range for a page outside every VMA.
  void record(Gva page, u64 seq, const std::vector<Vma>& vmas) {
    if (mru_ >= regions_.size() || page < regions_[mru_].start ||
        page >= regions_[mru_].end) {
      locate(page, vmas);
    }
    Region& r = regions_[mru_];
    u64& slot = r.last[page_index(page - r.start)];
    if (slot <= watermark_) ++dirty_;
    slot = seq;
  }
  /// Point mru_ at the region holding `page`, adding it on the VMA's first write.
  void locate(Gva page, const std::vector<Vma>& vmas);
  /// Forget the region of the VMA based at `start` (munmap).
  void drop(Gva start) noexcept;
  void reset(u64 seq) noexcept {
    watermark_ = seq;
    dirty_ = 0;
  }
  [[nodiscard]] const Region* region_of(Gva page) const noexcept;

  std::vector<Region> regions_;  ///< ascending by start, non-overlapping.
  std::size_t mru_ = 0;          ///< region of the last record.
  u64 watermark_ = 0;            ///< the write sequence at the last reset.
  std::size_t dirty_ = 0;        ///< pages whose sequence is above the watermark.
};

class Process {
 public:
  Process(GuestKernel& kernel, u32 pid) : kernel_(kernel), pid_(pid) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] u32 pid() const noexcept { return pid_; }
  [[nodiscard]] GuestKernel& kernel() noexcept { return kernel_; }

  // ---- SMP placement --------------------------------------------------------
  /// vCPU this process currently runs on (set at create_process, changed by
  /// GuestKernel::migrate_process).
  [[nodiscard]] unsigned cpu() const noexcept { return cpu_; }
  /// mm_cpumask: bit per vCPU the process has ever run on. TLB shootdowns
  /// IPI exactly the *other* set bits; never-migrated processes keep a
  /// singleton mask and pay nothing (SHOOT-1, docs/invariants.md).
  [[nodiscard]] u64 cpu_mask() const noexcept { return cpu_mask_; }

  /// Map `bytes` of anonymous memory (page-rounded); returns the base GVA.
  /// Pages are demand-allocated on first touch, like real mmap.
  Gva mmap(u64 bytes, bool data_backed = false);
  /// Map `bytes` of anonymous memory at exactly `start`, as MAP_FIXED does
  /// for CRIU's restore. Throws std::invalid_argument for an unaligned start
  /// or a range that overlaps an existing VMA. Later mmap() calls place
  /// their VMAs above it.
  void mmap_fixed(Gva start, u64 bytes, bool data_backed = false);

  /// Unmap a whole VMA by its base address: PTEs are torn down, cached
  /// translations dropped, and the pages vanish from tracking and truth.
  void munmap(Gva base);

  // ---- accesses (each one goes through the MMU) ----------------------------
  void write_u64(Gva gva, u64 value);
  [[nodiscard]] u64 read_u64(Gva gva);
  /// Metadata-only store: full translation/dirty semantics, no data bytes.
  void touch_write(Gva gva);
  void touch_read(Gva gva);
  /// Batched metadata touches: one access every `stride` bytes over
  /// [gva, gva+bytes), equivalent to (and bit-identical in virtual time
  /// with) calling touch_write/touch_read in a loop, but runs of accesses
  /// the TLB can serve skip the per-access pipeline on the host.
  void touch_range(Gva gva, u64 bytes, bool is_write, u64 stride = kPageSize);
  void touch_range_write(Gva gva, u64 bytes, u64 stride = kPageSize) {
    touch_range(gva, bytes, /*is_write=*/true, stride);
  }
  void touch_range_read(Gva gva, u64 bytes, u64 stride = kPageSize) {
    touch_range(gva, bytes, /*is_write=*/false, stride);
  }
  void write_bytes(Gva gva, std::span<const u8> data);
  void read_bytes(Gva gva, std::span<u8> out);

  [[nodiscard]] u64 mapped_bytes() const noexcept { return mapped_bytes_; }
  [[nodiscard]] const std::vector<Vma>& vmas() const noexcept { return vmas_; }
  /// Mutable VMA access for kernel subsystems (ufd registration flags).
  [[nodiscard]] std::vector<Vma>& vmas_mut() noexcept { return vmas_; }
  /// The VMA containing `gva`, or nullptr. Accesses cluster heavily within
  /// one VMA, so the last one resolved is tried first, inline.
  [[nodiscard]] Vma* vma_of(Gva gva) noexcept {
    if (vma_mru_ < vmas_.size() && vmas_[vma_mru_].contains(gva)) return &vmas_[vma_mru_];
    return vma_scan(gva);
  }

  // ---- ground truth ---------------------------------------------------------
  /// Pages written since truth_reset(), each tagged with the global write
  /// sequence of its *last* write -- so interval consumers (oracle tracker)
  /// can tell re-dirtied pages apart from stale ones.
  [[nodiscard]] const TruthLedger& truth_dirty() const noexcept { return truth_; }
  [[nodiscard]] u64 truth_seq() const noexcept { return truth_seq_; }
  void truth_reset() noexcept { truth_.reset(truth_seq_); }
  /// Record `n` consecutive writes to `gva_page`: the page keeps the last
  /// one's sequence number, as n single records would leave it. Throws
  /// std::out_of_range for a page outside every VMA.
  void truth_record(Gva gva_page, u64 n = 1) {
    truth_seq_ += n;
    truth_.record(gva_page, truth_seq_, vmas_);
  }

 private:
  friend class GuestKernel;

  /// vma_of() past the last-resolved memo: a scan that updates it.
  [[nodiscard]] Vma* vma_scan(Gva gva) noexcept;

  GuestKernel& kernel_;
  u32 pid_;
  unsigned cpu_ = 0;
  u64 cpu_mask_ = 1;
  std::vector<Vma> vmas_;  ///< ascending by start, non-overlapping.
  std::size_t vma_mru_ = 0;  ///< index of the last VMA vma_of resolved to.
  /// The kernel-owned page table for this process, cached at creation so
  /// GuestKernel::page_table needs no scan (the table is heap-allocated and
  /// lives as long as the process).
  sim::GuestPageTable* pt_ = nullptr;
  Gva next_mmap_ = 0x1000'0000;  // grows upward, one guard page between VMAs
  u64 mapped_bytes_ = 0;
  TruthLedger truth_;
  u64 truth_seq_ = 0;
};

}  // namespace ooh::guest
