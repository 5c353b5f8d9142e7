// A guest userspace process: VMAs, a page table, and the memory-access API
// that workloads run against. Every store routes through the simulated MMU,
// so dirty-tracking mechanisms observe real page-granularity write traffic.
//
// The process also keeps a zero-virtual-cost "truth" set of pages written
// since the last reset; the oracle tracker and the completeness tests use it
// (paper evaluation question 3).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "base/flat_page_map.hpp"
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
  [[nodiscard]] Vma* vma_of(Gva gva) noexcept;

  // ---- ground truth ---------------------------------------------------------
  /// Pages written since truth_reset(), each tagged with the global write
  /// sequence of its *last* write -- so interval consumers (oracle tracker)
  /// can tell re-dirtied pages apart from stale ones.
  [[nodiscard]] const FlatPageMap& truth_dirty() const noexcept {
    return truth_;
  }
  [[nodiscard]] u64 truth_seq() const noexcept { return truth_seq_; }
  void truth_reset() { truth_.clear(); }
  /// Record `n` consecutive writes to `gva_page`: the page keeps the last
  /// one's sequence number, as n single records would leave it.
  void truth_record(Gva gva_page, u64 n = 1) {
    truth_seq_ += n;
    truth_.insert_or_assign(gva_page, truth_seq_);
  }

 private:
  friend class GuestKernel;

  GuestKernel& kernel_;
  u32 pid_;
  unsigned cpu_ = 0;
  u64 cpu_mask_ = 1;
  std::vector<Vma> vmas_;
  std::size_t vma_mru_ = 0;  ///< index of the last VMA vma_of resolved to.
  /// The kernel-owned page table for this process, cached at creation so
  /// GuestKernel::page_table needs no scan (the table is heap-allocated and
  /// lives as long as the process).
  sim::GuestPageTable* pt_ = nullptr;
  Gva next_mmap_ = 0x1000'0000;  // grows upward, one guard page between VMAs
  u64 mapped_bytes_ = 0;
  FlatPageMap truth_;
  u64 truth_seq_ = 0;
};

}  // namespace ooh::guest
