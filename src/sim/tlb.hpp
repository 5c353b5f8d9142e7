// Per-vCPU TLB.
//
// The TLB is what makes dirty-page *logging* an edge-triggered event: a
// store through a translation whose dirty state is already cached performs
// no page walk, sets no dirty flag, and therefore logs nothing. Tracking
// techniques re-arm logging by clearing dirty/permission state and
// invalidating the cached translation (clear_refs -> full flush; PML drain
// -> per-page invalidation), exactly as on real hardware.
//
// Entries are ASID-tagged by guest PID (PCID-style), so context switches
// need not flush.
//
// Storage is a fixed-size open-addressed array, fully allocated at
// construction: a dense slot array holding the live entries (insertion
// order, swap-with-last eviction) plus a power-of-two linear-probe index
// mapping (pid, gva_page) -> slot. The steady-state hit path performs no
// heap allocation (pinned by the gbench perf harness), and the
// pseudo-random victim selection is byte-for-byte the sequence the previous
// map+vector implementation produced, so every virtual-time output is
// unchanged. PID and GVA are stored at full width — the old packed
// `pid << 40` key silently aliased PIDs >= 2^24 (and GVAs >= 2^52, which
// the radix canonicality assert already forbids).
//
// Two memos spare the index probe on the access pipeline's repeat questions.
// Neither changes what lookup() returns or the victim sequence:
//   * last hit: the slot position of the last exact-key hit (or insert),
//     trusted only while that position is live and its slot still holds the
//     same (pid, page) — eviction and flushing need not touch it;
//   * last absent key: the last exact key found absent (by a probe, or by
//     invalidating it). Only insert() can make a key present, so only
//     insert() clears it. A TLB miss is then one probe, not three
//     (access_run, Mmu::access and the fill's insert each used to ask).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "base/types.hpp"

namespace ooh::sim {

struct TlbEntry {
  Gpa gpa_page = 0;  ///< granularity-aligned GPA base of the cached region.
  Hpa hpa_page = 0;  ///< granularity-aligned HPA base of the cached region.
  bool writable = false;  ///< effective write permission at fill time.
  bool dirty = false;     ///< guest-PTE and EPT dirty flags were set at fill.
  /// Cached translation granularity. A k2M entry is keyed by its 2 MiB-
  /// aligned base GVA and answers every page in the region (its bases are
  /// region bases; the MMU adds the in-region offset). Filled only when
  /// guest leaf AND EPT leaf are both >= the granularity, so base+offset
  /// arithmetic is valid across the whole region.
  PageGran gran = PageGran::k4K;
};

class Tlb {
 public:
  explicit Tlb(std::size_t capacity = 1536);

  /// Cached translation covering `gva_page`: the exact 4 KiB key first,
  /// then — only when huge entries exist at all — the 2 MiB / 1 GiB region
  /// bases. All-4K workloads never pay the extra probes.
  [[nodiscard]] TlbEntry* lookup(u32 pid, Gva gva_page) noexcept {
    assert((gva_page >> 48) == 0 && "GVA beyond the 48-bit canonical split");
    gva_page = page_floor(gva_page);  // tags are page-granular
    if (memo_hit(pid, gva_page)) return &slots_[hit_pos_].entry;
    return lookup_indexed(pid, gva_page);
  }
  void insert(u32 pid, Gva gva_page, const TlbEntry& entry);
  /// Drop the entry whose span covers `gva_page` (a huge entry covering the
  /// page is dropped whole, as INVLPG does).
  void invalidate_page(u32 pid, Gva gva_page) noexcept;
  /// Drop every entry overlapping the `gran`-sized region at `base` — the
  /// shootdown a huge-leaf unmap/split owes (a 2 MiB region may be cached
  /// as one huge entry, as 512 4 KiB entries, or any mix).
  void invalidate_region(u32 pid, Gva base, PageGran gran) noexcept;
  void flush_pid(u32 pid) noexcept;
  void flush_all() noexcept;

  /// False only when lookup(pid, gva_page) is known to return nullptr
  /// without asking the index: the exact key is the memoised absent one and
  /// no huge entry exists to cover it.
  [[nodiscard]] bool may_hold(u32 pid, Gva gva_page) const noexcept {
    return huge_entries_ != 0 || !known_absent(pid, page_floor(gva_page));
  }

  /// Live entries with gran != k4K (guards the extra lookup probes).
  [[nodiscard]] std::size_t huge_entries() const noexcept { return huge_entries_; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Read-only visit of every cached translation as
  /// fn(pid, gva_page, const TlbEntry&); used by the coherence oracle to
  /// re-derive each entry from the authoritative tables.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) {
      fn(slots_[i].pid, slots_[i].gva_page, slots_[i].entry);
    }
  }

 private:
  struct Slot {
    u32 pid = 0;
    u32 bucket = 0;  ///< this slot's position in index_, kept in lockstep so
                     ///< eviction and flushing never re-probe.
    Gva gva_page = 0;
    TlbEntry entry;
  };
  static constexpr u32 kEmptyBucket = 0;  ///< index_ stores slot pos + 1.

  [[nodiscard]] bool memo_hit(u32 pid, Gva gva_page) const noexcept {
    return hit_pos_ < size_ && slots_[hit_pos_].pid == pid &&
           slots_[hit_pos_].gva_page == gva_page;
  }
  [[nodiscard]] bool known_absent(u32 pid, Gva gva_page) const noexcept {
    return absent_page_ == gva_page && absent_pid_ == pid;
  }
  void remember_absent(u32 pid, Gva gva_page) noexcept {
    absent_pid_ = pid;
    absent_page_ = gva_page;
  }
  /// Slot position of the exact key (pid, gva_page), or SIZE_MAX when it is
  /// absent, for a key the last-hit memo did not match: the absent memo,
  /// else one index probe, whose answer becomes the new memo.
  [[nodiscard]] std::size_t exact_slot(u32 pid, Gva gva_page) noexcept;
  /// lookup() past the last-hit memo: the exact key, then the huge-region
  /// bases.
  [[nodiscard]] TlbEntry* lookup_indexed(u32 pid, Gva gva_page) noexcept;
  [[nodiscard]] std::size_t bucket_of(u32 pid, Gva gva_page) const noexcept;
  /// Probe for the bucket holding (pid, gva_page); returns the bucket index
  /// or SIZE_MAX when absent.
  [[nodiscard]] std::size_t find_bucket(u32 pid, Gva gva_page) const noexcept;
  void index_insert(u32 pid, Gva gva_page, std::size_t pos) noexcept;
  /// Remove bucket `b` with backward-shift deletion (no tombstones, so
  /// probe chains never degrade).
  void index_erase(std::size_t b) noexcept;
  void evict_at(std::size_t pos) noexcept;

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::size_t bucket_mask_ = 0;  ///< index_.size() - 1 (power of two).
  std::vector<Slot> slots_;      ///< dense live entries, [0, size_).
  std::vector<u32> index_;       ///< open-addressed (pid, gva) -> pos + 1.
  std::size_t huge_entries_ = 0;
  u64 rand_state_ = 0x853c49e6748fea9bULL;  // deterministic victim choice
  /// An unaligned page: no key equals it, so the absent memo names nothing.
  static constexpr Gva kNoAbsentKey = 1;
  std::size_t hit_pos_ = 0;  ///< last-hit memo: a slot position, validated on use.
  u32 absent_pid_ = 0;       ///< last-absent-key memo: (absent_pid_, absent_page_).
  Gva absent_page_ = kNoAbsentKey;
};

}  // namespace ooh::sim
