// Four-level radix table over the x86-64 48-bit address split
// (9 + 9 + 9 + 9 index bits above the 12-bit page offset).
//
// Shared by the guest page table (GVA -> GPA) and the EPT (GPA -> HPA);
// only the leaf entry type differs. Interior nodes are allocated lazily so a
// sparse 1.5 GiB mapping costs a few thousand nodes.
//
// All nodes come from a per-table monotonic arena (base/arena.hpp): leaves
// are never freed individually (unmap zeroes entries in place), so the only
// deallocation point is clear()/destruction, which rewinds the arena
// wholesale. Raw `new`/`delete` of node types outside the arena is forbidden
// (lint rule radix-node-allocation) — it would reintroduce per-node heap
// traffic the steady-state allocs_per_op == 0 benchmarks pin down.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>

#include "base/arena.hpp"
#include "base/types.hpp"

namespace ooh::sim {

inline constexpr unsigned kRadixBits = 9;
inline constexpr std::size_t kRadixFanout = std::size_t{1} << kRadixBits;  // 512

/// Only bits 47:12 participate in the 9+9+9+9 split: an address with bits
/// set above 47 would silently alias a canonical one.
[[nodiscard]] constexpr bool radix_canonical(u64 addr) noexcept {
  return (addr >> 48) == 0;
}

[[nodiscard]] constexpr std::size_t radix_index(u64 addr, unsigned level) noexcept {
  // level 3 = top (bits 47:39) ... level 0 = leaf (bits 20:12).
  return (addr >> (kPageShift + kRadixBits * level)) & (kRadixFanout - 1);
}

template <typename EntryT>
class RadixTable4 {
 public:
  RadixTable4() = default;
  // Nodes hold raw arena pointers; copying or moving the table would alias
  // or orphan them, and no call site needs either.
  RadixTable4(const RadixTable4&) = delete;
  RadixTable4& operator=(const RadixTable4&) = delete;

  /// Pointer to the leaf entry for `addr`, or nullptr if any interior node
  /// on the path is absent. Never allocates.
  ///
  /// A one-entry MRU paging-structure cache (the simulator's analogue of
  /// the hardware PDE/PDPTE caches) memoises the last leaf reached: a
  /// streaming access pattern resolves its next same-2MB-region walk with
  /// one tag compare instead of three pointer chases. The cache holds only
  /// the leaf *pointer* — entry flags are always re-read through it, and
  /// leaves are never freed (unmap zeroes entries in place), so a memoised
  /// pointer cannot dangle. Coherence is audited as WALK-1
  /// (docs/invariants.md) and the cache is dropped on structural
  /// invalidation points (see invalidate_walk_cache()).
  [[nodiscard]] EntryT* find(u64 addr) noexcept {
    assert(radix_canonical(addr) && "address beyond the 48-bit split aliases");
    const u64 tag = addr >> (kPageShift + kRadixBits);
    if (mru_leaf_ != nullptr && mru_tag_ == tag) {
      return &mru_leaf_->entries[radix_index(addr, 0)];
    }
    L2* l2 = root_.children[radix_index(addr, 3)];
    if (l2 == nullptr) return nullptr;
    L1* l1 = l2->children[radix_index(addr, 2)];
    if (l1 == nullptr) return nullptr;
    Leaf* leaf = l1->children[radix_index(addr, 1)];
    if (leaf == nullptr) return nullptr;
    mru_leaf_ = leaf;
    mru_tag_ = tag;
    return &leaf->entries[radix_index(addr, 0)];
  }
  [[nodiscard]] const EntryT* find(u64 addr) const noexcept {
    return const_cast<RadixTable4*>(this)->find(addr);
  }

  /// Leaf entry for `addr`, allocating interior nodes as needed.
  [[nodiscard]] EntryT& ensure(u64 addr) {
    assert(radix_canonical(addr) && "address beyond the 48-bit split aliases");
    const u64 tag = addr >> (kPageShift + kRadixBits);
    if (mru_leaf_ != nullptr && mru_tag_ == tag) {
      return mru_leaf_->entries[radix_index(addr, 0)];
    }
    L2*& l2 = root_.children[radix_index(addr, 3)];
    if (l2 == nullptr) l2 = arena_.create<L2>();
    L1*& l1 = l2->children[radix_index(addr, 2)];
    if (l1 == nullptr) l1 = arena_.create<L1>();
    Leaf*& leaf = l1->children[radix_index(addr, 1)];
    if (leaf == nullptr) {
      leaf = arena_.create<Leaf>();
      ++leaf_count_;
    }
    mru_leaf_ = leaf;
    mru_tag_ = tag;
    return leaf->entries[radix_index(addr, 0)];
  }

  /// Drop every node and rewind the arena (blocks are kept warm for
  /// reuse), instead of destroying and reconstructing the owning object
  /// graph. GuestPageTable::convert_to_segments() empties the radix
  /// backend through this.
  void clear() noexcept {
    root_ = L3{};
    leaf_count_ = 0;
    huge_slabs_ = 0;
    mru_leaf_ = nullptr;
    mru_tag_ = 0;
    arena_.reset();
  }

  /// Drop the MRU walk cache. Called at the structural invalidation points
  /// (unmap paths), mirroring where the TLB is invalidated; see the "hot
  /// path" section of docs/architecture.md for why flag-only mutations need
  /// no invalidation (the leaf is re-read on every walk).
  void invalidate_walk_cache() const noexcept { mru_leaf_ = nullptr; }

  /// WALK-1: the memoised leaf must be exactly what a full walk of the
  /// memoised tag reaches. True when the cache is empty.
  [[nodiscard]] bool walk_cache_coherent() const noexcept {
    if (mru_leaf_ == nullptr) return true;
    const u64 addr = mru_tag_ << (kPageShift + kRadixBits);
    const L2* l2 = root_.children[radix_index(addr, 3)];
    if (l2 == nullptr) return false;
    const L1* l1 = l2->children[radix_index(addr, 2)];
    if (l1 == nullptr) return false;
    return l1->children[radix_index(addr, 1)] == mru_leaf_;
  }

  /// Test-only corruption hook for the coherence oracle's mutation
  /// self-test: re-tags the cached leaf so it no longer matches a real walk.
  void debug_skew_walk_cache() noexcept { mru_tag_ ^= u64{1} << 20; }

  /// Visit every entry in existing leaves as fn(page_base_addr, EntryT&).
  /// Visits entries whether or not they are "present"; callers filter.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i3 = 0; i3 < kRadixFanout; ++i3) {
      L2* l2 = root_.children[i3];
      if (l2 == nullptr) continue;
      for (std::size_t i2 = 0; i2 < kRadixFanout; ++i2) {
        L1* l1 = l2->children[i2];
        if (l1 == nullptr) continue;
        for (std::size_t i1 = 0; i1 < kRadixFanout; ++i1) {
          Leaf* leaf = l1->children[i1];
          if (leaf == nullptr) continue;
          for (std::size_t i0 = 0; i0 < kRadixFanout; ++i0) {
            const u64 addr = ((static_cast<u64>(i3) << (kRadixBits * 3)) |
                              (static_cast<u64>(i2) << (kRadixBits * 2)) |
                              (static_cast<u64>(i1) << kRadixBits) | static_cast<u64>(i0))
                             << kPageShift;
            fn(addr, leaf->entries[i0]);
          }
        }
      }
    }
  }

  [[nodiscard]] std::size_t leaf_count() const noexcept { return leaf_count_; }

  // ---- PS-bit (huge) leaves -------------------------------------------------
  // A leaf may sit one level up (2 MiB, stored beside an L1's children) or
  // two (1 GiB, beside an L2's). The walk checks huge slots top-down before
  // descending, exactly like hardware honours the PS bit, so a present huge
  // leaf shadows any (necessarily non-present, GRAN-1) 4 KiB entries below
  // it. EntryT needs a `present` member for these paths; tables that never
  // call them (plain RadixTable4<u64> benches) never instantiate it.

  /// True once any huge slab has been allocated: the fast guard that keeps
  /// the all-4K walk byte-identical to the pre-huge-page code.
  [[nodiscard]] bool has_huge() const noexcept { return huge_slabs_ != 0; }

  /// Top-down walk honouring PS bits: returns the present huge leaf
  /// covering `addr` (setting `gran`), else the 4 KiB entry from find()
  /// (gran = k4K; may be null or non-present).
  [[nodiscard]] EntryT* find_leaf(u64 addr, PageGran& gran) noexcept {
    if (huge_slabs_ != 0) {
      L2* l2 = root_.children[radix_index(addr, 3)];
      if (l2 != nullptr) {
        if (l2->huge != nullptr) {
          EntryT& e = (*l2->huge)[radix_index(addr, 2)];
          if (e.present) {
            gran = PageGran::k1G;
            return &e;
          }
        }
        L1* l1 = l2->children[radix_index(addr, 2)];
        if (l1 != nullptr && l1->huge != nullptr) {
          EntryT& e = (*l1->huge)[radix_index(addr, 1)];
          if (e.present) {
            gran = PageGran::k2M;
            return &e;
          }
        }
      }
    }
    gran = PageGran::k4K;
    return find(addr);
  }
  [[nodiscard]] const EntryT* find_leaf(u64 addr, PageGran& gran) const noexcept {
    return const_cast<RadixTable4*>(this)->find_leaf(addr, gran);
  }

  /// Huge-leaf slot covering `addr` at exactly granularity `g`, allocating
  /// the slab (and interior nodes) as needed. The caller owns present-ness
  /// and overlap discipline (GRAN-1).
  [[nodiscard]] EntryT& ensure_huge(u64 addr, PageGran g) {
    assert(radix_canonical(addr) && "address beyond the 48-bit split aliases");
    assert(g != PageGran::k4K && "use ensure() for base pages");
    L2*& l2 = root_.children[radix_index(addr, 3)];
    if (l2 == nullptr) l2 = arena_.create<L2>();
    if (g == PageGran::k1G) {
      if (l2->huge == nullptr) {
        l2->huge = arena_.create<HugeSlab>();
        ++huge_slabs_;
      }
      return (*l2->huge)[radix_index(addr, 2)];
    }
    L1*& l1 = l2->children[radix_index(addr, 2)];
    if (l1 == nullptr) l1 = arena_.create<L1>();
    if (l1->huge == nullptr) {
      l1->huge = arena_.create<HugeSlab>();
      ++huge_slabs_;
    }
    return (*l1->huge)[radix_index(addr, 1)];
  }

  /// Huge-leaf slot for `addr` at exactly granularity `g`, or nullptr when
  /// no slab exists there. Never allocates; no present check.
  [[nodiscard]] EntryT* find_huge(u64 addr, PageGran g) noexcept {
    if (huge_slabs_ == 0) return nullptr;
    L2* l2 = root_.children[radix_index(addr, 3)];
    if (l2 == nullptr) return nullptr;
    if (g == PageGran::k1G) {
      return l2->huge != nullptr ? &(*l2->huge)[radix_index(addr, 2)] : nullptr;
    }
    L1* l1 = l2->children[radix_index(addr, 2)];
    if (l1 == nullptr || l1->huge == nullptr) return nullptr;
    return &(*l1->huge)[radix_index(addr, 1)];
  }

  /// Visit every entry of every granularity as fn(base_addr, EntryT&, gran):
  /// 1 GiB slabs, then 2 MiB slabs, then the 4 KiB leaves. Like for_each,
  /// non-present entries are visited too; callers filter.
  template <typename Fn>
  void for_each_leaf(Fn&& fn) {
    if (huge_slabs_ != 0) {
      for (std::size_t i3 = 0; i3 < kRadixFanout; ++i3) {
        L2* l2 = root_.children[i3];
        if (l2 == nullptr) continue;
        if (l2->huge != nullptr) {
          for (std::size_t i2 = 0; i2 < kRadixFanout; ++i2) {
            const u64 addr = ((static_cast<u64>(i3) << kRadixBits) | i2)
                             << gran_shift(PageGran::k1G);
            fn(addr, (*l2->huge)[i2], PageGran::k1G);
          }
        }
        for (std::size_t i2 = 0; i2 < kRadixFanout; ++i2) {
          L1* l1 = l2->children[i2];
          if (l1 == nullptr || l1->huge == nullptr) continue;
          for (std::size_t i1 = 0; i1 < kRadixFanout; ++i1) {
            const u64 addr = ((static_cast<u64>(i3) << (kRadixBits * 2)) |
                              (static_cast<u64>(i2) << kRadixBits) | i1)
                             << gran_shift(PageGran::k2M);
            fn(addr, (*l1->huge)[i1], PageGran::k2M);
          }
        }
      }
    }
    for_each([&fn](u64 addr, EntryT& e) { fn(addr, e, PageGran::k4K); });
  }

 private:
  struct Leaf {
    std::array<EntryT, kRadixFanout> entries{};
  };
  using HugeSlab = std::array<EntryT, kRadixFanout>;
  struct L1 {
    std::array<Leaf*, kRadixFanout> children{};
    // PS-bit leaves: slot i is a 2 MiB leaf entry covering the same span as
    // children[i]'s whole 4 KiB leaf. Allocated lazily on first huge map so
    // all-4K tables never pay for it.
    HugeSlab* huge = nullptr;
  };
  struct L2 {
    std::array<L1*, kRadixFanout> children{};
    HugeSlab* huge = nullptr;  ///< 1 GiB PS-bit leaves.
  };
  struct L3 {
    std::array<L2*, kRadixFanout> children{};
  };
  base::Arena arena_;  ///< owns every node below root_.
  L3 root_;
  std::size_t leaf_count_ = 0;
  std::size_t huge_slabs_ = 0;  ///< allocated huge slabs; never shrinks.
  // MRU walk cache: mutable so const find() can refresh it. Each table is
  // owned by exactly one VM timeline (like the TLB), so there is no
  // cross-thread access to guard.
  mutable Leaf* mru_leaf_ = nullptr;
  mutable u64 mru_tag_ = 0;
};

}  // namespace ooh::sim
