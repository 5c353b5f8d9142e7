// Multi-granularity translation: PageGran helpers, PS-bit huge leaves in
// the guest radix tables and the EPT, the gran-tagged TLB, KVM-style eager
// page splitting, and the segment-table backend — plus the property sweeps
// that keep GRAN-1 (leaf exclusivity) true under random mixed-granularity
// operation on both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "base/rng.hpp"
#include "base/types.hpp"
#include "guest/kernel.hpp"
#include "hypervisor/hypervisor.hpp"
#include "ooh/testbed.hpp"
#include "sim/ept.hpp"
#include "sim/mmu.hpp"
#include "sim/page_table.hpp"
#include "sim/segment_table.hpp"

namespace ooh {
namespace {

// ---- PageGran helpers -------------------------------------------------------

TEST(GranHelpers, SizesMasksAndIndexing) {
  EXPECT_EQ(gran_size(PageGran::k4K), u64{4096});
  EXPECT_EQ(gran_size(PageGran::k2M), u64{2} * kMiB);
  EXPECT_EQ(gran_size(PageGran::k1G), u64{1} * kGiB);
  EXPECT_EQ(gran_pages(PageGran::k4K), u64{1});
  EXPECT_EQ(gran_pages(PageGran::k2M), u64{512});
  EXPECT_EQ(gran_pages(PageGran::k1G), u64{512} * 512);

  const u64 addr = 3 * kGiB + 5 * kMiB + 123;
  EXPECT_EQ(gran_floor(addr, PageGran::k2M), 3 * kGiB + 4 * kMiB);
  EXPECT_EQ(gran_floor(addr, PageGran::k1G), 3 * kGiB);
  EXPECT_EQ(gran_offset(addr, PageGran::k2M), kMiB + 123);
  EXPECT_TRUE(is_gran_aligned(4 * kMiB, PageGran::k2M));
  EXPECT_FALSE(is_gran_aligned(4 * kMiB + kPageSize, PageGran::k2M));
  EXPECT_TRUE(is_gran_aligned(0, PageGran::k1G));
  EXPECT_EQ(gran_ceil(addr, PageGran::k2M), 3 * kGiB + 6 * kMiB);
  EXPECT_EQ(gran_ceil(6 * kMiB, PageGran::k2M), 6 * kMiB);
  EXPECT_STREQ(gran_name(PageGran::k4K), "4K");
  EXPECT_STREQ(gran_name(PageGran::k2M), "2M");
  EXPECT_STREQ(gran_name(PageGran::k1G), "1G");
}

TEST(GranHelpers, PmlEntryEncodeRoundTripsAndIsBitIdenticalAt4K) {
  const u64 base4k = 0x1234 * kPageSize;
  // Gran code 0 = 4K: an all-4K PML buffer holds raw addresses, so the
  // encoding is invisible to every pre-existing consumer.
  EXPECT_EQ(pml_entry_encode(base4k, PageGran::k4K), base4k);
  EXPECT_EQ(pml_entry_base(base4k), base4k);
  EXPECT_EQ(pml_entry_gran(base4k), PageGran::k4K);

  const u64 base2m = 7 * 2 * kMiB;
  const u64 e2m = pml_entry_encode(base2m, PageGran::k2M);
  EXPECT_NE(e2m, base2m);
  EXPECT_EQ(pml_entry_base(e2m), base2m);
  EXPECT_EQ(pml_entry_gran(e2m), PageGran::k2M);

  const u64 e1g = pml_entry_encode(3 * kGiB, PageGran::k1G);
  EXPECT_EQ(pml_entry_base(e1g), 3 * kGiB);
  EXPECT_EQ(pml_entry_gran(e1g), PageGran::k1G);
}

// Regression: the old `(addr + kPageSize - 1) & ~kOffsetMask` form wrapped
// to 0 for addresses in the topmost page; the helper must saturate.
TEST(GranHelpers, PageCeilSaturatesAtTheTopOfTheAddressSpace) {
  EXPECT_EQ(page_ceil(0), u64{0});
  EXPECT_EQ(page_ceil(1), kPageSize);
  EXPECT_EQ(page_ceil(kPageSize), kPageSize);
  EXPECT_EQ(page_ceil(kPageSize + 1), 2 * kPageSize);
  const u64 top_page = gran_mask(PageGran::k4K);  // 0xFFFF...F000
  EXPECT_EQ(page_ceil(top_page), top_page);
  EXPECT_EQ(page_ceil(top_page + 1), top_page);  // saturates, no wrap to 0
  EXPECT_EQ(page_ceil(~u64{0}), top_page);
  EXPECT_EQ(gran_ceil(~u64{0}, PageGran::k1G), gran_mask(PageGran::k1G));
}

// ---- huge leaves in the guest radix tables ---------------------------------

TEST(MultiGranPageTable, HugeLeafSharesOnePteAcrossItsRegion) {
  sim::GuestPageTable pt;
  const Gva base = 4 * kMiB;
  const Gpa gpa = 32 * kMiB;
  pt.map_huge(base, gpa, PageGran::k2M, true);
  EXPECT_EQ(pt.present_pages(), gran_pages(PageGran::k2M));

  const sim::GuestPageTable::Lookup first = pt.lookup(base);
  const sim::GuestPageTable::Lookup mid = pt.lookup(base + 77 * kPageSize + 123);
  ASSERT_NE(first.pte, nullptr);
  EXPECT_EQ(first.gran, PageGran::k2M);
  EXPECT_EQ(first.pte, mid.pte);  // one shared leaf for the whole region
  EXPECT_EQ(first.gpa_page, gpa);
  EXPECT_EQ(mid.gpa_page, gpa + 77 * kPageSize);

  u64 leaves = 0;
  pt.for_each_leaf_present([&](Gva b, sim::Pte&, PageGran g) {
    ++leaves;
    EXPECT_EQ(b, base);
    EXPECT_EQ(g, PageGran::k2M);
  });
  EXPECT_EQ(leaves, 1u);

  // The per-4K view expands the leaf with per-page GPAs.
  u64 pages = 0;
  pt.for_each_mapping([&](Gva g, const sim::Pte&, Gpa gp) {
    EXPECT_EQ(gp - gpa, g - base);
    ++pages;
  });
  EXPECT_EQ(pages, gran_pages(PageGran::k2M));

  pt.unmap_huge(base, PageGran::k2M);
  EXPECT_EQ(pt.lookup(base).pte, nullptr);
  EXPECT_EQ(pt.present_pages(), 0u);
}

// ---- EPT huge leaves and eager splitting -----------------------------------

TEST(MultiGranEpt, SplitHugeLeafPreservesTranslationAndFlags) {
  sim::Ept ept;
  const Gpa base = 512 * kMiB;
  const Hpa run = 64 * kMiB;
  ept.map_huge(base, run, PageGran::k2M, true);
  EXPECT_EQ(ept.huge_leaves(), 1u);

  // Establish flags on the parent so the children must inherit them.
  sim::Ept::Lookup parent = ept.lookup(base + 9 * kPageSize);
  ASSERT_NE(parent.entry, nullptr);
  EXPECT_EQ(parent.gran, PageGran::k2M);
  EXPECT_EQ(parent.hpa_page, run + 9 * kPageSize);
  parent.entry->accessed = true;
  parent.entry->dirty = true;

  const u64 children = ept.split_huge_leaf(base, PageGran::k2M);
  EXPECT_EQ(children, gran_pages(PageGran::k2M));
  EXPECT_EQ(ept.huge_leaves(), 0u);
  for (const u64 i : {u64{0}, u64{1}, u64{255}, u64{511}}) {
    const sim::Ept::Lookup c = ept.lookup(base + i * kPageSize);
    ASSERT_NE(c.entry, nullptr);
    EXPECT_EQ(c.gran, PageGran::k4K);
    EXPECT_EQ(c.hpa_page, run + i * kPageSize);  // HPA run carved in place
    EXPECT_TRUE(c.entry->present);
    EXPECT_TRUE(c.entry->writable);
    EXPECT_TRUE(c.entry->accessed);
    EXPECT_TRUE(c.entry->dirty);
  }

  // 1G shatters into 512 2M leaves (one level per split, as KVM does).
  sim::Ept big;
  big.map_huge(0, 8 * kGiB, PageGran::k1G, true);
  EXPECT_EQ(big.huge_leaves(), 1u);
  EXPECT_EQ(big.split_huge_leaf(0, PageGran::k1G), u64{512});
  EXPECT_EQ(big.huge_leaves(), 512u);
  const sim::Ept::Lookup c2m = big.lookup(3 * 2 * kMiB + 5 * kPageSize);
  ASSERT_NE(c2m.entry, nullptr);
  EXPECT_EQ(c2m.gran, PageGran::k2M);
  EXPECT_EQ(c2m.hpa_page, 8 * kGiB + 3 * 2 * kMiB + 5 * kPageSize);
}

// entry(), lookup() and for_each_present() skip the huge slabs while no huge
// leaf is present, though a split leaves its slab allocated. Map a leaf,
// split it, map another in a fresh 2 MiB region, then unmap that one: at
// every stage each query must match a model of the mapped leaves.
TEST(MultiGranEpt, QueriesMatchLeafModelAfterSplitAndRemap) {
  sim::Ept ept;
  const Gpa a = 4 * kMiB, b = 10 * kMiB;
  const Hpa run_a = 64 * kMiB, run_b = 128 * kMiB;
  struct Leaf {
    Gpa base;
    PageGran gran;
    Hpa hpa;
  };
  std::vector<Leaf> model;
  const auto check = [&](const char* stage) {
    SCOPED_TRACE(stage);
    std::map<Gpa, Hpa> want;  // every mapped 4 KiB page -> its HPA
    for (const Leaf& l : model) {
      for (u64 i = 0; i < gran_pages(l.gran); ++i) want[l.base + i * kPageSize] = l.hpa + i * kPageSize;
    }
    for (Gpa page = 0; page < 16 * kMiB; page += kPageSize) {
      const auto it = want.find(page);
      const sim::Ept::Lookup lu = ept.lookup(page + 123);
      const sim::EptEntry* e = ept.entry(page);
      const bool mapped = lu.entry != nullptr && lu.entry->present;
      ASSERT_EQ(mapped, it != want.end()) << "page " << page;
      ASSERT_EQ(e != nullptr && e->present, mapped) << "page " << page;
      if (!mapped) continue;
      ASSERT_EQ(e, lu.entry);
      ASSERT_EQ(lu.hpa_page, it->second) << "page " << page;
      const auto leaf = std::find_if(model.begin(), model.end(), [&](const Leaf& l) {
        return page >= l.base && page < l.base + gran_size(l.gran);
      });
      ASSERT_EQ(lu.gran, leaf->gran) << "page " << page;
    }
    std::map<Gpa, Hpa> seen;
    ept.for_each_present([&](Gpa page, sim::EptEntry& e) {
      const sim::Ept::Lookup lu = ept.lookup(page);
      EXPECT_EQ(&e, lu.entry);
      seen[page] = lu.hpa_page;
    });
    EXPECT_EQ(seen, want);
    u64 huge = 0;
    for (const Leaf& l : model) huge += l.gran != PageGran::k4K ? 1 : 0;
    EXPECT_EQ(ept.huge_leaves(), huge);
  };

  ept.map_huge(a, run_a, PageGran::k2M, true);
  model.push_back({a, PageGran::k2M, run_a});
  check("one 2 MiB leaf");

  ASSERT_EQ(ept.split_huge_leaf(a, PageGran::k2M), gran_pages(PageGran::k2M));
  model.clear();
  for (u64 i = 0; i < gran_pages(PageGran::k2M); ++i) {
    model.push_back({a + i * kPageSize, PageGran::k4K, run_a + i * kPageSize});
  }
  check("split: no huge leaf, slab kept");  // SPLIT-1's state
  EXPECT_EQ(ept.huge_leaves(), 0u);

  ept.map_huge(b, run_b, PageGran::k2M, true);
  model.push_back({b, PageGran::k2M, run_b});
  check("4 KiB leaves beside a new 2 MiB leaf");

  ept.unmap_huge(b, PageGran::k2M);
  model.pop_back();
  check("the new leaf unmapped again");
}

// ---- gran-tagged TLB through the MMU ---------------------------------------

struct HugeMmuFixture {
  HugeMmuFixture()
      : machine(2 * kGiB, CostModel::unit()),
        hv(machine),
        vm(hv.create_vm(kGiB)),
        mmu(vm.vcpu(), vm.ept()) {}
  sim::Machine machine;
  hv::Hypervisor hv;
  hv::Vm& vm;
  sim::GuestPageTable pt;
  sim::Mmu mmu;
};

TEST(MultiGranTlb, HugeFillCoversTheRegionAndRegionInvalidationDropsIt) {
  HugeMmuFixture f;
  const Gva gva = 64 * kMiB;
  const Gpa gpa = 128 * kMiB;
  f.pt.map_huge(gva, gpa, PageGran::k2M, true);
  const Hpa run = f.vm.pmem().alloc_frames_contiguous(gran_pages(PageGran::k2M));
  f.vm.ept().map_huge(gpa, run, PageGran::k2M, true);

  const sim::Mmu::Result r = f.mmu.access(1, f.pt, gva + 13 * kPageSize + 5, true);
  ASSERT_EQ(r.status, sim::Mmu::Status::kOk);
  EXPECT_EQ(page_floor(r.hpa), run + 13 * kPageSize);

  // One huge entry serves every 4 KiB page of the region.
  sim::Tlb& tlb = f.vm.vcpu().tlb();
  EXPECT_EQ(tlb.huge_entries(), 1u);
  sim::TlbEntry* lo = tlb.lookup(1, gva);
  sim::TlbEntry* hi = tlb.lookup(1, gva + 511 * kPageSize);
  ASSERT_NE(lo, nullptr);
  EXPECT_EQ(lo, hi);
  EXPECT_EQ(lo->gran, PageGran::k2M);
  EXPECT_EQ(lo->gpa_page, gpa);
  EXPECT_EQ(lo->hpa_page, run);
  EXPECT_EQ(tlb.lookup(1, gva + 2 * kMiB), nullptr);  // next region: miss
  EXPECT_EQ(tlb.lookup(2, gva), nullptr);             // pid-tagged

  // The shootdown a huge unmap/split owes: region invalidation drops it.
  tlb.invalidate_region(1, gva, PageGran::k2M);
  EXPECT_EQ(tlb.lookup(1, gva + 13 * kPageSize), nullptr);
  EXPECT_EQ(tlb.huge_entries(), 0u);
}

TEST(MultiGranTlb, FillGranIsTheMinimumOfGuestAndEptLeaves) {
  HugeMmuFixture f;
  const Gva gva = 64 * kMiB;
  const Gpa gpa = 128 * kMiB;
  // Huge guest leaf over 4 KiB EPT leaves: the fill must drop to 4K — a 2M
  // entry would claim a contiguous HPA run the EPT never promised.
  f.pt.map_huge(gva, gpa, PageGran::k2M, true);
  for (u64 i = 0; i < 4; ++i) {
    f.vm.ept().map(gpa + i * kPageSize, f.vm.pmem().alloc_frame(), true);
  }
  const sim::Mmu::Result r = f.mmu.access(1, f.pt, gva + 2 * kPageSize, true);
  ASSERT_EQ(r.status, sim::Mmu::Status::kOk);
  sim::TlbEntry* te = f.vm.vcpu().tlb().lookup(1, gva + 2 * kPageSize);
  ASSERT_NE(te, nullptr);
  EXPECT_EQ(te->gran, PageGran::k4K);
  EXPECT_EQ(f.vm.vcpu().tlb().huge_entries(), 0u);
}

TEST(MultiGranTlb, SegmentFillCachesTheAccessedPagesOwnGpa) {
  HugeMmuFixture f;
  const Gva gva = 64 * kMiB;
  const Gpa gpa = 128 * kMiB;
  // One segment of four pages shares a single Pte whose gpa_page is the
  // run's base; a fill for a page inside the run must cache that page's
  // GPA, not the run's base (TLB-1).
  for (u64 i = 0; i < 4; ++i) {
    f.pt.map(gva + i * kPageSize, gpa + i * kPageSize, true);
    f.vm.ept().map(gpa + i * kPageSize, f.vm.pmem().alloc_frame(), true);
  }
  f.pt.convert_to_segments();
  ASSERT_EQ(f.pt.segment_table()->segment_count(), 1u);
  const sim::Mmu::Result r = f.mmu.access(1, f.pt, gva + 2 * kPageSize, true);
  ASSERT_EQ(r.status, sim::Mmu::Status::kOk);
  sim::TlbEntry* te = f.vm.vcpu().tlb().lookup(1, gva + 2 * kPageSize);
  ASSERT_NE(te, nullptr);
  EXPECT_EQ(te->gran, PageGran::k4K);
  EXPECT_EQ(te->gpa_page, gpa + 2 * kPageSize);
}

// ---- eager splitting: end-to-end dirty precision ---------------------------

// Harvested hypervisor-PML dirty sets for one deterministic workload under a
// given EPT backing mode.
std::vector<Gpa> harvest_under(bool ept_huge, bool eager_split) {
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = 256 * kMiB;
  opts.host_mem_bytes = 2 * kGiB;
  opts.ept_huge = ept_huge;
  opts.eager_split = eager_split;
  lib::TestBed bed(opts);
  auto& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 1024;  // two full 2 MiB regions
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  bed.hypervisor().enable_pml_for_hyp(bed.vm());
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; i += 97) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  std::vector<Gpa> dirty = bed.hypervisor().harvest_hyp_dirty(bed.vm());
  bed.hypervisor().disable_pml_for_hyp(bed.vm());
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

TEST(EagerSplit, RestoresPagePrecisionUnderHugeBacking) {
  const std::vector<Gpa> native4k = harvest_under(false, false);
  const std::vector<Gpa> split = harvest_under(true, true);
  const std::vector<Gpa> plain2m = harvest_under(true, false);

  // ISSUE acceptance: eager-split precision equals native 4K exactly.
  EXPECT_EQ(split, native4k);

  // Plain 2M logging names whole huge regions: a strict dirty superset.
  EXPECT_GT(plain2m.size(), native4k.size());
  EXPECT_TRUE(std::includes(plain2m.begin(), plain2m.end(), native4k.begin(),
                            native4k.end()));
}

TEST(EagerSplit, SessionShattersHugeLeavesAndFaultsFillAt4K) {
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = 256 * kMiB;
  opts.host_mem_bytes = 2 * kGiB;
  opts.ept_huge = true;
  opts.eager_split = true;
  lib::TestBed bed(opts);
  auto& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(4 * kMiB);
  for (u64 i = 0; i < 1024; ++i) proc.touch_write(base + i * kPageSize);
  EXPECT_GT(bed.vm().ept().huge_leaves(), 0u);  // THP backfill happened

  bed.hypervisor().enable_pml_for_hyp(bed.vm());
  EXPECT_TRUE(bed.vm().eager_split_active());
  EXPECT_EQ(bed.vm().ept().huge_leaves(), 0u);  // SPLIT-1

  // Mid-session demand faults must fill at 4K, not re-introduce huge leaves.
  const Gva more = proc.mmap(2 * kMiB);
  for (u64 i = 0; i < 512; ++i) proc.touch_write(more + i * kPageSize);
  EXPECT_EQ(bed.vm().ept().huge_leaves(), 0u);

  bed.hypervisor().disable_pml_for_hyp(bed.vm());
  EXPECT_FALSE(bed.vm().eager_split_active());
}

TEST(HugeBackfill, RefaultAfterMunmapStaysInsideTheWindow) {
  // Huge runs come only from the bump region of the VM's host-frame window,
  // never from recycled frames. A VM that backs its whole memory with huge
  // leaves, frees it and faults it in again finds no room for a fresh run:
  // the backfill falls back to 4 KiB frames from the free list instead of
  // failing.
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = 4 * kMiB;
  opts.host_mem_bytes = 64 * kMiB;
  opts.ept_huge = true;
  lib::TestBed bed(opts);
  guest::Process& proc = bed.kernel().create_process();
  const u64 pages = 1023;  // every guest frame but the reserved GPA 0
  const auto fill = [&] {
    const Gva base = proc.mmap(pages * kPageSize);
    for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
    return base;
  };
  const Gva first = fill();
  ASSERT_EQ(bed.vm().ept().huge_leaves(), 2u);
  proc.munmap(first);
  // The split left GPA 0's frame mapped: the process never owned it.
  EXPECT_EQ(bed.vm().pmem().used_frames(), 1u);
  ASSERT_NO_THROW((void)fill());
  EXPECT_EQ(bed.vm().ept().huge_leaves(), 0u);
  EXPECT_EQ(bed.vm().pmem().used_frames(), pages + 1);
  bed.vm().ept().for_each_mapping([&](Gpa, const sim::EptEntry&, Hpa hpa, PageGran) {
    EXPECT_TRUE(bed.vm().pmem().owns(page_index(hpa)));
  });
}

// ---- property sweeps: GRAN-1 under random mixed-gran operation -------------

// Radix backend: random 2M-region ops (map huge / map 4K pages / unmap
// either), a shadow model, and the leaf-exclusivity sweep after every step.
TEST(MultiGranProperty, RandomMixedGranOpsKeepLeavesExclusive) {
  sim::GuestPageTable pt;
  constexpr u64 kRegions = 16;
  const Gva lo = 8 * kMiB;
  // Shadow model: per region, kind 0 = empty, 1 = huge, 2 = some 4K pages.
  struct Region {
    int kind = 0;
    std::set<u64> pages;  // for kind 2
  };
  std::vector<Region> model(kRegions);
  std::map<Gva, Gpa> expected;  // per-4K truth

  Rng rng(1234);
  for (int step = 0; step < 400; ++step) {
    const u64 r = rng.below(kRegions);
    const Gva base = lo + r * gran_size(PageGran::k2M);
    const Gpa gpa = kGiB + r * gran_size(PageGran::k2M);
    Region& m = model[r];
    switch (rng.below(4)) {
      case 0:  // map huge (only over an empty region: caller keeps GRAN-1)
        if (m.kind == 0) {
          pt.map_huge(base, gpa, PageGran::k2M, true);
          m.kind = 1;
          for (u64 i = 0; i < 512; ++i) expected[base + i * kPageSize] = gpa + i * kPageSize;
        }
        break;
      case 1:  // map a few 4K pages
        if (m.kind != 1) {
          for (int n = 0; n < 8; ++n) {
            const u64 i = rng.below(512);
            pt.map(base + i * kPageSize, gpa + i * kPageSize, true);
            m.pages.insert(i);
            expected[base + i * kPageSize] = gpa + i * kPageSize;
          }
          m.kind = 2;
        }
        break;
      case 2:  // unmap huge
        if (m.kind == 1) {
          pt.unmap_huge(base, PageGran::k2M);
          m = Region{};
          for (u64 i = 0; i < 512; ++i) expected.erase(base + i * kPageSize);
        }
        break;
      default:  // unmap one 4K page
        if (m.kind == 2 && !m.pages.empty()) {
          const u64 i = *m.pages.begin();
          pt.unmap(base + i * kPageSize);
          m.pages.erase(i);
          if (m.pages.empty()) m.kind = 0;
          expected.erase(base + i * kPageSize);
        }
        break;
    }

    // GRAN-1 sweep: present leaves never overlap.
    std::vector<std::pair<u64, u64>> leaves;
    pt.for_each_leaf_present([&](Gva b, sim::Pte&, PageGran g) {
      leaves.emplace_back(b, b + gran_size(g));
    });
    std::sort(leaves.begin(), leaves.end());
    for (std::size_t i = 1; i < leaves.size(); ++i) {
      ASSERT_LE(leaves[i - 1].second, leaves[i].first) << "leaf overlap at step " << step;
    }

    // Spot-check translations against the shadow model.
    for (int probe = 0; probe < 16; ++probe) {
      const Gva g = lo + rng.below(kRegions * 512) * kPageSize;
      const sim::GuestPageTable::Lookup lu = pt.lookup(g);
      const auto it = expected.find(g);
      if (it == expected.end()) {
        EXPECT_TRUE(lu.pte == nullptr || !lu.pte->present) << std::hex << g;
      } else {
        ASSERT_NE(lu.pte, nullptr) << std::hex << g;
        EXPECT_EQ(lu.gpa_page, it->second) << std::hex << g;
      }
    }
  }
  EXPECT_EQ(pt.present_pages(), expected.size());
}

// Segment backend: random page map/unmap; find() must match a shadow map
// and coherent() (GRAN-1's segment form) must hold after every step.
TEST(MultiGranProperty, SegmentTableStaysCoherentUnderRandomOps) {
  sim::SegmentTable segs;
  std::map<Gva, Gpa> expected;
  Rng rng(77);
  constexpr u64 kSlots = 256;
  for (int step = 0; step < 2000; ++step) {
    const u64 slot = rng.below(kSlots);
    const Gva gva = 16 * kMiB + slot * kPageSize;
    // Half the slots translate contiguously (coalescable), half scattered.
    const Gpa gpa = slot % 2 == 0 ? 64 * kMiB + slot * kPageSize
                                  : 128 * kMiB + slot * 3 * kPageSize;
    if (expected.count(gva) == 0 && rng.below(2) == 0) {
      segs.map(gva, gpa, true);
      expected[gva] = gpa;
    } else {
      segs.unmap(gva);
      expected.erase(gva);
    }
    ASSERT_TRUE(segs.coherent()) << "step " << step;
    ASSERT_EQ(segs.present_pages(), expected.size());
    for (int probe = 0; probe < 8; ++probe) {
      const Gva g = 16 * kMiB + rng.below(kSlots) * kPageSize;
      const sim::Segment* s = segs.find(g);
      const auto it = expected.find(g);
      if (it == expected.end()) {
        EXPECT_EQ(s, nullptr) << std::hex << g;
      } else {
        ASSERT_NE(s, nullptr) << std::hex << g;
        EXPECT_EQ(s->gpa_of(g), it->second) << std::hex << g;
      }
    }
  }
}

// The conversion pass coalesces contiguous identical-flag runs and the
// segment backend then serves the same translations through the walk seam.
TEST(MultiGranProperty, ConvertToSegmentsPreservesEveryTranslation) {
  sim::GuestPageTable pt;
  std::map<Gva, Gpa> expected;
  Rng rng(5);
  for (int n = 0; n < 300; ++n) {
    const Gva gva = 32 * kMiB + rng.below(1024) * kPageSize;
    const Gpa gpa = 256 * kMiB + rng.below(4096) * kPageSize;
    if (expected.count(gva) != 0) continue;
    pt.map(gva, gpa, true);
    expected[gva] = gpa;
  }
  pt.convert_to_segments();
  ASSERT_EQ(pt.backend(), sim::TranslationBackend::kSegment);
  ASSERT_NE(pt.segment_table(), nullptr);
  EXPECT_TRUE(pt.segment_table()->coherent());
  EXPECT_EQ(pt.present_pages(), expected.size());
  for (const auto& [gva, gpa] : expected) {
    const sim::GuestPageTable::Lookup lu = pt.lookup(gva);
    ASSERT_NE(lu.pte, nullptr) << std::hex << gva;
    EXPECT_EQ(lu.gpa_page, gpa) << std::hex << gva;
  }
  EXPECT_EQ(pt.lookup(16 * kMiB).pte, nullptr);
}

}  // namespace
}  // namespace ooh
