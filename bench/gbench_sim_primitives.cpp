// google-benchmark microbenches of the simulator itself (host wall-clock,
// not virtual time): MMU fast/slow paths, TLB, PML logging circuit, radix
// tables, ring buffer. These bound how big a --full experiment can get.
//
// This binary doubles as the perf-regression harness: CI runs it in Release
// with --benchmark_format=json and tools/check_bench_regression.py compares
// cpu_time against the committed baseline (bench/BENCH_PR9.json), failing on
// >2x regressions. Hot-path benches additionally export an `allocs_per_op`
// counter (via the replaced global operator new below) that the checker
// pins to zero — the steady-state hit path must never touch the heap.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

// The replaced operator new below is malloc-backed; GCC pairs the inlined
// malloc with the matching operator delete (also free-backed) and warns
// spuriously at every call site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "base/arena.hpp"
#include "base/clock.hpp"
#include "base/cost_model.hpp"
#include "base/page_bitmap.hpp"
#include "base/ring_buffer.hpp"
#include "base/rng.hpp"
#include "ooh/adaptive/policy.hpp"
#include "guest/kernel.hpp"
#include "hypervisor/dirty_ring.hpp"
#include "hypervisor/hypervisor.hpp"
#include "sim/machine.hpp"
#include "sim/mmu.hpp"
#include "sim/page_track.hpp"
#include "sim/radix.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "trackers/boehmgc/gc.hpp"
#include "trackers/criu/checkpoint.hpp"

// ---- heap-allocation instrumentation ----------------------------------------
// Counts every scalar/array heap allocation in the process. Benchmarks that
// claim an allocation-free steady state snapshot the counter around their
// timing loop and export the per-iteration delta as `allocs_per_op`.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ooh {
namespace {

/// RAII exporter: measures heap allocations across the timing loop and
/// attaches the per-iteration average to the benchmark's counter set.
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state)
      : state_(state), before_(g_heap_allocs.load(std::memory_order_relaxed)) {}
  ~AllocCounter() {
    const std::uint64_t delta =
        g_heap_allocs.load(std::memory_order_relaxed) - before_;
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(delta) /
        static_cast<double>(state_.iterations() > 0 ? state_.iterations() : 1));
  }
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;

 private:
  benchmark::State& state_;
  std::uint64_t before_;
};

struct MmuFixture {
  MmuFixture()
      : machine(2 * kGiB, CostModel::unit()),
        hv(machine),
        vm(hv.create_vm(kGiB)),
        mmu(vm.vcpu(), vm.ept()) {
    for (u64 i = 0; i < kPages; ++i) {
      pt.map(0x100000 + i * kPageSize, kPageSize + i * kPageSize, true);
    }
  }
  static constexpr u64 kPages = 4096;
  sim::Machine machine;
  hv::Hypervisor hv;
  hv::Vm& vm;
  sim::GuestPageTable pt;
  sim::Mmu mmu;
};

void BM_MmuWriteTlbHit(benchmark::State& state) {
  MmuFixture f;
  (void)f.mmu.access(1, f.pt, 0x100000, true);  // prime
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.mmu.access(1, f.pt, 0x100000, true));
  }
}
BENCHMARK(BM_MmuWriteTlbHit);

void BM_MmuWriteColdPages(benchmark::State& state) {
  MmuFixture f;
  u64 i = 0;
  for (auto _ : state) {
    f.vm.vcpu().tlb().flush_all();
    benchmark::DoNotOptimize(
        f.mmu.access(1, f.pt, 0x100000 + (i++ % MmuFixture::kPages) * kPageSize, true));
  }
}
BENCHMARK(BM_MmuWriteColdPages);

void BM_MmuWriteWithPmlLogging(benchmark::State& state) {
  MmuFixture f;
  f.hv.enable_pml_for_hyp(f.vm);
  u64 i = 0;
  for (auto _ : state) {
    // Touch a fresh page each time so the dirty transition (and log) fires.
    const u64 page = i++ % MmuFixture::kPages;
    sim::EptEntry* e = f.vm.ept().entry(kPageSize + page * kPageSize);
    if (e != nullptr) e->dirty = false;
    f.vm.vcpu().tlb().flush_all();
    benchmark::DoNotOptimize(f.mmu.access(1, f.pt, 0x100000 + page * kPageSize, true));
  }
}
BENCHMARK(BM_MmuWriteWithPmlLogging);

// Minimal kEptWpFault consumer: restores write permission like the wp
// tracker backend does, so the faulting walk can complete.
struct WpResolver final : sim::PageTrackNotifier {
  sim::EptEntry* e = nullptr;
  bool on_track(sim::TrackLayer, const sim::TrackEvent&) override {
    e->writable = true;
    return true;
  }
};

void BM_MmuWriteWpFault(benchmark::State& state) {
  // The wp-tracker hot loop: write hits a write-protected EPT entry, the
  // registered consumer resolves it, and the page is re-protected for the
  // next iteration. Every iteration pays the full walk plus the fault
  // dispatch — the cost wp-based tracking charges per first-touch.
  MmuFixture f;
  (void)f.mmu.access(1, f.pt, 0x100000, true);  // demand-allocate the frame
  WpResolver resolver;
  resolver.e = f.vm.ept().entry(kPageSize);
  f.vm.vcpu().track_registry().register_notifier(sim::TrackLayer::kEptWpFault,
                                                 &resolver);
  AllocCounter allocs(state);
  for (auto _ : state) {
    resolver.e->writable = false;
    f.vm.vcpu().tlb().flush_all();
    benchmark::DoNotOptimize(f.mmu.access(1, f.pt, 0x100000, true));
  }
  f.vm.vcpu().track_registry().unregister_notifier(
      sim::TrackLayer::kEptWpFault, &resolver);
}
BENCHMARK(BM_MmuWriteWpFault);

void BM_MmuWalk2MLeaves(benchmark::State& state) {
  // Cold walk resolved entirely through PS-bit leaves: one 2 MiB guest leaf
  // over one 2 MiB EPT leaf. The walk is two find_leaf probes instead of
  // two 4-level descents; the TLB fill caches the whole region.
  MmuFixture f;
  const Gva gva_base = 64 * kMiB;
  const Gpa gpa_base = 512 * kMiB;
  f.pt.map_huge(gva_base, gpa_base, PageGran::k2M, /*writable=*/true);
  const Hpa run = f.vm.pmem().alloc_frames_contiguous(gran_pages(PageGran::k2M));
  f.vm.ept().map_huge(gpa_base, run, PageGran::k2M, /*writable=*/true);
  u64 i = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    f.vm.vcpu().tlb().flush_all();
    benchmark::DoNotOptimize(
        f.mmu.access(1, f.pt, gva_base + (i++ % 512) * kPageSize, true));
  }
}
BENCHMARK(BM_MmuWalk2MLeaves);

void BM_EptEagerSplit2M(benchmark::State& state) {
  // One 2 MiB leaf shattered into 512 4 KiB children — the per-leaf host
  // cost KVM-style eager page splitting pays when dirty logging starts.
  // The leaf is rebuilt off-clock so each iteration splits fresh.
  sim::Ept ept;
  const Gpa base = 512 * kMiB;
  const Hpa run = 64 * kMiB;  // alignment is all map_huge checks
  ept.map_huge(base, run, PageGran::k2M, /*writable=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ept.split_huge_leaf(base, PageGran::k2M));
    state.PauseTiming();
    for (u64 i = 0; i < gran_pages(PageGran::k2M); ++i) {
      ept.unmap(base + i * kPageSize);
    }
    ept.map_huge(base, run, PageGran::k2M, /*writable=*/true);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_EptEagerSplit2M)->Unit(benchmark::kMicrosecond);

// Every guest write funnels through WriteTrackRegistry::dispatch, so its
// per-event overhead must stay at a few ns even with several consumers.
struct NullNotifier final : sim::PageTrackNotifier {
  bool on_track(sim::TrackLayer, const sim::TrackEvent&) override {
    ++seen;
    return true;
  }
  u64 seen = 0;
};

void BM_PageTrackDispatch(benchmark::State& state) {
  sim::WriteTrackRegistry reg;
  std::vector<NullNotifier> notifiers(static_cast<std::size_t>(state.range(0)));
  for (NullNotifier& n : notifiers) {
    reg.register_notifier(sim::TrackLayer::kEptDirty, &n);
  }
  const sim::TrackEvent ev{nullptr, 1, 0x100000, 0x5000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.dispatch(sim::TrackLayer::kEptDirty, ev));
  }
  for (NullNotifier& n : notifiers) {
    reg.unregister_notifier(sim::TrackLayer::kEptDirty, &n);
  }
}
BENCHMARK(BM_PageTrackDispatch)->Arg(0)->Arg(1)->Arg(4);

void BM_RadixEnsureFind(benchmark::State& state) {
  sim::RadixTable4<u64> t;
  u64 addr = 0;
  for (auto _ : state) {
    t.ensure(addr) = addr;
    benchmark::DoNotOptimize(t.find(addr));
    addr += kPageSize;
  }
}
BENCHMARK(BM_RadixEnsureFind);

void BM_TlbLookupInsert(benchmark::State& state) {
  sim::Tlb tlb(1536);
  u64 i = 0;
  for (auto _ : state) {
    const Gva page = (i++ % 1024) * kPageSize;
    if (tlb.lookup(1, page) == nullptr) tlb.insert(1, page, {});
    benchmark::DoNotOptimize(tlb.lookup(1, page));
  }
}
BENCHMARK(BM_TlbLookupInsert);

void BM_TlbSteadyStateHit(benchmark::State& state) {
  // The pure hit path: fully warmed working set, no misses, no evictions.
  // allocs_per_op must read 0 — the array TLB is fixed-size by construction.
  sim::Tlb tlb(1536);
  for (u64 p = 0; p < 1024; ++p) tlb.insert(1, p * kPageSize, {});
  u64 i = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(1, (i++ % 1024) * kPageSize));
  }
}
BENCHMARK(BM_TlbSteadyStateHit);

void BM_TlbLookupMiss(benchmark::State& state) {
  // Probe cost for an absent key with a realistically loaded index.
  sim::Tlb tlb(1536);
  for (u64 p = 0; p < 1024; ++p) tlb.insert(1, p * kPageSize, {});
  u64 i = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(2, (i++ % 1024) * kPageSize));
  }
}
BENCHMARK(BM_TlbLookupMiss);

void BM_RadixFindWalkCacheHit(benchmark::State& state) {
  // All lookups land in one 2 MiB region, so every find after the first is
  // answered by the MRU-leaf memo without descending the tree.
  sim::RadixTable4<u64> t;
  for (u64 p = 0; p < 512; ++p) t.ensure(p * kPageSize) = p;
  u64 i = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.find((i++ % 512) * kPageSize));
  }
}
BENCHMARK(BM_RadixFindWalkCacheHit);

void BM_RadixFindWalkCacheMiss(benchmark::State& state) {
  // Alternate between two 2 MiB regions so the MRU tag misses every find
  // and the full 4-level descent runs.
  sim::RadixTable4<u64> t;
  t.ensure(0) = 1;
  t.ensure(512 * kPageSize) = 2;
  u64 i = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.find((i++ % 2) * 512 * kPageSize));
  }
}
BENCHMARK(BM_RadixFindWalkCacheMiss);

void BM_DirtyRingPushPop(benchmark::State& state) {
  // Dirty-ring steady state: one push + one pop per iteration. allocs_per_op must read 0 — the ring is fully preallocated.
  hv::DirtyRing ring(4096);
  u64 v = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    const bool pushed = ring.try_push((v++) * kPageSize);
    u64 out = 0;
    const bool popped = ring.try_pop(out);
    benchmark::DoNotOptimize(pushed);
    benchmark::DoNotOptimize(popped);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DirtyRingPushPop);

void BM_HarvestHypDirty(benchmark::State& state) {
  // Quiescent harvest of a 2-vCPU VM: 4,096 distinct GPAs scattered over
  // 1 GiB, each logged on both vCPUs' rings (2x duplication), deduplicated
  // and re-armed by harvest_hyp_dirty. Refilling the rings is off the clock.
  sim::Machine machine(2 * kGiB, CostModel::unit());
  hv::Hypervisor hv(machine);
  hv::Vm& vm = hv.create_vm(kGiB, 1u << 10, /*vcpus=*/2);
  constexpr u64 kGpas = 4096;
  constexpr u64 kVmPages = kGiB / kPageSize;
  for (auto _ : state) {
    state.PauseTiming();
    for (u64 i = 0; i < kGpas; ++i) {
      // An odd multiplier permutes the page numbers mod 2^18: all distinct.
      const Gpa gpa = ((i * 0x9E3779B1ULL) & (kVmPages - 1)) * kPageSize;
      (void)vm.dirty_ring(0).try_push(gpa);
      (void)vm.dirty_ring(1).try_push(gpa);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(hv.harvest_hyp_dirty(vm));
  }
}
BENCHMARK(BM_HarvestHypDirty)->Unit(benchmark::kMicrosecond);

void BM_TlbShootdownFlushPid(benchmark::State& state) {
  // mm_cpumask shootdown: flush a migrated process (mask spans both vCPUs),
  // paying one local flush walk plus one modelled remote IPI per call.
  sim::Machine machine(2 * kGiB, CostModel::unit());
  hv::Hypervisor hv(machine);
  hv::Vm& vm = hv.create_vm(kGiB, 1u << 20, 2);
  guest::GuestKernel kernel(hv, vm);
  guest::Process& proc = kernel.create_process();
  const Gva base = proc.mmap(kPageSize);
  proc.touch_write(base);
  kernel.migrate_process(proc, 1);
  for (auto _ : state) {
    kernel.tlb_flush_pid(proc);
  }
}
BENCHMARK(BM_TlbShootdownFlushPid);

void BM_RingBufferPushPop(benchmark::State& state) {
  // A batch of 4096 push/pop pairs per iteration: one pair is about half a
  // nanosecond, so timed alone it moves 2x with nothing but the loop's code
  // placement.
  constexpr u64 kBatch = 4096;
  RingBuffer rb(4096);
  u64 v = 0;
  for (auto _ : state) {
    for (u64 i = 0; i < kBatch; ++i) {
      rb.push(v++);
      u64 out = 0;
      rb.pop(out);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_RingBufferPushPop)->Unit(benchmark::kMicrosecond);

void BM_CollectOrdered(benchmark::State& state) {
  // DirtyTracker::collect's ordering step on migrate_scan's shape: 2,082
  // distinct pages in hash-like order from a 4,096-page writer region. The
  // copy of the input is part of each iteration.
  constexpr u64 kSpanPages = 4096;
  constexpr u64 kPages = 2082;
  Rng rng(0xc011ec7);
  std::vector<u64> input(kSpanPages);
  for (u64 i = 0; i < kSpanPages; ++i) input[i] = 0x7f0000000000 + i * kPageSize;
  for (u64 i = 0; i < kPages; ++i) std::swap(input[i], input[i + rng.below(kSpanPages - i)]);
  input.resize(kPages);
  std::vector<u64> pages;
  std::vector<u64> words;
  for (auto _ : state) {
    pages.assign(input.begin(), input.end());
    sort_unique_pages(pages, words);
    benchmark::DoNotOptimize(pages.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kPages));
}
BENCHMARK(BM_CollectOrdered)->Unit(benchmark::kMicrosecond);

// ---- TestBed benches: setup vs steady state ---------------------------------
// Convention for every benchmark below that owns a TestBed: ALL setup (bed
// construction, process creation, mmap, prefault, tracker init) happens
// before the `for (auto _ : state)` loop, so cpu_time measures only the
// steady-state operation under test. Per-iteration re-preparation, where a
// bench needs it, goes through PauseTiming/ResumeTiming. Do not fold setup
// into the timed loop; the committed baselines assume these semantics.

void BM_PmlDrainToRings(benchmark::State& state) {
  // One full PML buffer (512 distinct 4 KiB GPAs) drained to both kPmlDrain
  // consumers at once: the hypervisor's dirty ring (a migration's logging
  // session) and the guest's SPML ring, as when SPML runs beside migration.
  // Refilling the buffer and emptying the rings is untimed.
  lib::TestBedOptions o;
  o.vm_mem_bytes = 64 * kMiB;
  o.host_mem_bytes = 256 * kMiB;
  lib::TestBed bed(o);
  hv::Vm& vm = bed.vm();
  sim::Vcpu& vcpu = vm.vcpu();
  bed.hypervisor().enable_pml_for_hyp(vm);
  if (vcpu.hypercall(sim::Hypercall::kOohInitPml, o.vm_mem_bytes) != 0 ||
      vcpu.hypercall(sim::Hypercall::kOohEnableLogging) != 0) {
    state.SkipWithError("SPML session did not start");
    return;
  }
  const u64 vm_pages = o.vm_mem_bytes / kPageSize;
  std::vector<u64> gpas(vm_pages);
  for (u64 i = 0; i < vm_pages; ++i) gpas[i] = i * kPageSize;
  Rng rng(0xd2a1);
  for (u64 i = 0; i < kPmlBufferEntries; ++i) {
    std::swap(gpas[i], gpas[i + rng.below(vm_pages - i)]);
  }
  sim::ExecContext& ctx = vcpu.ctx();
  const Hpa buf = vm.pml_buffer();
  for (auto _ : state) {
    state.PauseTiming();
    for (u64 slot = 0; slot < kPmlBufferEntries; ++slot) {
      ctx.pmem.write_u64(buf + slot * 8, gpas[slot]);
    }
    vcpu.vmcs().write(sim::VmcsField::kPmlIndex, 0xFFFF);  // wrapped: all 512 slots
    vm.dirty_ring().clear();
    vm.spml_ring().clear();
    vm.spml_interval_log().clear();
    state.ResumeTiming();
    bed.hypervisor().on_pml_full(vcpu);
  }
  benchmark::DoNotOptimize(vm.spml_ring().size());
  benchmark::DoNotOptimize(vm.dirty_ring().pending());
  state.SetItemsProcessed(state.iterations() * kPmlBufferEntries);
}
BENCHMARK(BM_PmlDrainToRings)->Unit(benchmark::kMicrosecond);

void BM_GuestProcessTouchWrite(benchmark::State& state) {
  lib::TestBed bed;
  auto& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(4096 * kPageSize);
  u64 i = 0;
  for (auto _ : state) {
    proc.touch_write(base + (i++ % 4096) * kPageSize);
  }
}
BENCHMARK(BM_GuestProcessTouchWrite);

// Scalar accesses that all hit the TLB: a prefaulted, dirtied region of 1024
// pages (inside the 1536-entry TLB), visited one page per access so every
// access is a hashed lookup, not a repeat of the last page.
constexpr u64 kScalarHitPages = 1024;

void BM_ProcessWriteU64TlbHit(benchmark::State& state) {
  lib::TestBed bed;
  auto& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(kScalarHitPages * kPageSize, /*data_backed=*/true);
  proc.touch_range_write(base, kScalarHitPages * kPageSize);  // prefault + dirty
  u64 i = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    proc.write_u64(base + (i % kScalarHitPages) * kPageSize + (i % 512) * 8, i);
    ++i;
  }
}
BENCHMARK(BM_ProcessWriteU64TlbHit);

void BM_ProcessTouchReadTlbHit(benchmark::State& state) {
  lib::TestBed bed;
  auto& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(kScalarHitPages * kPageSize);
  proc.touch_range_write(base, kScalarHitPages * kPageSize);  // prefault
  u64 i = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    proc.touch_read(base + (i++ % kScalarHitPages) * kPageSize);
  }
}
BENCHMARK(BM_ProcessTouchReadTlbHit);

void BM_TouchLoopPerPage(benchmark::State& state) {
  // Per-element loop over a warmed 4096-page region: the pre-PR4 shape of
  // every workload touch loop. Compare against BM_TouchRangePerPage.
  lib::TestBed bed;
  auto& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(4096 * kPageSize);
  proc.touch_range_write(base, 4096 * kPageSize);  // prefault
  for (auto _ : state) {
    for (u64 p = 0; p < 4096; ++p) proc.touch_write(base + p * kPageSize);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TouchLoopPerPage)->Unit(benchmark::kMicrosecond);

void BM_TouchRangePerPage(benchmark::State& state) {
  // Same access stream through the batched API: one TLB lookup per run of
  // same-page accesses, memoised entry pointer, identical virtual time.
  lib::TestBed bed;
  auto& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(4096 * kPageSize);
  proc.touch_range_write(base, 4096 * kPageSize);  // prefault
  for (auto _ : state) {
    proc.touch_range_write(base, 4096 * kPageSize);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TouchRangePerPage)->Unit(benchmark::kMicrosecond);

void BM_TouchRangeSubPageStride(benchmark::State& state) {
  // Sub-page stride (8 accesses per page) is where batching pays most: the
  // memoised entry pointer answers 7 of every 8 accesses.
  lib::TestBed bed;
  auto& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(512 * kPageSize);
  proc.touch_range_write(base, 512 * kPageSize);  // prefault
  for (auto _ : state) {
    proc.touch_range_write(base, 512 * kPageSize, /*stride=*/512);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TouchRangeSubPageStride)->Unit(benchmark::kMicrosecond);

void BM_EpmlTrackedWrite(benchmark::State& state) {
  // The full OoH hot path: tracked process write with guest-level logging on.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(4096 * kPageSize);
  auto tracker = lib::make_tracker(lib::Technique::kEpml, k, proc);
  tracker->init();
  tracker->begin_interval();
  k.scheduler().enter_process(proc.pid());
  u64 i = 0;
  for (auto _ : state) {
    proc.touch_write(base + (i++ % 4096) * kPageSize);
    if (i % 4096 == 0) (void)tracker->collect();  // keep the ring drained
  }
  k.scheduler().exit_process(proc.pid());
  tracker->shutdown();
}
BENCHMARK(BM_EpmlTrackedWrite);

void BM_TrackerCollect4kDirty(benchmark::State& state) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(4096 * kPageSize);
  auto tracker = lib::make_tracker(lib::Technique::kEpml, k, proc);
  tracker->init();
  tracker->begin_interval();
  for (auto _ : state) {
    state.PauseTiming();
    k.scheduler().enter_process(proc.pid());
    for (u64 p = 0; p < 4096; ++p) proc.touch_write(base + p * kPageSize);
    k.scheduler().exit_process(proc.pid());
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracker->collect());
    tracker->begin_interval();
  }
  tracker->shutdown();
}
BENCHMARK(BM_TrackerCollect4kDirty)->Unit(benchmark::kMicrosecond);

void BM_WssEstimatorUpdate(benchmark::State& state) {
  // The adaptive control plane's sensing cost: fold one 512-page interval
  // sample into the open window, close it (EWMA update), open the next.
  // This runs once per collect() on every adaptive session, so it must stay
  // small next to the collect it annotates.
  lib::TestBed bed;
  lib::WssEstimator est(/*alpha=*/0.5);
  std::vector<Gva> pages(512);
  for (u64 i = 0; i < pages.size(); ++i) pages[i] = i * kPageSize;
  u64 w = 0;
  for (auto _ : state) {
    est.note_interval(1, pages, usecs(static_cast<double>(++w) * 100.0),
                      bed.ctx());
    benchmark::DoNotOptimize(est.signal(1));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_WssEstimatorUpdate)->Unit(benchmark::kMicrosecond);

void BM_PolicySwitchHandoff(benchmark::State& state) {
  // One full live backend handoff in each direction per iteration: a hot
  // 64-page interval flips wp -> EPML, an empty interval flips EPML -> wp.
  // Measures the whole switch protocol — old backend shutdown, new backend
  // init, estimator window close, policy decision — plus the interval's own
  // writes; the `switches` counter confirms the flip really ran every time.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(64 * kPageSize);
  proc.touch_range_write(base, 64 * kPageSize);  // prefault
  lib::AdaptiveOptions ao;
  ao.initial = lib::Technique::kEpml;
  ao.estimator_alpha = 1.0;  // signal == last window: flips deterministically
  ao.policy.warmup_windows = 0;
  ao.policy.min_windows_between_switches = 0;
  lib::DirtyTracker tracker(k, proc, ao);
  tracker.init();
  tracker.begin_interval();
  for (auto _ : state) {
    k.scheduler().enter_process(proc.pid());
    proc.touch_range_write(base, 64 * kPageSize);
    k.scheduler().exit_process(proc.pid());
    benchmark::DoNotOptimize(tracker.collect());  // hot window: -> EPML
    tracker.begin_interval();
    benchmark::DoNotOptimize(tracker.collect());  // empty window: -> wp
    tracker.begin_interval();
  }
  state.counters["switches"] = static_cast<double>(tracker.switches());
  tracker.shutdown();
}
BENCHMARK(BM_PolicySwitchHandoff)->Unit(benchmark::kMicrosecond);

void BM_GcAllocCollectCycle(benchmark::State& state) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  gc::GcHeap heap(k, proc, 128 * kMiB, /*threshold=*/u64{64} * kGiB);
  k.scheduler().enter_process(proc.pid());
  const Gva root = heap.alloc(1, 0);
  heap.add_root(root);
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) benchmark::DoNotOptimize(heap.alloc(1, 16));
    benchmark::DoNotOptimize(heap.collect());
  }
  k.scheduler().exit_process(proc.pid());
}
BENCHMARK(BM_GcAllocCollectCycle)->Unit(benchmark::kMicrosecond);

/// Complete binary tree of GCBench nodes (two refs, 16 payload bytes) of
/// `depth` levels below its root; returns the root.
Gva build_gc_tree(gc::GcHeap& heap, int depth) {
  std::vector<Gva> nodes((std::size_t{2} << depth) - 1);
  for (Gva& n : nodes) n = heap.alloc(2, 16);
  for (std::size_t i = 0; 2 * i + 2 < nodes.size(); ++i) {
    heap.write_ref(nodes[i], 0, nodes[2 * i + 1]);
    heap.write_ref(nodes[i], 1, nodes[2 * i + 2]);
  }
  return nodes.front();
}

void BM_GcMarkLiveForest(benchmark::State& state) {
  // A rooted forest of 64 depth-8 trees (32,704 nodes): every collection
  // marks the whole live set, which BM_GcAllocCollectCycle's one-object
  // live set cannot show. Each iteration swaps one subtree for a fresh one,
  // so the sweep frees 511 nodes and the free lists recycle them.
  constexpr unsigned kTrees = 64;
  constexpr int kDepth = 8;
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  gc::GcHeap heap(k, proc, 64 * kMiB, /*threshold=*/u64{64} * kGiB);
  k.scheduler().enter_process(proc.pid());
  const Gva root = heap.alloc(kTrees, 0);
  heap.add_root(root);
  for (unsigned t = 0; t < kTrees; ++t) heap.write_ref(root, t, build_gc_tree(heap, kDepth));
  (void)heap.collect();
  unsigned next = 0;
  for (auto _ : state) {
    heap.write_ref(root, next, build_gc_tree(heap, kDepth));
    next = (next + 1) % kTrees;
    benchmark::DoNotOptimize(heap.collect());
  }
  k.scheduler().exit_process(proc.pid());
}
BENCHMARK(BM_GcMarkLiveForest)->Unit(benchmark::kMicrosecond);

void BM_CheckpointDump256Pages(benchmark::State& state) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(256 * kPageSize, /*data_backed=*/true);
  for (u64 p = 0; p < 256; ++p) proc.write_u64(base + p * kPageSize, p);
  criu::Checkpointer cp(k, lib::Technique::kOracle);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cp.full_checkpoint(proc));
  }
}
BENCHMARK(BM_CheckpointDump256Pages)->Unit(benchmark::kMicrosecond);

/// 1,000 skewed page picks over `pages` (half on the hottest eighth, ranks
/// scattered by an odd multiplier), sorted and deduplicated like a collect.
std::vector<u64> skewed_pages(u64 pages, u64 seed) {
  Rng rng(seed);
  std::vector<u64> out;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    const auto rank = static_cast<u64>(static_cast<double>(pages) * u * u * u);
    out.push_back((rank * 0x9E3779B1ULL) % pages);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void BM_CheckpointRedumpScattered(benchmark::State& state) {
  // Re-dump ~1,000 skewed pages of a 64 MiB data-backed VMA into an image
  // that already holds every page. Nothing writes them between dumps, so
  // each slot moves no line: this is a re-dump's per-page walk and claim.
  constexpr u64 kPages = 64 * kMiB / kPageSize;
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(kPages * kPageSize, /*data_backed=*/true);
  for (u64 p = 0; p < kPages; ++p) proc.write_u64(base + p * kPageSize, p);
  criu::Checkpointer cp(k, lib::Technique::kOracle);
  criu::CheckpointImage image = cp.full_checkpoint(proc);
  std::vector<Gva> dirty;
  for (const u64 p : skewed_pages(kPages, 81)) dirty.push_back(base + p * kPageSize);
  for (auto _ : state) {
    cp.dump_pages(proc, dirty, image);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(image.dump_ops);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dirty.size()));
}
BENCHMARK(BM_CheckpointRedumpScattered)->Unit(benchmark::kMicrosecond);

void BM_CheckpointDumpPages(benchmark::State& state) {
  // Dump 841 distinct, uniformly scattered pages of a 64 MiB data-backed
  // VMA into an image that holds every page, with nothing written between
  // dumps (no line moves; BM_CheckpointRedumpDirtyLines writes first).
  constexpr u64 kPages = 64 * kMiB / kPageSize;
  constexpr std::size_t kDumped = 841;
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(kPages * kPageSize, /*data_backed=*/true);
  for (u64 p = 0; p < kPages; ++p) proc.write_u64(base + p * kPageSize, p);
  criu::Checkpointer cp(k, lib::Technique::kOracle);
  criu::CheckpointImage image = cp.full_checkpoint(proc);
  std::vector<Gva> pages;
  Rng rng(841);
  while (pages.size() < kDumped) {
    pages.push_back(base + rng.below(kPages) * kPageSize);
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  }
  for (auto _ : state) {
    cp.dump_pages(proc, pages, image);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(image.dump_ops);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kDumped));
}
BENCHMARK(BM_CheckpointDumpPages)->Unit(benchmark::kMicrosecond);

void BM_CheckpointRedumpDirtyLines(benchmark::State& state) {
  // One ckpt_kv step's memory write: 841 distinct, uniformly scattered pages
  // of a 64 MiB data-backed VMA each get one or two 8-byte stores (straight
  // to their frames, in the timed loop), then the step re-dumps them into an
  // image that holds every page, moving only the written lines.
  constexpr u64 kPages = 64 * kMiB / kPageSize;
  constexpr std::size_t kDumped = 841;
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(kPages * kPageSize, /*data_backed=*/true);
  for (u64 p = 0; p < kPages; ++p) proc.write_u64(base + p * kPageSize, p);
  criu::Checkpointer cp(k, lib::Technique::kOracle);
  criu::CheckpointImage image = cp.full_checkpoint(proc);
  std::vector<Gva> pages;
  Rng rng(841);
  while (pages.size() < kDumped) {
    pages.push_back(base + rng.below(kPages) * kPageSize);
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  }
  struct Store {
    Hpa addr;
    u64 value;
  };
  std::vector<Store> stores;
  for (const Gva page : pages) {
    Hpa frame = 0;
    (void)bed.vm().ept().translate(k.page_table(proc).pte(page)->gpa_page, frame);
    const u64 words = 1 + rng.below(2);
    for (u64 w = 0; w < words; ++w) stores.push_back({frame + rng.below(kPageSize / 8) * 8, w});
  }
  sim::PhysicalMemory& pmem = k.ctx_of(proc).pmem;
  u64 lines = 0;
  for (auto _ : state) {
    for (Store& s : stores) pmem.write_u64(s.addr, ++s.value);
    lines += cp.dump_pages(proc, pages, image);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(image.dump_ops);
  state.counters["lines_per_page"] =
      static_cast<double>(lines) / static_cast<double>(state.iterations() * kDumped);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kDumped));
}
BENCHMARK(BM_CheckpointRedumpDirtyLines)->Unit(benchmark::kMicrosecond);

void BM_TruthRecordScattered(benchmark::State& state) {
  // Scalar stores to random pages of a prefaulted 64 MiB VMA: mostly TLB
  // misses, each ending in one truth-ledger record.
  constexpr u64 kPages = 64 * kMiB / kPageSize;
  lib::TestBed bed;
  auto& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(kPages * kPageSize);
  proc.touch_range_write(base, kPages * kPageSize);  // prefault
  std::vector<Gva> targets(4096);
  Rng rng(90);
  for (Gva& t : targets) t = base + rng.below(kPages) * kPageSize;
  std::size_t i = 0;
  for (auto _ : state) {
    proc.write_u64(targets[i], i);
    i = (i + 1) % targets.size();
  }
}
BENCHMARK(BM_TruthRecordScattered);

// ---- arena -----------------------------------------------------------------

void BM_ArenaAllocRadixNode(benchmark::State& state) {
  // Bump-allocation of interior-node-shaped objects (512 slots, the radix
  // fan-out) with periodic wholesale reset — the allocation profile the
  // radix tables put on the arena. Steady state reuses warm blocks, so
  // allocs_per_op stays ~0 (only the first iterations grow the arena).
  struct Node {
    std::array<void*, 512> slots;
  };
  base::Arena arena;
  AllocCounter allocs(state);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) benchmark::DoNotOptimize(arena.create<Node>());
    arena.reset();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ArenaAllocRadixNode);

// ---- ulp-grid clock runs ------------------------------------------------------

void BM_ClockAdvancePairs(benchmark::State& state) {
  // The clock work of one TLB-hit segment of n accesses: n pairs of
  // (+tlb_hit, +workload_write) at the default costs, on a clock at 1 s with
  // one open bucket, no deadline in reach. n = 1 is a per-page run, 8 a
  // stride-512 run, 64 a stride-64 run (migrate_scan's reader), 4096 a long
  // run; they pick VirtualClock's short-run cutoff.
  const u64 n = static_cast<u64>(state.range(0));
  VirtDuration hit = nsecs(CostModel{}.tlb_hit_ns);
  VirtDuration work = nsecs(CostModel{}.workload_write_ns);
  benchmark::DoNotOptimize(hit);
  benchmark::DoNotOptimize(work);
  const VirtDuration never{std::numeric_limits<double>::infinity()};
  VirtualClock clock;
  clock.advance(secs(1.0));
  VirtDuration bucket{0};
  const VirtualClock::Scope scope(clock, bucket);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.advance_pairs(hit, work, n, never));
  }
  benchmark::DoNotOptimize(clock.now());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ClockAdvancePairs)->Arg(1)->Arg(8)->Arg(64)->Arg(4096);

void BM_TouchRangeReadStride64(benchmark::State& state) {
  // migrate_scan's reader: a warmed 4 MiB region read at stride 64, 64
  // accesses per page segment.
  lib::TestBed bed;
  auto& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(1024 * kPageSize);
  proc.touch_range_write(base, 1024 * kPageSize);  // prefault
  for (auto _ : state) {
    proc.touch_range_read(base, 1024 * kPageSize, /*stride=*/64);
  }
  state.SetItemsProcessed(state.iterations() * 1024 * 64);
}
BENCHMARK(BM_TouchRangeReadStride64)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ooh

BENCHMARK_MAIN();
