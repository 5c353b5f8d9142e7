// Figure 10: Tracker (Boehm GC) performance as the number of tenant VMs
// grows from 1 to 5, each VM running Boehm over Phoenix-histogram (Large).
//
// Paper's finding: per-VM GC time matches the single-VM results and stays
// ~constant as VMs are added (PML state is per-VM; no cross-VM coupling).
// The tenant timelines are independent per-vCPU contexts, so the bench
// executes them on a worker pool of real threads (--threads N, default
// auto) — the per-VM virtual-time results are bit-identical to a serial
// run, only the host wall clock shrinks.
#include <algorithm>

#include "boehm_common.hpp"
#include "sim/epoch/epoch_pool.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/128);
  bench::print_header("Figure 10", "Per-VM Boehm GC time with 1..5 tenant VMs");
  const unsigned threads =
      args.threads != 0 ? args.threads : std::max(2u, epoch::EpochPool::auto_workers());
  std::fprintf(stderr, "tenant timelines on up to %u worker threads (--threads N to change)\n",
               threads);

  // Host wall clock goes to stderr so stdout is virtual time only, the same
  // bytes on every host and thread count.
  TextTable t({"VMs + technique", "min GC (ms)", "max GC (ms)", "spread (%)"});
  TextTable tw({"VMs + technique", "wall (ms)"});
  for (unsigned vms = 1; vms <= 5; ++vms) {
    for (const lib::Technique tech :
         {lib::Technique::kSpml, lib::Technique::kEpml, lib::Technique::kWp,
          lib::Technique::kSeg}) {
      const bench::FleetResult fleet =
          bench::run_boehm_fleet(vms, args.scale, tech, threads, args.gran);
      double min_gc = 1e300, max_gc = 0.0;
      for (const bench::BoehmRun& r : fleet.runs) {
        min_gc = std::min(min_gc, r.gc_total_us);
        max_gc = std::max(max_gc, r.gc_total_us);
      }
      // Tiny --scale values can finish without a single timed collection;
      // report zero spread instead of dividing by a zero max.
      const double spread = max_gc > 0.0 ? (max_gc - min_gc) / max_gc * 100.0 : 0.0;
      const std::string label =
          std::to_string(vms) + " " + std::string(lib::technique_name(tech));
      t.add_row(label, {min_gc / 1e3, max_gc / 1e3, spread}, 2);
      tw.add_row(label, {fleet.wall_ms}, 2);
    }
  }
  t.print(std::cout);
  tw.print(std::cerr);

  // Wall-clock scaling check at 5 VMs: same fleet serial vs. worker pool.
  const bench::FleetResult serial =
      bench::run_boehm_fleet(5, args.scale, lib::Technique::kEpml, 1);
  const bench::FleetResult parallel =
      bench::run_boehm_fleet(5, args.scale, lib::Technique::kEpml, threads);
  std::fprintf(stderr,
               "\n5-VM EPML fleet wall clock: serial %.1f ms, %u workers %.1f ms "
               "(speedup %.2fx)\n",
               serial.wall_ms, threads, parallel.wall_ms,
               parallel.wall_ms > 0.0 ? serial.wall_ms / parallel.wall_ms : 0.0);
  std::printf("\nShape check: per-VM GC time is flat in the VM count (spread ~0%%).\n");

  // vCPU axis: one SMP guest with 1, 2 and 4 vCPUs, each with its own PML
  // buffer and dirty ring; one hypervisor harvest drains every ring.
  std::printf("\nSMP guest: per-vCPU dirty rings drained by one harvest\n");
  const u64 smp_pages = 1024;  // fits the 1536-entry TLB: steady-state passes are lock-free
  const int smp_passes = args.full ? 256 : 48;
  TextTable s({"vCPUs", "virt/vCPU (ms)", "spread (%)", "drained", "harvested"});
  TextTable sw({"vCPUs", "wall (ms)"});
  for (const unsigned v : bench::vcpu_sweep()) {
    const bench::SmpDrainResult r = bench::run_smp_drain(v, smp_pages, smp_passes);
    s.add_row(std::to_string(v),
              {r.max_vcpu_ms, r.spread_pct, static_cast<double>(r.drained),
               static_cast<double>(r.harvested)},
              2);
    sw.add_row(std::to_string(v), {r.wall_ms}, 2);
  }
  s.print(std::cout);
  sw.print(std::cerr);
  std::printf("Shape check: harvested pages scale with the vCPU count, and the\n"
              "harvest drains exactly the harvested pages from the rings (no spill).\n");
  std::fprintf(stderr, "The wall-clock columns depend on host cores (%u here).\n",
               epoch::EpochPool::auto_workers());

  // EPT granularity axis: the same 2-vCPU PML session with 4K leaves, 2M
  // PS-bit leaves kept during logging, and 2M leaves eagerly split at
  // session start. 2M logging harvests a dirty superset (each PML entry
  // names a 2 MiB region); eager splitting restores 4K precision for a
  // one-off split cost at enable time. (--gran also runs the fleet table
  // above in one of these modes.)
  std::printf("\nEPT backing granularity: dirty precision vs. split cost\n");
  TextTable g({"gran", "virt/vCPU (ms)", "harvested"});
  TextTable gw({"gran", "wall (ms)"});
  for (const bench::GranMode m :
       {bench::GranMode::k4K, bench::GranMode::k2M,
        bench::GranMode::k2MEagerSplit}) {
    const bench::SmpDrainResult r =
        bench::run_smp_drain(2, smp_pages, smp_passes, m);
    g.add_row(bench::gran_mode_name(m), {r.max_vcpu_ms, static_cast<double>(r.harvested)}, 2);
    gw.add_row(bench::gran_mode_name(m), {r.wall_ms}, 2);
  }
  g.print(std::cout);
  gw.print(std::cerr);
  std::printf("Shape check: 4K and 2M+split harvest identical page-precise dirty\n"
              "sets; plain 2M harvests a superset (whole huge regions).\n");

  // Adaptive axis (opt-in, keeps the stock figure byte-identical): the
  // tracker-side view of policy-driven backend switching — what the control
  // plane costs and saves when the workload's phase changes under it.
  if (args.adaptive) bench::print_adaptive_section();
  return 0;
}
