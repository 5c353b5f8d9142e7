// Figure 11: Tracked (Phoenix-histogram under Boehm) performance as the
// number of tenant VMs grows from 1 to 5.
//
// Paper's finding: the per-VM impact of each technique on the Tracked
// matches the single-VM result and stays constant as VMs are added. As in
// fig10, the tenant timelines run on a worker pool (--threads N, default
// auto); per-VM virtual time is identical to a serial run by construction.
#include <algorithm>

#include "boehm_common.hpp"
#include "sim/epoch/epoch_pool.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/128);
  bench::print_header("Figure 11", "Per-VM Tracked time with 1..5 tenant VMs");
  const unsigned threads =
      args.threads != 0 ? args.threads : std::max(2u, epoch::EpochPool::auto_workers());
  std::fprintf(stderr, "tenant timelines on up to %u worker threads (--threads N to change)\n",
               threads);

  // Host wall clock goes to stderr so stdout is virtual time only, the same
  // bytes on every host and thread count.
  TextTable t({"VMs + technique", "min app (ms)", "max app (ms)", "spread (%)"});
  TextTable tw({"VMs + technique", "wall (ms)"});
  for (unsigned vms = 1; vms <= 5; ++vms) {
    for (const lib::Technique tech :
         {lib::Technique::kProc, lib::Technique::kSpml, lib::Technique::kEpml,
          lib::Technique::kWp, lib::Technique::kSeg}) {
      const bench::FleetResult fleet =
          bench::run_boehm_fleet(vms, args.scale, tech, threads, args.gran);
      double min_t = 1e300, max_t = 0.0;
      for (const bench::BoehmRun& r : fleet.runs) {
        min_t = std::min(min_t, r.app_time_us);
        max_t = std::max(max_t, r.app_time_us);
      }
      const double spread = max_t > 0.0 ? (max_t - min_t) / max_t * 100.0 : 0.0;
      const std::string label =
          std::to_string(vms) + " " + std::string(lib::technique_name(tech));
      t.add_row(label, {min_t / 1e3, max_t / 1e3, spread}, 2);
      tw.add_row(label, {fleet.wall_ms}, 2);
    }
  }
  t.print(std::cout);
  tw.print(std::cerr);

  const bench::FleetResult serial =
      bench::run_boehm_fleet(5, args.scale, lib::Technique::kProc, 1);
  const bench::FleetResult parallel =
      bench::run_boehm_fleet(5, args.scale, lib::Technique::kProc, threads);
  std::fprintf(stderr,
               "\n5-VM /proc fleet wall clock: serial %.1f ms, %u workers %.1f ms "
               "(speedup %.2fx)\n",
               serial.wall_ms, threads, parallel.wall_ms,
               parallel.wall_ms > 0.0 ? serial.wall_ms / parallel.wall_ms : 0.0);
  std::printf("\nShape check: per-VM Tracked time is flat in the VM count.\n");

  // vCPU axis, Tracked side: the writer processes ARE the tracked
  // workloads here — their per-vCPU virtual time must stay flat as vCPUs
  // are added, because dirty-ring pops charge the guest nothing.
  std::printf("\nSMP guest: per-vCPU writers, per-vCPU dirty rings\n");
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
  std::printf("Shape check: per-vCPU Tracked virtual time is flat in the vCPU count —\n"
              "draining the dirty rings stays off the guest's critical path.\n");
  std::fprintf(stderr, "The wall-clock columns depend on host cores (%u here).\n",
               epoch::EpochPool::auto_workers());

  // EPT granularity axis, Tracked side: what the guest pays for each
  // backing mode. Huge backing makes the prefault walks cheaper; eager
  // splitting adds only a one-off session-start cost on top of plain 2M,
  // while plain-2M logging inflates the harvested superset.
  std::printf("\nEPT backing granularity: Tracked cost per mode\n");
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
  std::printf("Shape check: 2M+split matches 4K harvest precision; its only\n"
              "virtual-time cost over plain 2M is the one-off enable-time split.\n");

  // Adaptive axis (opt-in, keeps the stock figure byte-identical): the
  // Tracked-side view — what the phase-changing guest pays under a static
  // backend pinned wrong for half the run vs the adaptive control plane.
  if (args.adaptive) bench::print_adaptive_section();
  return 0;
}
