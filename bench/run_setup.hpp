// Shared run-setup helpers: every bench binary builds its TestBed, its
// tracked process and its pre-faulted working set the same way. The sizing
// and warmup rules used to be copy-pasted across common.hpp,
// boehm_common.hpp and criu_common.hpp; they live here once so a change to
// the methodology (headroom, prefault discipline, the --gran axis) cannot
// silently diverge between figures.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "guest/kernel.hpp"
#include "guest/process.hpp"
#include "ooh/testbed.hpp"
#include "workloads/registry.hpp"

namespace ooh::bench {

/// The --gran axis of figs. 10-11: how the hypervisor backs guest memory.
///   k4K           all-4 KiB EPT leaves (the paper's configuration; every
///                 default figure output is byte-identical to it).
///   k2M           2 MiB PS-bit backfill, huge leaves kept during logging —
///                 PML entries name 2 MiB supersets.
///   k2MEagerSplit 2 MiB backfill, shattered to 4 KiB when a logging
///                 session starts (KVM eager page splitting): page-precise
///                 dirty sets, split cost paid at session start.
enum class GranMode { k4K, k2M, k2MEagerSplit };

[[nodiscard]] inline const char* gran_mode_name(GranMode m) noexcept {
  switch (m) {
    case GranMode::k4K: return "4K";
    case GranMode::k2M: return "2M";
    case GranMode::k2MEagerSplit: return "2M+split";
  }
  return "?";
}

[[nodiscard]] inline std::optional<GranMode> parse_gran_mode(
    std::string_view s) noexcept {
  if (s == "4k" || s == "4K") return GranMode::k4K;
  if (s == "2m" || s == "2M") return GranMode::k2M;
  if (s == "2m+split" || s == "2M+split" || s == "split") {
    return GranMode::k2MEagerSplit;
  }
  return std::nullopt;
}

/// Translate a GranMode onto TestBedOptions' knobs.
inline void apply_gran(lib::TestBedOptions& opts, GranMode m) noexcept {
  opts.ept_huge = m != GranMode::k4K;
  opts.eager_split = m == GranMode::k2MEagerSplit;
}

/// TestBedOptions sized so a tracked working set of `mem_bytes` fits with
/// the standard headroom (2x the set for guest metadata and buffers, 2 GiB
/// of host slack for PML buffers and page tables).
[[nodiscard]] inline lib::TestBedOptions sized_bed_options(u64 mem_bytes) {
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = std::max<u64>(mem_bytes * 2, 64 * kMiB);
  opts.host_mem_bytes = opts.vm_mem_bytes + 2 * kGiB;
  return opts;
}

/// A process with `bytes` mmapped and every page pre-faulted by a write, so
/// the timed phase that follows allocates nothing. touch_range_write is
/// bit-identical in virtual time to the historical per-page touch loop.
struct PreparedProcess {
  guest::Process* proc = nullptr;
  Gva base = 0;
};

inline PreparedProcess prepare_process(guest::GuestKernel& k, u64 bytes) {
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(bytes);
  proc.touch_range_write(base, bytes);
  return {&proc, base};
}

/// An application and its Table III configuration: one row of a figure.
using AppConfig = std::pair<std::string_view, wl::ConfigSize>;

/// A process with the named workload instantiated and set up in it — the
/// fragment every app-level cell (ideal, CRIU checkpoint, Table IV) starts from.
struct WorkloadRun {
  guest::Process* proc = nullptr;
  std::unique_ptr<wl::Workload> workload;
};

inline WorkloadRun prepare_workload(guest::GuestKernel& k, std::string_view app,
                                    wl::ConfigSize size, u64 scale) {
  WorkloadRun r;
  r.proc = &k.create_process();
  r.workload = wl::make_workload(app, size, scale);
  r.workload->setup(*r.proc);
  return r;
}

}  // namespace ooh::bench
