// The physical machine: the cost model and the host RAM that VMs are carved
// from. One Machine hosts one hypervisor and any number of VMs.
//
// The Machine holds no state a running VM mutates. At VM creation the
// hypervisor carves a fixed host-frame window from it (carve(), on the setup
// thread); the VM owns that window as its PhysicalMemory partition, and each
// vCPU owns its ExecContext (virtual clock, event counters, TLB). So tenant
// VMs share nothing mutable and may run on different host threads.
#pragma once

#include <algorithm>

#include "base/cost_model.hpp"
#include "sim/phys_mem.hpp"

namespace ooh::sim {

class Machine {
 public:
  explicit Machine(u64 host_mem_bytes, CostModel cost_model = CostModel::paper_calibrated())
      : cost(cost_model), host_frames_(pages_for_bytes(host_mem_bytes)) {}

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Carve the next `frames` host frames into a partition, or as many as
  /// the host has left. Windows are handed out in call order, so each VM's
  /// HPAs depend only on the order VMs were created in.
  [[nodiscard]] PhysicalMemory carve(u64 frames) {
    const u64 left = host_frames_ > next_frame_ ? host_frames_ - next_frame_ : 0;
    const u64 first = next_frame_;
    next_frame_ += std::min(frames, left);
    return PhysicalMemory(first, next_frame_ - first);
  }

  /// Host RAM in frames, frame 0 included.
  [[nodiscard]] u64 host_frames() const noexcept { return host_frames_; }

  const CostModel cost;

 private:
  u64 host_frames_;
  // Frame 0 is never carved: HPA 0 means "not configured" in VMCS fields.
  u64 next_frame_ = 1;
};

}  // namespace ooh::sim
