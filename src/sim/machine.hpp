// The physical machine: the state all vCPUs *share*. One Machine hosts one
// hypervisor and any number of VMs.
//
// After the execution-context split, the Machine carries only read-only or
// thread-safe members: the cost model (immutable after construction) and
// host RAM (sharded frame allocator, lock-free frame table). Everything a
// single vCPU timeline mutates — virtual clock, event counters, TLB — lives
// in the per-vCPU ExecContext the Machine creates and owns. Machine-wide views
// (total event counts, latest virtual time) are aggregations over contexts.
#pragma once

#include <memory>
#include <vector>

#include "base/cost_model.hpp"
#include "base/counters.hpp"
#include "base/sync.hpp"
#include "sim/exec_context.hpp"
#include "sim/phys_mem.hpp"

namespace ooh::sim {

class Machine {
 public:
  explicit Machine(u64 host_mem_bytes, CostModel cost_model = CostModel::paper_calibrated())
      : cost(cost_model), pmem(host_mem_bytes) {}

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Mint the execution context for a new vCPU. Called at VM setup; the
  /// Machine keeps ownership so machine-wide aggregation stays possible.
  ExecContext& create_context() {
    sync::SpinGuard lock(ctx_mu_);
    contexts_.push_back(std::make_unique<ExecContext>(
        static_cast<u32>(contexts_.size()), cost, pmem));
    return *contexts_.back();
  }

  [[nodiscard]] std::size_t context_count() const {
    sync::SpinGuard lock(ctx_mu_);
    return contexts_.size();
  }

  [[nodiscard]] ExecContext& context(std::size_t i) {
    sync::SpinGuard lock(ctx_mu_);
    return *contexts_.at(i);
  }

  /// Machine-wide event totals: the per-vCPU counters merged. Only
  /// meaningful while no context is concurrently mutating its counters
  /// (i.e. between parallel runs, not during one).
  [[nodiscard]] EventCounters total_counters() const {
    sync::SpinGuard lock(ctx_mu_);
    EventCounters total;
    for (const auto& ctx : contexts_) total.merge(ctx->counters);
    return total;
  }

  /// The most-advanced per-vCPU virtual clock — "how long the experiment
  /// took" when timelines run independently.
  [[nodiscard]] VirtDuration max_clock() const {
    sync::SpinGuard lock(ctx_mu_);
    VirtDuration latest{0};
    for (const auto& ctx : contexts_) {
      if (ctx->clock.now() > latest) latest = ctx->clock.now();
    }
    return latest;
  }

  const CostModel cost;
  PhysicalMemory pmem;

 private:
  mutable sync::Mutex ctx_mu_;
  std::vector<std::unique_ptr<ExecContext>> contexts_;
};

}  // namespace ooh::sim
