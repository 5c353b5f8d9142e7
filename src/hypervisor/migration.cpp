#include "hypervisor/migration.hpp"

#include <algorithm>
#include <new>
#include <vector>

namespace ooh::hv {
namespace {

/// Append the elements of `more` that `base` does not already contain,
/// deduplicating through the VM's harvest bitmap.
void merge_unique(Vm& vm, std::vector<Gpa>& base, const std::vector<Gpa>& more) {
  if (more.empty()) return;
  PageBitmap::Unique unique(vm.harvest_bits(), base);
  for (const Gpa g : more) unique.add(g);
}

}  // namespace

bool MigrationEngine::send_pages(sim::ExecContext& m, u64 count,
                                 const MigrationOptions& opts,
                                 MigrationReport& rep) {
  unsigned attempt = 0;
  while (m.fault_fire(sim::fault::FaultPoint::kMigrationSendFail)) {
    ++rep.send_retries;
    m.count(Event::kMigrationSendRetry);
    // Exponential backoff before the retry, as a real transfer loop would.
    // The exponent clamps at 20 (a ~10^6x backoff cap): a send_retry_limit
    // configured above 63 must not shift past the u64 range, and no real
    // transfer loop backs off beyond a bounded ceiling anyway.
    m.charge_us(opts.retry_backoff_us *
                static_cast<double>(u64{1} << std::min(attempt, 20u)));
    m.fault_audit();
    if (++attempt >= opts.send_retry_limit) return false;
  }
  m.count(Event::kMigrationPageSent, count);
  m.charge_us(m.cost.migration_send_page_us * static_cast<double>(count));
  rep.pages_sent += count;
  return true;
}

MigrationReport MigrationEngine::migrate(Vm& vm,
                                         const std::function<void()>& run_guest_quantum,
                                         const MigrationOptions& opts) {
  sim::ExecContext& m = vm.ctx();
  MigrationReport rep;
  const VirtDuration start = m.clock.now();

  try {
    hv_.enable_pml_for_hyp(vm);
  } catch (const std::bad_alloc&) {
    // The host could not allocate the PML buffer backing dirty logging
    // (real or injected OOM). Without dirty tracking live migration cannot
    // proceed; abort cleanly instead of crashing the caller.
    rep.aborted = true;
    m.count(Event::kMigrationAborted);
    hv_.audit_now(vm.id());
    rep.total_time = m.clock.now() - start;
    return rep;
  }

  // Round 0: full copy of every mapped guest page while the guest runs.
  rep.initial_pages = vm.ept().present_pages();
  if (!send_pages(m, rep.initial_pages, opts, rep)) {
    // Could not even complete the initial copy: abort rather than loop on a
    // dead transport.
    rep.aborted = true;
    m.count(Event::kMigrationAborted);
    hv_.disable_pml_for_hyp(vm);
    hv_.audit_now(vm.id());
    rep.total_time = m.clock.now() - start;
    return rep;
  }

  std::vector<Gpa> carry;  // harvested but never transferred (failed sends)
  for (unsigned round = 0; round < opts.max_rounds; ++round) {
    if (run_guest_quantum) run_guest_quantum();
    std::vector<Gpa> pending = hv_.harvest_hyp_dirty(vm);
    merge_unique(vm, pending, carry);
    // Pre-copy round boundary: let an installed coherence hook audit this
    // VM (no-op outside audit builds; see Hypervisor::set_audit_hook).
    hv_.audit_now(vm.id());
    m.count(Event::kMigrationRound);
    ++rep.rounds;
    if (pending.size() <= opts.stop_copy_threshold_pages) {
      // Converged. The guest keeps running between the harvest above and
      // the actual pause (the drain window): writes landing in it sit in
      // the PML buffer / dirty log, not in `pending`, and must join the
      // stop-and-copy set — dropping them would corrupt the destination.
      if (opts.drain_window_body) opts.drain_window_body();
      const VirtDuration pause_start = m.clock.now();
      merge_unique(vm, pending, hv_.collect_dirty_paused(vm));
      rep.stop_copy_pages = pending.size();
      if (send_pages(m, pending.size(), opts, rep)) {
        rep.converged = true;
      } else {
        rep.aborted = true;
        m.count(Event::kMigrationAborted);
      }
      rep.downtime = m.clock.now() - pause_start;
      carry.clear();
      break;
    }
    if (send_pages(m, pending.size(), opts, rep)) {
      carry.clear();
    } else {
      // Send failed even after retries: fold the set into the next round
      // instead of dropping it on the floor.
      carry = std::move(pending);
    }
  }
  if (!rep.converged && !rep.aborted) {
    // Non-convergence cutoff: forced stop-and-copy after max_rounds. This
    // runs a full extra round (guest quantum + harvest), so it counts as
    // one: rounds and kMigrationRound stay the ground truth of how many
    // quanta the guest ran during pre-copy.
    if (run_guest_quantum) run_guest_quantum();
    std::vector<Gpa> pending = hv_.harvest_hyp_dirty(vm);
    merge_unique(vm, pending, carry);
    carry.clear();
    hv_.audit_now(vm.id());
    m.count(Event::kMigrationRound);
    ++rep.rounds;
    if (opts.drain_window_body) opts.drain_window_body();
    const VirtDuration pause_start = m.clock.now();
    merge_unique(vm, pending, hv_.collect_dirty_paused(vm));
    rep.stop_copy_pages = pending.size();
    if (!send_pages(m, pending.size(), opts, rep)) {
      rep.aborted = true;
      m.count(Event::kMigrationAborted);
    }
    rep.downtime = m.clock.now() - pause_start;
  }

  hv_.disable_pml_for_hyp(vm);
  hv_.audit_now(vm.id());
  rep.total_time = m.clock.now() - start;
  return rep;
}

}  // namespace ooh::hv
