#include "hypervisor/migration.hpp"

#include <algorithm>
#include <new>
#include <thread>
#include <vector>

#include "base/sync.hpp"
#include "ooh/adaptive/convergence.hpp"

namespace ooh::hv {
namespace {

/// Append the elements of `more` that `base` does not already contain,
/// deduplicating through the VM's harvest bitmap.
void merge_unique(Vm& vm, std::vector<Gpa>& base, const std::vector<Gpa>& more) {
  if (more.empty()) return;
  PageBitmap::Unique unique(vm.harvest_bits(), base);
  for (const Gpa g : more) unique.add(g);
}

/// One host drainer thread per vCPU ring, running while the guest quantum
/// executes on the caller's thread. SPSC holds: the vCPU is the only
/// producer of its ring and its drainer is the only consumer; drained
/// entries land in Vm::drained_log(cpu), which the next quiescent harvest
/// (take_ring_contents, after join) folds back into the authoritative set.
class ConcurrentDrainers {
 public:
  ConcurrentDrainers(Hypervisor& hv, Vm& vm) : hv_(hv), vm_(vm) {
    threads_.reserve(vm.vcpu_count());
    for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
      threads_.emplace_back([this, cpu] {
        std::vector<Gpa> local;
        std::size_t popped = 0;
        while (!stop_.load(std::memory_order_acquire)) {
          popped += hv_.drain_dirty_ring(vm_, cpu, local);
          std::this_thread::yield();
        }
        // Final sweep after the producer quiesced: entries pushed between
        // the last poll and the stop flag.
        popped += hv_.drain_dirty_ring(vm_, cpu, local);
        // relaxed-ok: per-thread tally folded after join; the join itself
        // is the ordering edge stop() relies on.
        drained_.fetch_add(popped, std::memory_order_relaxed);
      });
    }
  }

  /// Join the drainers; returns total entries popped across all rings.
  u64 stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    // relaxed-ok: all drainers joined above; no concurrent writers left.
    return drained_.load(std::memory_order_relaxed);
  }

  ~ConcurrentDrainers() {
    if (!threads_.empty()) stop();
  }

 private:
  Hypervisor& hv_;
  Vm& vm_;
  sync::Atomic<bool> stop_{false};
  sync::Atomic<u64> drained_{0};
  std::vector<std::thread> threads_;
};

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

  // Guest-execution wrapper: with concurrent_ring_drain, userspace drainer
  // threads empty the per-vCPU dirty rings while the body runs; without it,
  // this is a plain call. Either way the subsequent quiescent harvest sees
  // the same authoritative set (drained entries fold back in).
  const auto run_overlapped = [&](const std::function<void()>& body) {
    if (!body) return;
    if (!opts.concurrent_ring_drain) {
      body();
      return;
    }
    ConcurrentDrainers drainers(hv_, vm);
    body();
    rep.ring_drained += drainers.stop();
  };

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

  lib::ConvergencePredictor predictor;
  std::vector<Gpa> carry;  // harvested but never transferred (failed sends)
  for (unsigned round = 0; round < opts.max_rounds; ++round) {
    const VirtDuration round_start = m.clock.now();
    run_overlapped(run_guest_quantum);
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
      run_overlapped(opts.drain_window_body);
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
    if (opts.adaptive_convergence) {
      // Convergence prediction: dirty rate (EWMA over virtual time) vs. the
      // transport's send bandwidth.
      predictor.observe_round(pending.size(), m.clock.now() - round_start);
      if (predictor.rounds() >= opts.predictor_warmup_rounds) {
        const bool non_conv = predictor.non_convergent(m.cost);
        predictor.note_verdict(non_conv);
        if (non_conv && opts.throttle_fraction > 0.0) {
          // Auto-converge: stall the guest for a fraction of the round it
          // just ran (charged slowdown), lowering the dirty rate the next
          // round will measure — QEMU's cpu-throttle, in virtual time.
          m.count(Event::kMigrationThrottle);
          ++rep.throttled_rounds;
          m.charge_us(opts.throttle_fraction * to_us(m.clock.now() - round_start));
        }
        if (predictor.sustained_non_convergence() >= opts.predictor_patience) {
          // Pre-copy provably cannot shrink the pending set: skip the
          // redundant transfer and fold the harvest straight into the
          // forced stop-and-copy below (auto-sized max_rounds).
          rep.predicted_nonconvergent = true;
          carry = std::move(pending);
          break;
        }
      }
    }
    if (send_pages(m, pending.size(), opts, rep)) {
      carry.clear();
    } else {
      // Send failed even after retries: fold the set into the next round
      // instead of dropping it on the floor.
      carry = std::move(pending);
    }
  }
  rep.predicted_dirty_rate = predictor.dirty_rate();
  if (!rep.converged && !rep.aborted) {
    // Non-convergence cutoff: forced stop-and-copy after max_rounds. This
    // runs a full extra round (guest quantum + harvest), so it counts as
    // one: rounds and kMigrationRound stay the ground truth of how many
    // quanta the guest ran during pre-copy.
    run_overlapped(run_guest_quantum);
    std::vector<Gpa> pending = hv_.harvest_hyp_dirty(vm);
    merge_unique(vm, pending, carry);
    carry.clear();
    hv_.audit_now(vm.id());
    m.count(Event::kMigrationRound);
    ++rep.rounds;
    run_overlapped(opts.drain_window_body);
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
