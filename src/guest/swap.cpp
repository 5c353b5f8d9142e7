#include "guest/swap.hpp"

#include <algorithm>

#include "guest/kernel.hpp"

namespace ooh::guest {

SwapDaemon::EvictStats SwapDaemon::evict(Process& proc, u64 target_pages) {
  sim::ExecContext& m = kernel_.ctx_of(proc);
  sim::GuestPageTable& pt = kernel_.page_table(proc);
  EvictStats stats;
  const VirtDuration start = m.clock.now();

  // Snapshot the resident pages in address order; rotate to the clock hand.
  std::vector<Gva> resident;
  pt.for_each_present([&](Gva gva, sim::Pte&) { resident.push_back(gva); });
  std::sort(resident.begin(), resident.end());
  if (resident.empty()) return stats;
  const Gva hand = clock_hand_[proc.pid()];
  const auto pivot = std::lower_bound(resident.begin(), resident.end(), hand);
  std::rotate(resident.begin(), pivot, resident.end());

  u64 evicted = 0;
  // At most two full sweeps: the first strips accessed bits, the second must
  // find victims.
  for (u64 i = 0; i < 2 * resident.size() && evicted < target_pages; ++i) {
    const Gva gva = resident[i % resident.size()];
    // A segment shares one Pte (and its flags) across its run; the page's
    // own frame is leaf.gpa_page, not the Pte's run base.
    const sim::GuestPageTable::Lookup leaf = pt.lookup(gva);
    sim::Pte* pte = leaf.pte;
    if (pte == nullptr || !pte->present) continue;
    // A page beneath a guest huge leaf is no candidate: unmapping one 4 KiB
    // page would leave the leaf mapping the frame freed here (Linux splits
    // a THP before it swaps a part of it).
    if (leaf.gran != PageGran::k4K) continue;
    ++stats.scanned;
    m.charge_ns(50);  // PTE inspection
    if (pte->accessed) {
      pte->accessed = false;  // second chance
      clock_hand_[proc.pid()] = gva + kPageSize;
      continue;
    }

    // Victim. Dirty pages must be written back; clean pages are dropped --
    // this is the dirty-tracking payoff the paper's intro describes.
    if (pte->dirty) {
      ++stats.evicted_dirty;
      m.count(Event::kDiskPageWrite);
      m.charge_us(m.cost.disk_write_page_us);
    } else {
      ++stats.evicted_clean;
    }
    // Clean or dirty, a data page's content is kept in the slot: this
    // anonymous-memory model has no file to re-read it from, so only the
    // I/O on the eviction path is what the dirty flag saves.
    Slot slot;
    slot.was_soft_dirty = pte->soft_dirty;
    const Vma* vma = proc.vma_of(gva);
    Hpa hpa = 0;
    if (vma != nullptr && vma->data_backed &&
        kernel_.vm().ept().translate(leaf.gpa_page, hpa)) {
      if (const u8* data = m.pmem.frame_data_if_present(hpa); data != nullptr) {
        slot.content.assign(data, data + kPageSize);
      }
    }
    slots_[key(proc.pid(), gva)] = std::move(slot);
    kernel_.free_gpa_frame(leaf.gpa_page);
    pt.unmap(gva);
    // Teardown of a mapping: cpumask-wide shootdown.
    kernel_.tlb_invalidate_page(proc, gva);
    clock_hand_[proc.pid()] = gva + kPageSize;
    ++evicted;
  }
  stats.time = m.clock.now() - start;
  return stats;
}

u64 SwapDaemon::swapped_out(const Process& proc) const {
  u64 n = 0;
  for (const auto& [k, slot] : slots_) {
    if ((k >> 40) == proc.pid()) ++n;
  }
  return n;
}

bool SwapDaemon::swap_in_if_needed(Process& proc, Gva gva_page) {
  const auto it = slots_.find(key(proc.pid(), gva_page));
  if (it == slots_.end()) return false;
  sim::ExecContext& m = kernel_.ctx_of(proc);

  // Major fault: read the page back from the swap device.
  m.count(Event::kPageFaultDemand);
  m.charge_us(m.cost.swap_in_page_us);

  const Vma* vma = proc.vma_of(gva_page);
  sim::GuestPageTable& pt = kernel_.page_table(proc);
  const Gpa gpa = kernel_.alloc_gpa_frame(m);
  pt.map(gva_page, gpa, vma != nullptr && vma->writable);
  // Under the segment backend the page may join the preceding run and share
  // its Pte: set the soft-dirty bit, never clear the run's.
  if (it->second.was_soft_dirty) pt.pte(gva_page)->soft_dirty = true;

  if (!it->second.content.empty()) {
    kernel_.ensure_ept_mapped(gpa, proc.cpu());
    Hpa hpa = 0;
    if (kernel_.vm().ept().translate(gpa, hpa)) m.pmem.write(hpa, it->second.content);
  }
  slots_.erase(it);
  return true;
}

}  // namespace ooh::guest
