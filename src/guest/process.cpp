#include "guest/process.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "guest/kernel.hpp"

namespace ooh::guest {

// ---- TruthLedger ---------------------------------------------------------------

TruthLedger::Item TruthLedger::const_iterator::operator*() const noexcept {
  const Region& r = ledger_->regions_[region_];
  return {r.start + page_ * kPageSize, r.last[page_]};
}

void TruthLedger::const_iterator::settle() noexcept {
  const std::vector<Region>& regions = ledger_->regions_;
  for (; region_ < regions.size(); ++region_, page_ = 0) {
    const std::vector<u64>& last = regions[region_].last;
    for (; page_ < last.size(); ++page_) {
      if (last[page_] > ledger_->watermark_) return;
    }
  }
  page_ = 0;
}

const TruthLedger::Region* TruthLedger::region_of(Gva page) const noexcept {
  const auto it = std::upper_bound(regions_.begin(), regions_.end(), page,
                                   [](Gva p, const Region& r) { return p < r.start; });
  if (it == regions_.begin()) return nullptr;
  const Region& r = *std::prev(it);
  return page < r.end ? &r : nullptr;
}

bool TruthLedger::contains(Gva page) const noexcept {
  const Region* r = region_of(page);
  return r != nullptr && r->last[page_index(page - r->start)] > watermark_;
}

void TruthLedger::locate(Gva page, const std::vector<Vma>& vmas) {
  if (const Region* r = region_of(page); r != nullptr) {
    mru_ = static_cast<std::size_t>(r - regions_.data());
    return;
  }
  const auto vma = std::find_if(vmas.begin(), vmas.end(),
                                [page](const Vma& v) { return v.contains(page); });
  if (vma == vmas.end()) {
    throw std::out_of_range("truth_record: page outside every VMA");
  }
  const auto at = std::lower_bound(
      regions_.begin(), regions_.end(), vma->start,
      [](const Region& r, Gva start) { return r.start < start; });
  const auto it = regions_.insert(
      at, Region{vma->start, vma->end, std::vector<u64>(page_index(vma->bytes()), 0)});
  mru_ = static_cast<std::size_t>(it - regions_.begin());
}

void TruthLedger::drop(Gva start) noexcept {
  const auto it = std::find_if(regions_.begin(), regions_.end(),
                               [start](const Region& r) { return r.start == start; });
  if (it == regions_.end()) return;  // never written
  for (const u64 seq : it->last) {
    if (seq > watermark_) --dirty_;
  }
  regions_.erase(it);
  mru_ = 0;
}

// ---- Process -------------------------------------------------------------------

Gva Process::mmap(u64 bytes, bool data_backed) {
  const Gva start = next_mmap_;
  mmap_fixed(start, bytes, data_backed);
  return start;
}

void Process::mmap_fixed(Gva start, u64 bytes, bool data_backed) {
  if (bytes == 0) throw std::invalid_argument("mmap of zero bytes");
  if (!is_page_aligned(start)) throw std::invalid_argument("mmap: unaligned start");
  const u64 len = page_ceil(bytes);
  Vma vma;
  vma.start = start;
  vma.end = start + len;
  vma.writable = true;
  vma.data_backed = data_backed;
  // vmas_ stays sorted by start; the neighbours either side must not overlap.
  const auto at = std::lower_bound(
      vmas_.begin(), vmas_.end(), start,
      [](const Vma& v, Gva s) { return v.start < s; });
  if ((at != vmas_.end() && at->start < vma.end) ||
      (at != vmas_.begin() && std::prev(at)->end > start)) {
    throw std::invalid_argument("mmap: range overlaps an existing VMA");
  }
  vmas_.insert(at, vma);
  vma_mru_ = 0;  // indices may have shifted
  next_mmap_ = std::max(next_mmap_, vma.end + kPageSize);  // guard page between mappings
  mapped_bytes_ += len;
}

void Process::munmap(Gva base) {
  const auto it = std::find_if(vmas_.begin(), vmas_.end(),
                               [base](const Vma& v) { return v.start == base; });
  if (it == vmas_.end()) throw std::invalid_argument("munmap: no VMA at this base");
  sim::GuestPageTable& pt = kernel_.page_table(*this);
  sim::ExecContext& m = kernel_.ctx_of(*this);
  for (Gva page = it->start; page < it->end; page += kPageSize) {
    // Anonymous memory: the guest frame is freed (and later recycled into
    // other mappings), and the hypervisor's stale EPT entry is zapped so
    // the recycled frame starts with fresh accessed/dirty state.
    if (const sim::GuestPageTable::Lookup lu = pt.lookup(page);
        lu.pte != nullptr && lu.pte->present) {
      sim::Ept& ept = kernel_.vm().ept();
      // Punching a 4 KiB hole into a huge EPT region: shatter the covering
      // leaf (1G twice, 2M once) so the per-page unmap below finds a 4 KiB
      // leaf — the demand-split complement of eager splitting.
      for (sim::Ept::Lookup elu = ept.lookup(lu.gpa_page);
           elu.entry != nullptr && elu.entry->present &&
           elu.gran != PageGran::k4K;
           elu = ept.lookup(lu.gpa_page)) {
        ept.split_huge_leaf(lu.gpa_page, elu.gran);
      }
      Hpa hpa = 0;
      if (ept.translate(lu.gpa_page, hpa)) {
        m.pmem.free_frame(page_floor(hpa));
      }
      ept.unmap(lu.gpa_page);
      kernel_.free_gpa_frame(lu.gpa_page);
    }
    pt.unmap(page);
    kernel_.tlb_invalidate_page(*this, page);
  }
  truth_.drop(it->start);
  m.count(Event::kContextSwitch, 2);  // the munmap syscall
  m.charge_us(2 * m.cost.ctx_switch_us);
  mapped_bytes_ -= it->bytes();
  // Tell page-track consumers the range is gone so they drop derived state
  // (e.g. SPML's GPA->GVA reverse-map cache); mirrors KVM's
  // track_flush_slot on memslot teardown.
  for (unsigned cpu = 0; cpu < kernel_.vcpu_count(); ++cpu) {
    kernel_.vm().track(cpu).notify_flush(pid_, it->start, it->end);
  }
  vmas_.erase(it);
  vma_mru_ = 0;  // indices shifted
}

Vma* Process::vma_scan(Gva gva) noexcept {
  // The memo is an index: push_back may reallocate the vector under a pointer.
  for (std::size_t i = 0; i < vmas_.size(); ++i) {
    if (vmas_[i].contains(gva)) {
      vma_mru_ = i;
      return &vmas_[i];
    }
  }
  return nullptr;
}

void Process::write_u64(Gva gva, u64 value) {
  sim::ExecContext& m = kernel_.ctx_of(*this);
  const Hpa hpa = kernel_.access(*this, gva, /*is_write=*/true, nsecs(m.cost.workload_write_ns));
  const Vma* vma = vma_of(gva);
  if (vma != nullptr && vma->data_backed) m.pmem.write_u64(hpa, value);
}

u64 Process::read_u64(Gva gva) {
  sim::ExecContext& m = kernel_.ctx_of(*this);
  const Hpa hpa = kernel_.access(*this, gva, /*is_write=*/false, nsecs(m.cost.workload_write_ns));
  const Vma* vma = vma_of(gva);
  return (vma != nullptr && vma->data_backed) ? m.pmem.read_u64(hpa) : 0;
}

void Process::touch_write(Gva gva) {
  const sim::ExecContext& m = kernel_.ctx_of(*this);
  (void)kernel_.access(*this, gva, /*is_write=*/true, nsecs(m.cost.workload_write_ns));
}

void Process::touch_read(Gva gva) {
  const sim::ExecContext& m = kernel_.ctx_of(*this);
  (void)kernel_.access(*this, gva, /*is_write=*/false, nsecs(m.cost.workload_write_ns));
}

void Process::touch_range(Gva gva, u64 bytes, bool is_write, u64 stride) {
  if (bytes == 0) return;
  if (stride == 0) throw std::invalid_argument("touch_range: zero stride");
  const u64 n = (bytes + stride - 1) / stride;
  kernel_.touch_run(*this, gva, stride, n, is_write);
}

void Process::write_bytes(Gva gva, std::span<const u8> data) {
  // One translation per page chunk (sequential stores share the TLB entry);
  // compute cost scales with the words moved.
  sim::ExecContext& m = kernel_.ctx_of(*this);
  std::size_t off = 0;
  while (off < data.size()) {
    const Gva addr = gva + off;
    const std::size_t chunk =
        std::min<std::size_t>(data.size() - off, kPageSize - page_offset(addr));
    const Hpa hpa = kernel_.access(
        *this, addr, /*is_write=*/true,
        nsecs(m.cost.workload_bulk_word_ns * static_cast<double>((chunk + 7) / 8)));
    const Vma* vma = vma_of(addr);
    if (vma != nullptr && vma->data_backed) {
      std::memcpy(m.pmem.frame_data(page_floor(hpa)) + page_offset(hpa),
                  data.data() + off, chunk);
    }
    off += chunk;
  }
}

void Process::read_bytes(Gva gva, std::span<u8> out) {
  sim::ExecContext& m = kernel_.ctx_of(*this);
  std::size_t off = 0;
  while (off < out.size()) {
    const Gva addr = gva + off;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - off, kPageSize - page_offset(addr));
    const Hpa hpa = kernel_.access(
        *this, addr, /*is_write=*/false,
        nsecs(m.cost.workload_bulk_word_ns * static_cast<double>((chunk + 7) / 8)));
    const Vma* vma = vma_of(addr);
    if (vma != nullptr && vma->data_backed) {
      const u8* src = m.pmem.frame_data_if_present(page_floor(hpa));
      if (src != nullptr) {
        std::memcpy(out.data() + off, src + page_offset(hpa), chunk);
      } else {
        std::memset(out.data() + off, 0, chunk);
      }
    } else {
      std::memset(out.data() + off, 0, chunk);
    }
    off += chunk;
  }
}

}  // namespace ooh::guest
