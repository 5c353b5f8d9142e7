#include "trackers/uafguard/quarantine.hpp"

#include <algorithm>
#include <cstring>

#include "base/clock.hpp"
#include "guest/kernel.hpp"

namespace ooh::uaf {
namespace {

constexpr u64 kAlign = 16;
constexpr double kScanWordNs = 4.0;  // conservative scan, per 8-byte word

[[nodiscard]] constexpr u64 align_up(u64 v) noexcept {
  return (v + kAlign - 1) & ~(kAlign - 1);
}

}  // namespace

QuarantineAllocator::QuarantineAllocator(guest::GuestKernel& kernel,
                                         guest::Process& proc, u64 arena_bytes,
                                         lib::Technique technique)
    : kernel_(kernel), proc_(proc), arena_bytes_(page_ceil(arena_bytes)) {
  arena_ = proc_.mmap(arena_bytes_, /*data_backed=*/true);
  tracker_ = lib::make_tracker(technique, kernel_, proc_);
  tracker_->init();
  tracker_->begin_interval();
}

QuarantineAllocator::~QuarantineAllocator() {
  tracker_->shutdown();
}

Gva QuarantineAllocator::alloc(u64 bytes) {
  if (bytes == 0) throw std::invalid_argument("alloc of zero bytes");
  const u64 size = align_up(bytes);
  Gva addr = 0;
  if (auto it = free_lists_.find(size); it != free_lists_.end() && !it->second.empty()) {
    addr = it->second.back();
    it->second.pop_back();
    blocks_.at(addr).state = State::kLive;
  } else {
    if (bump_ + size > arena_bytes_) throw std::bad_alloc{};
    addr = arena_ + bump_;
    bump_ += size;
    blocks_.emplace(addr, Block{size, State::kLive});
  }
  ++live_;
  // Allocation header store: dirties the page so sweeps will re-scan it.
  proc_.write_u64(addr, 0);
  return addr;
}

void QuarantineAllocator::free(Gva block) {
  const auto it = blocks_.find(block);
  if (it == blocks_.end() || it->second.state != State::kLive) {
    throw std::invalid_argument("free of a non-live block (double free?)");
  }
  it->second.state = State::kQuarantined;
  --live_;
  ++quarantined_;
}

bool QuarantineAllocator::block_pinned(Gva block) const {
  const auto it = blocks_.find(block);
  return it != blocks_.end() && it->second.state != State::kFree;
}

void QuarantineAllocator::scan_page(Gva page) {
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  m.charge_ns(kScanWordNs * static_cast<double>(kPageSize / 8));

  // Drop this page's old contribution to the reference map.
  if (const auto old = page_refs_.find(page); old != page_refs_.end()) {
    for (const Gva block : old->second) {
      if (const auto rp = ref_pages_.find(block); rp != ref_pages_.end()) {
        rp->second.erase(page);
        if (rp->second.empty()) ref_pages_.erase(rp);
      }
    }
    old->second.clear();
  }

  // Conservative word scan: any u64 that lands inside a registered block
  // counts as a reference to it (live or quarantined -- the block may be
  // freed later while the pointer persists on a then-clean page).
  std::vector<u8> bytes(kPageSize);
  proc_.read_bytes(page, bytes);
  std::unordered_set<Gva>& refs = page_refs_[page];
  for (u64 off = 0; off < kPageSize; off += 8) {
    u64 value = 0;
    std::memcpy(&value, bytes.data() + off, 8);
    if (value < arena_ || value >= arena_ + arena_bytes_) continue;
    auto it = blocks_.upper_bound(value);
    if (it == blocks_.begin()) continue;
    --it;
    if (value < it->first + it->second.size) {
      refs.insert(it->first);
      ref_pages_[it->first].insert(page);
    }
  }
  if (refs.empty()) page_refs_.erase(page);
}

void QuarantineAllocator::release_unreferenced() {
  std::vector<Gva> releasable;
  for (const auto& [addr, block] : blocks_) {
    if (block.state == State::kQuarantined && !ref_pages_.contains(addr)) {
      releasable.push_back(addr);
    }
  }
  for (const Gva addr : releasable) {
    Block& b = blocks_.at(addr);
    b.state = State::kFree;  // parked on the free list, reusable
    free_lists_[b.size].push_back(addr);
    --quarantined_;
  }
}

QuarantineAllocator::SweepStats QuarantineAllocator::sweep() {
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  SweepStats st;
  const VirtDuration start = m.clock.now();

  std::vector<Gva> pages;
  {
    VirtualClock::Scope s(m.clock, st.dirty_query);
    const std::vector<Gva> dirty = tracker_->collect();
    tracker_->begin_interval();
    if (!first_sweep_done_) {
      st.full = true;
      for (Gva p = arena_; p < arena_ + bump_; p += kPageSize) pages.push_back(p);
      first_sweep_done_ = true;
    } else {
      for (const Gva p : dirty) {
        if (p >= arena_ && p < arena_ + arena_bytes_) pages.push_back(p);
      }
    }
  }

  for (const Gva page : pages) scan_page(page);
  st.pages_scanned = pages.size();

  const u64 before = quarantined_;
  release_unreferenced();
  st.blocks_released = before - quarantined_;
  st.blocks_held = quarantined_;
  st.time = m.clock.now() - start;
  return st;
}

}  // namespace ooh::uaf
