#include "sim/tlb.hpp"

#include <algorithm>

namespace ooh::sim {

namespace {

[[nodiscard]] constexpr std::size_t next_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

[[nodiscard]] inline u64 hash_key(u32 pid, Gva gva_page) noexcept {
  u64 h = page_index(gva_page) * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<u64>(pid) + 0x9E3779B97F4A7C15ULL) * 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

}  // namespace

Tlb::Tlb(std::size_t capacity) : capacity_(capacity) {
  // Everything is sized up front: the hit path and steady-state insert path
  // never allocate. At least one slot exists even with capacity 0 (an
  // insert transiently holds one entry before the next insert evicts it,
  // matching the previous implementation).
  const std::size_t slot_count = std::max<std::size_t>(capacity_, 1);
  slots_.resize(slot_count);
  const std::size_t buckets = next_pow2(std::max<std::size_t>(16, 2 * slot_count));
  index_.assign(buckets, kEmptyBucket);
  bucket_mask_ = buckets - 1;
}

std::size_t Tlb::bucket_of(u32 pid, Gva gva_page) const noexcept {
  return static_cast<std::size_t>(hash_key(pid, gva_page)) & bucket_mask_;
}

std::size_t Tlb::find_bucket(u32 pid, Gva gva_page) const noexcept {
  std::size_t b = bucket_of(pid, gva_page);
  while (index_[b] != kEmptyBucket) {
    const Slot& s = slots_[index_[b] - 1];
    if (s.pid == pid && s.gva_page == gva_page) return b;
    b = (b + 1) & bucket_mask_;
  }
  return kAbsent;
}

void Tlb::index_insert(u32 pid, Gva gva_page, std::size_t pos) noexcept {
  std::size_t b = bucket_of(pid, gva_page);
  while (index_[b] != kEmptyBucket) b = (b + 1) & bucket_mask_;
  index_[b] = static_cast<u32>(pos) + 1;
  slots_[pos].bucket = static_cast<u32>(b);
}

void Tlb::index_erase(std::size_t b) noexcept {
  // Backward-shift deletion: pull every displaced follower of the probe
  // chain into the hole so lookups never need tombstones.
  std::size_t hole = b;
  std::size_t j = (b + 1) & bucket_mask_;
  while (index_[j] != kEmptyBucket) {
    const Slot& s = slots_[index_[j] - 1];
    const std::size_t home = bucket_of(s.pid, s.gva_page);
    if (((j - home) & bucket_mask_) >= ((j - hole) & bucket_mask_)) {
      index_[hole] = index_[j];
      slots_[index_[j] - 1].bucket = static_cast<u32>(hole);
      hole = j;
    }
    j = (j + 1) & bucket_mask_;
  }
  index_[hole] = kEmptyBucket;
}

std::size_t Tlb::exact_slot(u32 pid, Gva gva_page) noexcept {
  if (known_absent(pid, gva_page)) return kAbsent;
  const std::size_t b = find_bucket(pid, gva_page);
  if (b == kAbsent) {
    remember_absent(pid, gva_page);
    return kAbsent;
  }
  hit_pos_ = index_[b] - 1;
  return hit_pos_;
}

TlbEntry* Tlb::lookup_indexed(u32 pid, Gva gva_page) noexcept {
  if (const std::size_t pos = exact_slot(pid, gva_page); pos != kAbsent) {
    return &slots_[pos].entry;
  }
  if (huge_entries_ != 0) {
    // Region-base probes, smallest first (GRAN-1 means at most one hits).
    for (const PageGran g : {PageGran::k2M, PageGran::k1G}) {
      const std::size_t hb = find_bucket(pid, gran_floor(gva_page, g));
      if (hb != kAbsent && slots_[index_[hb] - 1].entry.gran == g) {
        return &slots_[index_[hb] - 1].entry;
      }
    }
  }
  return nullptr;
}

void Tlb::insert(u32 pid, Gva gva_page, const TlbEntry& entry) {
  assert((gva_page >> 48) == 0 &&
         "GVA beyond the 48-bit split would have aliased the old packed key");
  assert(is_gran_aligned(gva_page, entry.gran) &&
         "huge entries are keyed by their region base");
  gva_page = page_floor(gva_page);
  const std::size_t at = memo_hit(pid, gva_page) ? hit_pos_ : exact_slot(pid, gva_page);
  absent_page_ = kNoAbsentKey;  // the key is about to be present
  if (at != kAbsent) {
    // In-place refresh: the slot does not move, so memoised entry pointers
    // stay valid and re-read the new permission/dirty bits.
    TlbEntry& old = slots_[at].entry;
    if (old.gran != PageGran::k4K) --huge_entries_;
    if (entry.gran != PageGran::k4K) ++huge_entries_;
    old = entry;
    return;
  }
  if (size_ >= capacity_ && size_ > 0) {
    // Pseudo-random victim (xorshift): real TLBs approximate random/PLRU;
    // strict FIFO thrashes pathologically on cyclic page strides. The
    // xorshift stream and the victim position over the dense slot array
    // replicate the previous map+vector implementation exactly, keeping
    // every hit/miss sequence — and therefore virtual time — bit-identical.
    rand_state_ ^= rand_state_ << 13;
    rand_state_ ^= rand_state_ >> 7;
    rand_state_ ^= rand_state_ << 17;
    evict_at(rand_state_ % size_);
  }
  const std::size_t pos = size_;
  slots_[pos].pid = pid;
  slots_[pos].gva_page = gva_page;
  slots_[pos].entry = entry;
  index_insert(pid, gva_page, pos);
  if (entry.gran != PageGran::k4K) ++huge_entries_;
  ++size_;
  hit_pos_ = pos;  // a fill is followed by hits on the same page
}

void Tlb::evict_at(std::size_t pos) noexcept {
  assert(pos < size_);
  if (slots_[pos].entry.gran != PageGran::k4K) --huge_entries_;
  index_erase(slots_[pos].bucket);
  const std::size_t last = size_ - 1;
  if (pos != last) {
    // Swap-with-last keeps the live range dense; re-point the moved key's
    // bucket (index_erase above kept every slot's bucket field current) at
    // its new position.
    slots_[pos] = slots_[last];
    index_[slots_[pos].bucket] = static_cast<u32>(pos) + 1;
  }
  size_ = last;
}

void Tlb::invalidate_page(u32 pid, Gva gva_page) noexcept {
  gva_page = page_floor(gva_page);
  if (const std::size_t pos = memo_hit(pid, gva_page) ? hit_pos_ : exact_slot(pid, gva_page);
      pos != kAbsent) {
    evict_at(pos);
    remember_absent(pid, gva_page);
    return;
  }
  if (huge_entries_ != 0) {
    // INVLPG semantics: a huge entry covering the page is dropped whole.
    for (const PageGran g : {PageGran::k2M, PageGran::k1G}) {
      const std::size_t hb = find_bucket(pid, gran_floor(gva_page, g));
      if (hb != kAbsent && slots_[index_[hb] - 1].entry.gran == g) {
        evict_at(index_[hb] - 1);
        return;
      }
    }
  }
}

void Tlb::invalidate_region(u32 pid, Gva base, PageGran gran) noexcept {
  const Gva lo = gran_floor(base, gran);
  const Gva hi = lo + gran_size(gran);
  // The region may be cached as one huge entry, 512 base-page entries, or a
  // mix; and a larger entry may cover the region. Downward scan mirrors
  // flush_pid's eviction order.
  for (std::size_t i = size_; i-- > 0;) {
    if (slots_[i].pid != pid) continue;
    const Gva s_lo = slots_[i].gva_page;
    const Gva s_hi = s_lo + gran_size(slots_[i].entry.gran);
    if (s_lo < hi && lo < s_hi) evict_at(i);
  }
}

void Tlb::flush_pid(u32 pid) noexcept {
  // Downward scan with swap-with-last eviction: elements swapped into
  // position i come from already-scanned tail positions, mirroring the
  // previous implementation's traversal (victim positions in later inserts
  // depend on this ordering).
  for (std::size_t i = size_; i-- > 0;) {
    if (slots_[i].pid == pid) evict_at(i);
  }
}

void Tlb::flush_all() noexcept {
  // Clear only the occupied buckets: a flush right after a service with few
  // live entries must not pay for the whole index array.
  for (std::size_t i = 0; i < size_; ++i) index_[slots_[i].bucket] = kEmptyBucket;
  size_ = 0;
  huge_entries_ = 0;
}

}  // namespace ooh::sim
