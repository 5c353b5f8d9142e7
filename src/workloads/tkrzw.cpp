#include "workloads/tkrzw.hpp"

#include <algorithm>
#include <stdexcept>
#include <bit>
#include <cmath>

namespace ooh::wl {

void KvEngine::setup(guest::Process& proc) {
  index_ = proc.mmap(std::max<u64>(layout_.index_bytes, kPageSize), data_backed_);
  arena_bytes_ = page_ceil(std::max<u64>(layout_.iterations * layout_.record_bytes,
                                         kPageSize));
  arena_ = proc.mmap(arena_bytes_, data_backed_);
}

u64 KvEngine::kv_capacity() const noexcept {
  // 16-byte slots (key, value) in the index region; one page minimum.
  return std::max<u64>(layout_.index_bytes, kPageSize) / 16;
}

void KvEngine::put(guest::Process& proc, u64 key, u64 value) {
  if (!data_backed_) throw std::logic_error("put() requires data-backed mode");
  if (key == 0) throw std::invalid_argument("key 0 is the empty-slot marker");
  const u64 cap = kv_capacity();
  u64 slot = (key * 0x9e3779b97f4a7c15ULL) % cap;
  for (u64 probe = 0; probe < cap; ++probe) {
    const Gva addr = index_ + slot * 16;
    const u64 existing = proc.read_u64(addr);
    if (existing == 0 || existing == key) {
      proc.write_u64(addr, key);
      proc.write_u64(addr + 8, value);
      return;
    }
    slot = (slot + 1) % cap;  // linear probing
  }
  throw std::bad_alloc{};  // store full
}

std::optional<u64> KvEngine::get(guest::Process& proc, u64 key) {
  if (!data_backed_) throw std::logic_error("get() requires data-backed mode");
  const u64 cap = kv_capacity();
  u64 slot = (key * 0x9e3779b97f4a7c15ULL) % cap;
  for (u64 probe = 0; probe < cap; ++probe) {
    const Gva addr = index_ + slot * 16;
    const u64 existing = proc.read_u64(addr);
    if (existing == 0) return std::nullopt;
    if (existing == key) return proc.read_u64(addr + 8);
    slot = (slot + 1) % cap;
  }
  return std::nullopt;
}

void KvEngine::run(guest::Process& proc) {
  for (u64 i = 0; i < layout_.iterations; ++i) {
    set(proc, rng_.next());
  }
}

void KvEngine::set(guest::Process& proc, u64 key) {
  const u64 index_pages = std::max<u64>(1, layout_.index_bytes / kPageSize);

  // Index read path (B-tree/RB-tree descent): depth scales with log(count).
  u64 reads = layout_.index_reads;
  if (reads == u64(-1)) {  // dynamic depth marker
    reads = count_ < 2 ? 1 : std::bit_width(count_);
  }
  for (u64 d = 0; d < reads; ++d) {
    const u64 page = (key ^ (d * 0x9e3779b97f4a7c15ULL)) % index_pages;
    proc.touch_read(index_ + page * kPageSize);
  }

  // Index slot writes (bucket store / node insert / rebalance).
  for (u64 w = 0; w < layout_.index_writes; ++w) {
    const u64 page = (key ^ (w * 0xbf58476d1ce4e5b9ULL)) % index_pages;
    const u64 slot = (key >> 17) % (kPageSize / 8);
    proc.write_u64(index_ + page * kPageSize + slot * 8, key);
  }

  if (layout_.hot_head_page) {
    proc.write_u64(index_, count_);  // LRU list head: written on every set
  }

  // Record append: sequential arena writes, one word per 64 bytes of value.
  const u64 rec = arena_cursor_;
  arena_cursor_ = (arena_cursor_ + layout_.record_bytes) % arena_bytes_;
  for (u64 off = 0; off < layout_.record_bytes; off += 64) {
    proc.write_u64(arena_ + (rec + off) % arena_bytes_, key);
  }

  if (layout_.extra_compute_us > 0.0) {
    proc.kernel().ctx_of(proc).charge_us(layout_.extra_compute_us);
  }
  ++count_;
}

BabyEngine::BabyEngine(u64 iterations, u64 record_bytes, bool data_backed)
    : KvEngine([&] {
        Layout l;
        l.iterations = iterations;
        l.index_bytes = std::max<u64>(iterations / 4, 1) * 16;  // sorted key index
        l.record_bytes = record_bytes;
        l.index_reads = u64(-1);  // B-tree descent, depth ~ log(count)
        l.index_writes = 1;       // leaf insert
        return l;
      }(), data_backed) {}

CacheEngine::CacheEngine(u64 iterations, u64 cap_rec_num, u64 record_bytes,
                         bool data_backed)
    : KvEngine([&] {
        Layout l;
        l.iterations = iterations;
        l.index_bytes = cap_rec_num * 8;  // bucket array
        l.record_bytes = record_bytes;
        l.index_reads = 1;   // hash probe
        l.index_writes = 1;  // bucket slot
        l.hot_head_page = true;  // LRU list head
        return l;
      }(), data_backed) {}

StdHashEngine::StdHashEngine(u64 iterations, u64 buckets, u64 record_bytes,
                             bool data_backed)
    : KvEngine([&] {
        Layout l;
        l.iterations = iterations;
        l.index_bytes = buckets * 8;
        l.record_bytes = record_bytes;
        l.index_reads = 1;
        l.index_writes = 1;
        l.extra_compute_us = 1.2;  // -record_comp zlib: per-record compression
        return l;
      }(), data_backed) {}

StdTreeEngine::StdTreeEngine(u64 iterations, u64 record_bytes, bool data_backed)
    : KvEngine([&] {
        Layout l;
        l.iterations = iterations;
        l.index_bytes = std::max<u64>(iterations, 1) * 32;  // RB-tree nodes
        l.record_bytes = record_bytes;
        l.index_reads = u64(-1);  // binary descent
        l.index_writes = 2;       // node insert + rebalance touch
        return l;
      }(), data_backed) {}

TinyEngine::TinyEngine(u64 iterations, u64 buckets, u64 record_bytes,
                       bool data_backed)
    : KvEngine([&] {
        Layout l;
        l.iterations = iterations;
        l.index_bytes = buckets * 8;  // huge flat bucket array (-buckets 30M)
        l.record_bytes = record_bytes;
        l.index_reads = 1;
        l.index_writes = 1;
        return l;
      }(), data_backed) {}

}  // namespace ooh::wl
