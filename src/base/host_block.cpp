#include "base/host_block.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <vector>

namespace ooh::base {
namespace {

void unmap(u8* data) noexcept {
  asan_unpoison(data, HostBlock::kBytes);  // the range may be mapped again for anyone
  ::munmap(data, HostBlock::kBytes);
}

/// One thread's spare blocks and the count its bound is taken from.
struct Pool {
  std::vector<u8*> spares;      ///< capacity >= high_water, so a release never allocates.
  std::size_t live = 0;         ///< blocks this thread took and has not released.
  std::size_t high_water = 0;   ///< the most `live` has been.
  ~Pool();
};

/// Set once this thread's pool is destroyed: a block released later (by a
/// static object outliving the thread's locals) is unmapped directly.
thread_local bool pool_gone = false;
thread_local Pool pool;

Pool::~Pool() {
  pool_gone = true;
  for (u8* data : spares) unmap(data);
}

}  // namespace

HostBlock HostBlock::take() {
  Pool& p = pool;
  if (p.live == p.high_water) p.spares.reserve(p.live + 1);  // before anything is taken
  u8* data = nullptr;
  if (!p.spares.empty()) {
    data = p.spares.back();
    p.spares.pop_back();
  } else {
    void* m = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc{};
    data = static_cast<u8*>(m);
  }
  p.high_water = std::max(p.high_water, ++p.live);
  asan_poison(data, kBytes);
  return HostBlock(data);
}

void HostBlock::release() noexcept {
  if (data_ == nullptr) return;
  u8* const data = std::exchange(data_, nullptr);
  if (!pool_gone) {
    Pool& p = pool;
    p.live -= std::min<std::size_t>(p.live, 1);  // a block another thread took counts nothing here
    if (p.live + p.spares.size() < p.high_water) {
      asan_poison(data, kBytes);
      p.spares.push_back(data);
      return;
    }
  }
  unmap(data);
}

std::size_t HostBlock::spares() noexcept { return pool_gone ? 0 : pool.spares.size(); }

}  // namespace ooh::base
