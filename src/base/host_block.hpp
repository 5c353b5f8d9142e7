// Page-aligned 16 MiB blocks of host memory, recycled per thread.
//
// Frame contents (sim::PhysicalMemory, one block per 16 MiB chunk of the
// frame table) and checkpoint image slots (criu::PageStore, one block per
// 16 MiB of a region) live in these blocks, so a page's bytes are found by
// arithmetic from one base and every 4 KiB page sits on one host page.
//
// Each block is one anonymous mapping. Mapping it fresh costs a host page
// fault per first touch, so a released block goes to the releasing thread's
// spare list and the next take() on that thread reuses it, already
// committed. A thread keeps at most its own high-water mark of live blocks
// (taken by it and not yet released by it) plus spares, and unmaps anything
// beyond that, so a thread that only ever releases keeps nothing and a
// thread's footprint never exceeds what it once held at the same time. The
// pool is per thread: no lock, no atomic. A block may be released on a
// thread other than the one that took it (ownership moves with the object
// that holds it).
//
// A taken block's bytes are unspecified: a fresh mapping reads zero, a
// recycled one holds its last owner's bytes. Owners must write a page
// before reading it. Under AddressSanitizer a taken block is poisoned
// whole, and owners unpoison each page as they hand it out.
#pragma once

#include <cstddef>
#include <utility>

#include "base/types.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define OOH_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#define OOH_ASAN 1
#endif
#endif

namespace ooh::base {

/// Mark `bytes` at `p` unaddressable (poison) or addressable again; no-ops
/// unless built with AddressSanitizer.
inline void asan_poison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(OOH_ASAN)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
}
inline void asan_unpoison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(OOH_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
}

/// One page-aligned block of anonymous host memory, owned: destroying (or
/// assigning over) a block releases it to the current thread's pool.
class HostBlock {
 public:
  static constexpr std::size_t kBytes = 16 * kMiB;
  static constexpr u64 kPages = kBytes / kPageSize;

  HostBlock() noexcept = default;
  /// A block from this thread's spares, or a fresh mapping; throws
  /// std::bad_alloc when the host cannot map one.
  [[nodiscard]] static HostBlock take();

  HostBlock(HostBlock&& o) noexcept : data_(std::exchange(o.data_, nullptr)) {}
  HostBlock& operator=(HostBlock&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
    }
    return *this;
  }
  HostBlock(const HostBlock&) = delete;
  HostBlock& operator=(const HostBlock&) = delete;
  ~HostBlock() { release(); }

  /// The block's first byte; null for an empty handle.
  [[nodiscard]] u8* data() const noexcept { return data_; }
  [[nodiscard]] explicit operator bool() const noexcept { return data_ != nullptr; }

  /// Spare blocks the calling thread's pool holds.
  [[nodiscard]] static std::size_t spares() noexcept;

 private:
  explicit HostBlock(u8* data) noexcept : data_(data) {}
  void release() noexcept;

  u8* data_ = nullptr;
};

}  // namespace ooh::base
