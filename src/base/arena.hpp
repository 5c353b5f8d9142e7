// Monotonic arena for page-table radix nodes.
//
// The radix tables (guest PT and EPT) allocate interior nodes and leaves
// lazily and never free them individually — unmap zeroes entries in place
// (see sim/radix.hpp). That lifetime is exactly what a bump arena models:
// nodes are created one after another, live until the whole table resets,
// and die together. Routing node allocation through an arena buys two
// things:
//
//   1. Zero steady-state allocation: once the working set's nodes exist,
//      ensure() never touches the global allocator again, so benchmark
//      inner loops report allocs_per_op == 0.
//   2. Wholesale reset: RadixTable4::clear() (used when
//      GuestPageTable::convert_to_segments() retires the radix backend)
//      drops every node by rewinding the arena instead of walking the tree
//      deleting unique_ptrs.
//
// Blocks are small (64 KiB) and not prefaulted: every guest page table and
// every EPT owns an arena, and most of them hold a handful of nodes, so a
// large touched block per table would be resident memory no node uses.
//
// Only trivially-destructible types may be created here — the arena never
// runs destructors. Reset keeps the reserved blocks so a repopulated table
// reuses warm memory; create<T>() value-initialises, so recycled bytes are
// re-zeroed per node.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

namespace ooh::base {

class Arena {
 public:
  /// Block size for radix nodes: an interior node is 512 pointers (4 KiB)
  /// and the largest node, a leaf of 512 16-byte PTEs, is 8 KiB, so a block
  /// holds 8–16 of them.
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    for (Block& b : blocks_) ::operator delete(b.data, std::align_val_t{kMaxAlign});
  }

  /// Bump-allocate `bytes` (aligned to `align`, which must divide
  /// kMaxAlign). A node that does not fit in the current block's tail
  /// starts the next block, so no node spans two blocks.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    assert(align != 0 && kMaxAlign % align == 0 && "over-aligned arena node");
    assert(bytes <= kBlockBytes && "node larger than an arena block");
    std::size_t off = (offset_ + align - 1) & ~(align - 1);
    if (block_ >= blocks_.size() || off + bytes > kBlockBytes) {
      if (block_ < blocks_.size()) ++block_;  // current block exhausted
      if (block_ >= blocks_.size()) grow();
      off = 0;
    }
    offset_ = off + bytes;
    return blocks_[block_].data + off;
  }

  /// Placement-construct a value-initialised T. Value-init (T{}) matters:
  /// after reset() the underlying bytes are recycled, and zeroed members
  /// (null child pointers, absent entries) are the radix tables' "empty".
  template <typename T>
  [[nodiscard]] T* create() {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return ::new (allocate(sizeof(T), alignof(T))) T{};
  }

  /// Rewind to empty, keeping every reserved block for reuse. All pointers
  /// handed out so far become invalid at once — the radix-table lifetime.
  void reset() noexcept {
    block_ = 0;
    offset_ = 0;
  }

  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    return blocks_.size() * kBlockBytes;
  }
  [[nodiscard]] std::size_t used_bytes() const noexcept {
    if (blocks_.empty()) return 0;
    return block_ * kBlockBytes + offset_;
  }

 private:
  static constexpr std::size_t kMaxAlign = alignof(std::max_align_t);

  struct Block {
    std::byte* data = nullptr;
  };

  void grow() {
    auto* data = static_cast<std::byte*>(
        ::operator new(kBlockBytes, std::align_val_t{kMaxAlign}));
    blocks_.push_back(Block{data});
    block_ = blocks_.size() - 1;
    offset_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t block_ = 0;   ///< index of the block currently bumped into.
  std::size_t offset_ = 0;  ///< bump offset within blocks_[block_].
};

}  // namespace ooh::base
