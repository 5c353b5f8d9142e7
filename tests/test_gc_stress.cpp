// GC stress property test: drive the heap with thousands of random mutator
// operations, then verify the collector against an *independent* host-side
// reachability computation built only from a shadow action log.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "base/rng.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "trackers/boehmgc/gc.hpp"

namespace ooh::gc {
namespace {

/// Shadow model: an independent record of the object graph the test built.
struct Shadow {
  struct Node {
    unsigned slots = 0;
  };
  std::unordered_map<Gva, Node> nodes;
  std::unordered_map<Gva, std::vector<Gva>> refs;
  std::unordered_set<Gva> roots;
  std::vector<Gva> locals;  ///< objects held by live GcHeap::Local guards.

  void on_alloc(Gva o, unsigned slots) {
    nodes[o] = {slots};
    refs[o].assign(slots, 0);
  }
  void on_write(Gva o, unsigned slot, Gva target) { refs.at(o)[slot] = target; }

  [[nodiscard]] std::unordered_set<Gva> reachable() const {
    std::unordered_set<Gva> seen(roots.begin(), roots.end());
    seen.insert(locals.begin(), locals.end());
    std::deque<Gva> frontier(seen.begin(), seen.end());
    while (!frontier.empty()) {
      const Gva cur = frontier.front();
      frontier.pop_front();
      for (const Gva r : refs.at(cur)) {
        if (r != 0 && seen.insert(r).second) frontier.push_back(r);
      }
    }
    return seen;
  }

  /// Drop records of objects the GC legitimately freed.
  void prune(const std::unordered_set<Gva>& live) {
    std::erase_if(nodes, [&](const auto& kv) { return !live.contains(kv.first); });
    std::erase_if(refs, [&](const auto& kv) { return !live.contains(kv.first); });
  }
};

class GcStress : public ::testing::TestWithParam<lib::Technique> {};

TEST_P(GcStress, RandomMutationsNeverFreeLiveOrLeakDead) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  GcHeap heap(k, proc, 256 * kMiB, /*threshold=*/64 * kGiB);  // manual cycles only
  heap.set_technique(GetParam());
  heap.prepare_tracker();
  k.scheduler().enter_process(proc.pid());

  Shadow shadow;
  std::vector<Gva> handles;  // objects the mutator still remembers
  std::vector<std::unique_ptr<GcHeap::Local>> locals;  // innermost last
  Rng rng(20240705);

  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < 600; ++op) {
      const u64 dice = rng.below(100);
      if (dice < 45 || handles.empty()) {
        // Ref counts 0-3 with varied payloads, so equal-size blocks are
        // reused by objects with different numbers of pointer fields.
        const unsigned slots = static_cast<unsigned>(rng.below(4));
        const Gva o = heap.alloc(slots, 8 * rng.below(16));
        shadow.on_alloc(o, slots);
        handles.push_back(o);
      } else if (dice < 70) {
        // Link two remembered objects.
        const Gva from = handles[rng.below(handles.size())];
        const Gva to = handles[rng.below(handles.size())];
        const unsigned slots = shadow.nodes.at(from).slots;
        if (slots > 0) {
          const unsigned slot = static_cast<unsigned>(rng.below(slots));
          heap.write_ref(from, slot, to);
          shadow.on_write(from, slot, to);
        }
      } else if (dice < 78) {
        const Gva o = handles[rng.below(handles.size())];
        if (!shadow.roots.contains(o)) {
          heap.add_root(o);
          shadow.roots.insert(o);
        }
      } else if (dice < 84 && !shadow.roots.empty()) {
        const Gva o = *shadow.roots.begin();
        heap.remove_root(o);
        shadow.roots.erase(o);
      } else if (dice < 88) {
        // Guard a remembered object with a local root, as a mutator does
        // across allocations that may collect.
        const Gva o = handles[rng.below(handles.size())];
        locals.push_back(std::make_unique<GcHeap::Local>(heap, o));
        shadow.locals.push_back(o);
      } else if (dice < 92 && !locals.empty()) {
        locals.pop_back();
        shadow.locals.pop_back();
      } else {
        // Forget some handles: they become collectable unless reachable.
        for (int drop = 0; drop < 5 && !handles.empty(); ++drop) {
          handles[rng.below(handles.size())] = handles.back();
          handles.pop_back();
        }
      }
    }

    (void)heap.collect();

    // Independent verification: reachability recomputed from the shadow log.
    const std::unordered_set<Gva> expect_live = shadow.reachable();
    for (const Gva o : expect_live) {
      ASSERT_TRUE(heap.is_object(o)) << "GC freed a reachable object";
    }
    EXPECT_EQ(heap.live_objects(), expect_live.size())
        << "GC retained unreachable objects";
    shadow.prune(expect_live);
    // Every surviving pointer field reads back what the shadow log stored.
    for (const auto& [o, fields] : shadow.refs) {
      for (unsigned slot = 0; slot < fields.size(); ++slot) {
        ASSERT_EQ(heap.read_ref(o, slot), fields[slot]) << "field " << slot << " of " << o;
      }
      EXPECT_THROW((void)heap.read_ref(o, static_cast<unsigned>(fields.size())),
                   std::out_of_range);
    }
    // Drop handles to freed objects so later ops stay valid.
    std::erase_if(handles, [&](Gva o) { return !expect_live.contains(o); });
  }
  while (!locals.empty()) locals.pop_back();
  k.scheduler().exit_process(proc.pid());
}

INSTANTIATE_TEST_SUITE_P(Techniques, GcStress,
                         ::testing::Values(lib::Technique::kOracle,
                                           lib::Technique::kProc,
                                           lib::Technique::kEpml),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case lib::Technique::kOracle: return "oracle";
                             case lib::Technique::kProc: return "proc";
                             case lib::Technique::kEpml: return "epml";
                             default: return "other";
                           }
                         });

}  // namespace
}  // namespace ooh::gc
