// gc_churn: a seeded GCBench-shaped mutator over GcHeap (fig. 5/6's regime).
//
// Set-up builds a rooted long-lived structure: a root array whose slots hold
// complete binary trees of GCBench nodes, plus an array of doubles. One
// operation is one slice of churn followed by an explicit collect(): the
// slice allocates replacement subtrees and short-lived trees, links them,
// swaps the replacements into random slots (the old subtrees become garbage)
// and stores into random long-lived nodes, so the incremental mark has dirty
// pages to re-scan. The heap threshold equals the heap size, so only the
// benchmark triggers cycles, and the live heap stays inside the simulated
// TLB's reach.
#include <algorithm>
#include <memory>

#include "base/rng.hpp"
#include "harness.hpp"
#include "trackers/boehmgc/gc.hpp"

namespace perfbench {
namespace {

using namespace ooh;

constexpr u64 kHeapBytes = 4 * kMiB;
constexpr unsigned kSlots = 64;
constexpr int kSubtreeDepth = 8;
constexpr unsigned kReplacedPerOp = 2;
constexpr unsigned kTempTreesPerOp = 2;
constexpr u64 kStoresPerOp = 256;
constexpr u64 kArrayWords = 8 * kKiB;

[[nodiscard]] constexpr u64 tree_nodes(int depth) { return (u64{2} << depth) - 1; }

/// Allocate the nodes of a complete binary tree, root first. No collection
/// can run in between: the threshold is the heap size and the heap is sized
/// so the bump pointer never runs out.
std::vector<Gva> alloc_tree(gc::GcHeap& heap, int depth) {
  std::vector<Gva> nodes(tree_nodes(depth));
  for (Gva& n : nodes) n = heap.alloc(2, 16);  // GCBench Node: left, right, i, j.
  return nodes;
}

/// Node i's children are nodes 2i+1 and 2i+2.
void link_tree(gc::GcHeap& heap, const std::vector<Gva>& nodes, Rng& rng) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (2 * i + 2 < nodes.size()) {
      heap.write_ref(nodes[i], 0, nodes[2 * i + 1]);
      heap.write_ref(nodes[i], 1, nodes[2 * i + 2]);
    }
    heap.write_data(nodes[i], 0, rng.next());
  }
}

void run_session(const Options& opts, Pass& pass, lib::Technique technique) {
  Tracer& tr = pass.tracer();
  Rng rng(opts.seed);
  std::unique_ptr<lib::TestBed> bed;
  std::unique_ptr<gc::GcHeap> heap;
  guest::Process* proc = nullptr;
  Gva root = 0;
  Gva array = 0;
  // The mutator's own model of what is reachable: the nodes of each slot's
  // subtree, plus the root array and the array of doubles.
  std::vector<std::vector<Gva>> slots(kSlots);

  pass.setup([&] {
    {
      const Tracer::Span span(tr, "hypervisor.testbed_build");
      bed = std::make_unique<lib::TestBed>();
    }
    {
      const Tracer::Span span(tr, "guest.prefault");
      proc = &bed->kernel().create_process();
      heap = std::make_unique<gc::GcHeap>(bed->kernel(), *proc, kHeapBytes,
                                          /*gc_threshold_bytes=*/kHeapBytes);
      heap->set_technique(technique);
      const guest::Vma& vma = proc->vmas().front();
      proc->touch_range_write(vma.start, vma.bytes());
    }
    {
      const Tracer::Span span(tr, "ooh.tracker_init");
      heap->prepare_tracker();
    }
    // The mutator runs scheduled in, so per-process logging (SPML/EPML) is on.
    guest::Scheduler& sched = bed->kernel().scheduler();
    sched.enter_process(proc->pid());
    {
      const Tracer::Span span(tr, "boehmgc.build");
      root = heap->alloc(kSlots, 0);
      heap->add_root(root);
      array = heap->alloc(0, kArrayWords * 8);
      heap->add_root(array);
      for (u64 w = 0; w < kArrayWords; w += 8) heap->write_data(array, w * 8, rng.next());
      for (unsigned s = 0; s < kSlots; ++s) {
        slots[s] = alloc_tree(*heap, kSubtreeDepth);
        link_tree(*heap, slots[s], rng);
        heap->write_ref(root, s, slots[s].front());
      }
    }
    // The first cycle is a full mark; later ones are incremental.
    {
      const Tracer::Span span(tr, "boehmgc.first_collect");
      (void)heap->collect();
    }
    sched.exit_process(proc->pid());
  });

  const u64 model_objects = 2 + kSlots * tree_nodes(kSubtreeDepth);
  std::vector<std::vector<Gva>> fresh(kReplacedPerOp + kTempTreesPerOp);
  std::vector<unsigned> targets(kReplacedPerOp);
  guest::Scheduler& sched = bed->kernel().scheduler();
  pass.begin_timed(*bed);
  for (u64 i = 0; i < opts.size; ++i) {
    for (std::size_t t = 0; t < targets.size(); ++t) {  // distinct slots
      do {
        targets[t] = static_cast<unsigned>(rng.below(kSlots));
      } while (std::find(targets.begin(), targets.begin() + t, targets[t]) !=
               targets.begin() + t);
    }

    gc::GcCycleStats st;
    pass.op([&] {
      sched.enter_process(proc->pid());
      {
        const Tracer::Span span(tr, "boehmgc.alloc");
        for (std::size_t t = 0; t < fresh.size(); ++t) {
          // Short-lived trees cycle through three depths, as GCBench's do.
          fresh[t] = alloc_tree(*heap, t < kReplacedPerOp
                                           ? kSubtreeDepth
                                           : kSubtreeDepth - static_cast<int>((i + t) % 3));
        }
      }
      {
        const Tracer::Span span(tr, "boehmgc.write");
        for (const std::vector<Gva>& tree : fresh) link_tree(*heap, tree, rng);
        for (unsigned t = 0; t < kReplacedPerOp; ++t) {
          heap->write_ref(root, targets[t], fresh[t].front());
        }
        for (u64 k = 0; k < kStoresPerOp; ++k) {
          const std::vector<Gva>& tree = slots[rng.below(kSlots)];
          heap->write_data(tree[rng.below(tree.size())], 8, rng.next());
        }
      }
      {
        const Tracer::Span span(tr, "boehmgc.collect");
        st = heap->collect();
      }
      sched.exit_process(proc->pid());
    });

    // Update the model: the replaced subtrees and the temporary trees are
    // garbage.
    u64 garbage = 0;
    for (unsigned t = 0; t < kReplacedPerOp; ++t) {
      garbage += slots[targets[t]].size();
      slots[targets[t]] = fresh[t];
    }
    for (std::size_t t = kReplacedPerOp; t < fresh.size(); ++t) garbage += fresh[t].size();

    bool ok = heap->stats().cycle_count() == i + 2 && st.objects_freed == garbage &&
              heap->live_objects() == model_objects && heap->is_object(root) &&
              heap->is_object(array);
    for (const std::vector<Gva>& tree : slots) {
      for (const Gva n : tree) ok = ok && heap->is_object(n);
    }
    if (!ok) pass.fail();

    pass.add("boehmgc.pages_rescanned", static_cast<double>(st.pages_rescanned));
    pass.add("boehmgc.objects_marked", static_cast<double>(st.objects_marked));
    pass.add("boehmgc.objects_freed", static_cast<double>(st.objects_freed));
    pass.add("boehmgc.live_objects", static_cast<double>(heap->live_objects()));
    pass.add("boehmgc.virt_dirty_query_ms", to_ms(st.dirty_query));
    pass.add("boehmgc.virt_pause_ms", to_ms(st.duration));
    pass.digest().mix(st.pages_rescanned);
    pass.digest().mix(st.objects_marked);
    pass.digest().mix(st.objects_freed);
    pass.digest().mix(st.bytes_freed);
    pass.digest().mix(st.duration.count());
    pass.digest().mix(st.dirty_query.count());
    pass.digest().mix(heap->live_objects());
  }
  pass.end_timed(*bed);
}

}  // namespace

void run_gc_churn(const Options& opts, Pass& pass) {
  for (const lib::Technique t :
       {lib::Technique::kProc, lib::Technique::kSpml, lib::Technique::kEpml}) {
    run_session(opts, pass, t);
  }
}

}  // namespace perfbench
