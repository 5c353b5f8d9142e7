// ckpt_kv: CRIU's incremental pre-dump chain (fig. 7/9's regime) over a
// data-backed key-value region ten times the simulated TLB's reach.
//
// One operation is one IncrementalSession::step. Its slice applies seeded,
// skewed record updates (write_u64) to the region, so nearly every store
// misses the TLB and runs the whole write pipeline: guest and EPT walks, the
// EPT dirty flag, PML or soft-dirty logging and the truth ledger. The step
// then collects the dirty pages and dumps them into the image.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "base/rng.hpp"
#include "harness.hpp"
#include "trackers/criu/checkpoint.hpp"

namespace perfbench {
namespace {

using namespace ooh;

constexpr u64 kRegionBytes = 64 * kMiB;
constexpr u64 kRegionPages = kRegionBytes / kPageSize;
constexpr u64 kWordsPerPage = kPageSize / 8;
constexpr u64 kUpdatesPerStep = 1000;

/// A skewed page choice: rank = N * u^3 puts half the updates on the hottest
/// eighth of the pages. An odd multiplier (a bijection modulo the power-of-two
/// page count) scatters the ranks so hot pages are not contiguous.
u64 skewed_page(Rng& rng) {
  const double u = rng.uniform();
  const auto rank = static_cast<u64>(static_cast<double>(kRegionPages) * u * u * u);
  return (rank * 0x9E3779B1ULL) % kRegionPages;
}

/// The host bytes behind a guest page, read without the simulated MMU so
/// checks leave no trace in the simulated statistics. Null when unmapped.
const u8* host_page(guest::GuestKernel& kernel, guest::Process& proc, Gva gva) {
  const sim::Pte* pte = kernel.page_table(proc).pte(gva);
  if (pte == nullptr || !pte->present) return nullptr;
  Hpa hpa = 0;
  if (!kernel.vm().ept().translate(pte->gpa_page, hpa)) return nullptr;
  return kernel.ctx().pmem.frame_data_if_present(hpa);
}

struct Update {
  Gva gva = 0;
  u64 value = 0;
};

/// Every page the slice wrote is in the image with its current contents, and
/// every word holds the last value the slice stored there.
bool step_covers_slice(guest::GuestKernel& kernel, guest::Process& proc,
                       const criu::CheckpointImage& image,
                       const std::vector<Update>& updates) {
  std::map<Gva, u64> last;
  for (const Update& u : updates) last[u.gva] = u.value;
  for (const auto& [gva, value] : last) {
    const u8* live = host_page(kernel, proc, page_floor(gva));
    const auto it = image.pages.find(page_floor(gva));
    if (live == nullptr || it == image.pages.end() || it->second.size() != kPageSize) {
      return false;
    }
    if (std::memcmp(it->second.data(), live, kPageSize) != 0) return false;
    u64 word = 0;
    std::memcpy(&word, live + (gva - page_floor(gva)), sizeof word);
    if (word != value) return false;
  }
  return true;
}

void run_session(const Options& opts, Pass& pass, lib::Technique technique) {
  Tracer& tr = pass.tracer();
  Rng rng(opts.seed);
  std::unique_ptr<lib::TestBed> bed;
  guest::Process* proc = nullptr;
  Gva base = 0;
  std::unique_ptr<criu::IncrementalSession> session;

  pass.setup([&] {
    {
      const Tracer::Span span(tr, "hypervisor.testbed_build");
      bed = std::make_unique<lib::TestBed>();
    }
    {
      const Tracer::Span span(tr, "guest.prefault");
      proc = &bed->kernel().create_process();
      base = proc->mmap(kRegionBytes, /*data_backed=*/true);
      for (u64 p = 0; p < kRegionPages; ++p) proc->write_u64(base + p * kPageSize, rng.next());
    }
    // The session builds its tracker and takes the initial full copy.
    const Tracer::Span span(tr, "criu.session_init");
    session = std::make_unique<criu::IncrementalSession>(bed->kernel(), technique, *proc);
  });

  guest::GuestKernel& kernel = bed->kernel();
  std::vector<Update> updates(kUpdatesPerStep);
  std::vector<Gva> pages;
  pass.begin_timed(*bed);
  for (u64 i = 0; i < opts.size; ++i) {
    for (Update& u : updates) {
      u.gva = base + skewed_page(rng) * kPageSize + rng.below(kWordsPerPage) * 8;
      u.value = rng.next();
    }
    criu::IncrementalSession::StepResult res;
    pass.op([&] {
      const Tracer::Span span(tr, "criu.step");
      res = session->step([&](guest::Process& p) {
        const Tracer::Span access(tr, "guest.access");
        for (const Update& u : updates) p.write_u64(u.gva, u.value);
      });
    });

    pages.clear();
    for (const Update& u : updates) pages.push_back(page_floor(u.gva));
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    if (res.dirty_pages < pages.size() ||
        !step_covers_slice(kernel, *proc, session->image(), updates)) {
      pass.fail();
    }
    pass.add("criu.dirty_pages", static_cast<double>(res.dirty_pages));
    pass.add("criu.virt_dump_ms", to_ms(res.dump_time));
    pass.add("ooh.collected_pages", static_cast<double>(res.dirty_pages));
    pass.add("ooh.truth_pages", static_cast<double>(pages.size()));
    pass.digest().mix(res.dirty_pages);
    pass.digest().mix(res.run_time.count());
    pass.digest().mix(res.dump_time.count());
  }
  pass.end_timed(*bed);

  // The chain must restore, into a fresh process, to the source's bytes.
  guest::Process& restored = kernel.create_process();
  criu::restore(restored, session->image());
  for (u64 p = 0; p < kRegionPages; ++p) {
    const Gva gva = base + p * kPageSize;
    const u8* want = host_page(kernel, *proc, gva);
    const u8* got = host_page(kernel, restored, gva);
    if (want == nullptr || got == nullptr || std::memcmp(want, got, kPageSize) != 0) {
      pass.fail();
      break;
    }
  }
}

}  // namespace

void run_ckpt_kv(const Options& opts, Pass& pass) {
  for (const lib::Technique t :
       {lib::Technique::kProc, lib::Technique::kSpml, lib::Technique::kEpml}) {
    run_session(opts, pass, t);
  }
}

}  // namespace perfbench
