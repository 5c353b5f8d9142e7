// Structured invariant-violation error thrown by the coherence oracle.
//
// A violation names the invariant that broke, the layer(s) whose state
// disagrees, the addresses involved, and *both sides* of the disagreement,
// so a CI failure reads as a diagnosis rather than a stack trace: which
// structure claims what, and what re-derivation says instead.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "base/types.hpp"

namespace ooh::check {

/// The machine layer whose state an invariant audits. Cross-layer
/// invariants name the layer holding the *derived* (cached/logged) state;
/// the authoritative side is spelled out in the message.
enum class Layer {
  kTlb,            ///< per-vCPU translation cache.
  kGuestPageTable, ///< per-process GVA -> GPA tables.
  kEpt,            ///< per-VM GPA -> HPA table with A/D flags.
  kPmlBuffer,      ///< hypervisor-level PML buffer + VMCS index.
  kEpmlBuffer,     ///< guest-level (EPML) PML buffer + shadow VMCS index.
  kDirtyLog,       ///< drained dirty-GPA consumers (bitmap / SPML ring).
  kFrameAllocator, ///< host physical frame ownership.
  kClock,          ///< per-vCPU virtual clock.
  kNotifierChain,  ///< page-track notifier registry.
  kCheckpointImage, ///< a CRIU image slot copied from a frame.
};

[[nodiscard]] constexpr std::string_view layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kTlb: return "tlb";
    case Layer::kGuestPageTable: return "guest-page-table";
    case Layer::kEpt: return "ept";
    case Layer::kPmlBuffer: return "pml-buffer";
    case Layer::kEpmlBuffer: return "epml-buffer";
    case Layer::kDirtyLog: return "dirty-log";
    case Layer::kFrameAllocator: return "frame-allocator";
    case Layer::kClock: return "clock";
    case Layer::kNotifierChain: return "notifier-chain";
    case Layer::kCheckpointImage: return "checkpoint-image";
  }
  return "?";
}

/// Sentinel for the address fields of violations that have no meaningful
/// GVA/GPA (e.g. a clock running backwards).
inline constexpr u64 kNoAddr = ~u64{0};

struct InvariantViolation : std::logic_error {
  InvariantViolation(std::string invariant_id, Layer violating_layer, u32 vm,
                     Gva gva_arg, Gpa gpa_arg, std::string expected_arg,
                     std::string actual_arg)
      : std::logic_error(format(invariant_id, violating_layer, vm, gva_arg,
                                gpa_arg, expected_arg, actual_arg)),
        id(std::move(invariant_id)),
        layer(violating_layer),
        vm_id(vm),
        gva(gva_arg),
        gpa(gpa_arg),
        expected(std::move(expected_arg)),
        actual(std::move(actual_arg)) {}

  std::string id;        ///< invariant identifier, e.g. "TLB-2" (docs/invariants.md).
  Layer layer;           ///< layer holding the disagreeing derived state.
  u32 vm_id;             ///< VM whose state is incoherent.
  Gva gva;               ///< page-aligned GVA involved (kNoAddr if none).
  Gpa gpa;               ///< page-aligned GPA involved (kNoAddr if none).
  std::string expected;  ///< what re-derivation from authoritative state says.
  std::string actual;    ///< what the audited structure claims.

 private:
  static std::string format(const std::string& id, Layer layer, u32 vm, Gva gva,
                            Gpa gpa, const std::string& expected,
                            const std::string& actual) {
    std::ostringstream os;
    os << "coherence violation " << id << " [" << layer_name(layer) << "] vm=" << vm;
    if (gva != kNoAddr) os << " gva=0x" << std::hex << gva << std::dec;
    if (gpa != kNoAddr) os << " gpa=0x" << std::hex << gpa << std::dec;
    os << ": expected " << expected << ", actual " << actual;
    return os.str();
  }
};

}  // namespace ooh::check
