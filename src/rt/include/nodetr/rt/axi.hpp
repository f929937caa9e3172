// Board-level interconnect models (Fig. 5): DDR memory, the 32-bit HP0
// AXI4-Stream DMA path, and an AXI-Lite register file for memory-mapped IP
// control.
//
// Fault sites (see nodetr::fault): "rt.ddr.bitflip" corrupts one bit of the
// payload and raises DdrEccError (the ECC-protected DDR detects it),
// "rt.dma.error" makes a DMA transfer fail with DmaTransferError, and
// "rt.axi.nack" makes a register access fail with AxiNackError. All three
// are transient: re-issuing the operation retransfers clean data.
//
// Multi-board: each component can carry a fault *scope* (the board name), in
// which case it also checks the scoped site — "rt.dma.error.<scope>" etc. —
// so a fleet test can storm one board's interconnect while its siblings stay
// clean, deterministically (see fault::fire(site, scope)).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>

#include "nodetr/fault/fault.hpp"
#include "nodetr/tensor/tensor.hpp"

namespace nodetr::rt {

using nodetr::tensor::index_t;
using nodetr::tensor::Shape;
using nodetr::tensor::Tensor;

/// Shared DDR visible to both PS and PL, zero-filled. The store is
/// calloc'd, so the OS maps its zero pages on first touch: a board holds
/// resident only the pages its transfers wrote, not its whole capacity.
class DdrMemory {
 public:
  explicit DdrMemory(std::size_t bytes = 64 << 20)
      : mem_(static_cast<std::uint8_t*>(std::calloc(bytes, 1))), size_(bytes) {
    if (!mem_ && bytes > 0) throw std::bad_alloc();
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  void write(std::uint64_t addr, const void* src, std::size_t bytes);
  void read(std::uint64_t addr, void* dst, std::size_t bytes) const;

  /// Stage a float tensor's payload at `addr`.
  void write_tensor(std::uint64_t addr, const Tensor& t);
  /// Read `shape.numel()` floats from `addr`.
  [[nodiscard]] Tensor read_tensor(std::uint64_t addr, Shape shape) const;

  /// Board name whose scoped bitflip site ("rt.ddr.bitflip.<scope>") this
  /// memory also checks; empty (the default) keeps the process-wide site only.
  void set_fault_scope(std::string scope) { fault_scope_ = std::move(scope); }
  [[nodiscard]] const std::string& fault_scope() const { return fault_scope_; }

 private:
  struct Free {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  void check(std::uint64_t addr, std::size_t bytes) const;
  std::unique_ptr<std::uint8_t[], Free> mem_;
  std::size_t size_;
  std::string fault_scope_;
};

/// DMA transfer cost model for the paper's 32-bit HP0 AXI port: a fixed
/// descriptor-setup latency plus one 4-byte beat per PL cycle. Every
/// simulated board runs this port; boards differ in clock and fault scope.
class AxiStreamDma {
 public:
  static constexpr std::int64_t kSetupCycles = 120;  ///< descriptor + trigger
  static constexpr index_t kBeatBytes = 4;           ///< 32-bit data width

  /// `fault_scope` is the board name whose scoped error site
  /// ("rt.dma.error.<scope>") this port also checks.
  explicit AxiStreamDma(std::string fault_scope = {}) : fault_scope_(std::move(fault_scope)) {}

  /// Cycles to move `bytes` in one direction.
  [[nodiscard]] static std::int64_t transfer_cycles(std::int64_t bytes) {
    return kSetupCycles + (bytes + kBeatBytes - 1) / kBeatBytes;
  }

  /// Accumulated cycles of all transfers issued through this engine. Throws
  /// fault::DmaTransferError when the "rt.dma.error" site (or its scoped
  /// variant) fires; the setup cycles are still accounted (the descriptor
  /// was issued before it failed).
  void transfer(std::int64_t bytes) {
    if (fault::fire("rt.dma.error", fault_scope_)) {
      total_cycles_ += kSetupCycles;
      throw fault::DmaTransferError(fault_scope_.empty() ? "rt.dma.error"
                                                         : "rt.dma.error." + fault_scope_);
    }
    total_cycles_ += transfer_cycles(bytes);
  }
  [[nodiscard]] std::int64_t total_cycles() const { return total_cycles_; }
  void reset() { total_cycles_ = 0; }

 private:
  std::string fault_scope_;
  std::int64_t total_cycles_ = 0;
};

/// AXI-Lite register file accessed via the HPM0 port (memory-mapped I/O).
class AxiLiteRegisterFile {
 public:
  void write(std::uint32_t offset, std::uint32_t value);
  [[nodiscard]] std::uint32_t read(std::uint32_t offset) const;

  /// Register a write hook fired when `offset` is written (e.g. CTRL.START).
  using WriteHook = std::function<void(std::uint32_t value)>;
  void on_write(std::uint32_t offset, WriteHook hook) { hooks_[offset] = std::move(hook); }

  /// Board name whose scoped NACK site ("rt.axi.nack.<scope>") this register
  /// file also checks.
  void set_fault_scope(std::string scope) { fault_scope_ = std::move(scope); }

 private:
  std::map<std::uint32_t, std::uint32_t> regs_;
  std::map<std::uint32_t, WriteHook> hooks_;
  std::string fault_scope_;
};

}  // namespace nodetr::rt
