// MhsaAccelerator: the MHSA IP core wrapped with its driver-visible
// interface — AXI-Lite control registers and DMA-driven input/output through
// DDR (Fig. 5). The PS-side driver sequence is:
//   1. stage the input feature map in DDR at INPUT_ADDR
//   2. program INPUT_ADDR / OUTPUT_ADDR / BATCH registers
//   3. write CTRL.START; the device DMAs input+weights, runs the IP,
//      DMAs the output back, and raises STATUS.DONE
//   4. poll STATUS, then read the output tensor from DDR
// Simulated time = DMA cycles + IP cycles, at the 200 MHz PL clock.
#pragma once

#include <memory>

#include "nodetr/hls/mhsa_ip.hpp"
#include "nodetr/rt/axi.hpp"

namespace nodetr::rt {

/// Register map (AXI-Lite offsets).
struct MhsaRegs {
  static constexpr std::uint32_t kCtrl = 0x00;        ///< bit0: start (self-clearing)
  static constexpr std::uint32_t kStatus = 0x04;      ///< bit0: done
  static constexpr std::uint32_t kInputAddrLo = 0x10;
  static constexpr std::uint32_t kInputAddrHi = 0x14;
  static constexpr std::uint32_t kOutputAddrLo = 0x18;
  static constexpr std::uint32_t kOutputAddrHi = 0x1c;
  static constexpr std::uint32_t kBatch = 0x20;
};

/// Completion budget for one execute(): wall-clock time the driver will poll
/// STATUS.DONE, and the simulated cycles charged when the budget expires
/// (the cycles the PS burnt waiting on a device that never answered).
/// A field of 0 disables that bound.
struct ExecDeadline {
  std::int64_t wall_us = 200'000;        ///< 200 ms of real polling
  std::int64_t sim_cycles = 40'000'000;  ///< 200 ms at the 200 MHz PL clock

  /// This deadline with the wall budget tightened to at most `wall_us`
  /// (ignored when <= 0). The serving engine uses this to bound an execute
  /// by the submitting client's remaining deadline budget: there is no point
  /// polling a device past the moment the client gives up.
  [[nodiscard]] ExecDeadline clamped_to_wall(std::int64_t wall_us_cap) const {
    ExecDeadline d = *this;
    if (wall_us_cap > 0 && (d.wall_us <= 0 || wall_us_cap < d.wall_us)) {
      d.wall_us = wall_us_cap;
    }
    return d;
  }
};

/// Device performance counters, accumulated per START / deadline event —
/// the per-resource accounting the paper's evaluation is built on, exported
/// so `EngineStats` can report it per backend. All quantities are simulated
/// (PL-clock cycles, HP-port bytes), not host wall time.
struct DeviceCounters {
  std::int64_t starts = 0;              ///< STARTs that raised DONE
  std::int64_t stalls = 0;              ///< STARTs that hung (injected IP stall)
  std::int64_t dma_bytes_in = 0;        ///< host -> device (weights + input maps)
  std::int64_t dma_bytes_out = 0;       ///< device -> host (output maps)
  std::int64_t weight_bytes = 0;        ///< parameter share of dma_bytes_in, as streamed
                                        ///< (quantized wire payload, not logical words)
  std::int64_t weight_bytes_float = 0;  ///< the same parameters at float32 width — the
                                        ///< word32-wire cost the quantized wire avoided
  std::int64_t weight_bytes_saved = 0;  ///< weight re-streams avoided by batch residency,
                                        ///< in streamed (wire) bytes
  std::int64_t dma_cycles = 0;          ///< HP-port transfer time
  std::int64_t compute_cycles = 0;      ///< IP datapath time
  std::int64_t stall_cycles = 0;        ///< deadline budget burnt polling a hung device

  [[nodiscard]] std::int64_t total_cycles() const {
    return dma_cycles + compute_cycles + stall_cycles;
  }
  /// Share of device time spent computing (vs moving data or stalled),
  /// in percent. 0 when the device never ran.
  [[nodiscard]] double utilization_pct() const {
    const std::int64_t t = total_cycles();
    return t == 0 ? 0.0 : 100.0 * static_cast<double>(compute_cycles) / static_cast<double>(t);
  }

  DeviceCounters& operator+=(const DeviceCounters& o) {
    starts += o.starts;
    stalls += o.stalls;
    dma_bytes_in += o.dma_bytes_in;
    dma_bytes_out += o.dma_bytes_out;
    weight_bytes += o.weight_bytes;
    weight_bytes_float += o.weight_bytes_float;
    weight_bytes_saved += o.weight_bytes_saved;
    dma_cycles += o.dma_cycles;
    compute_cycles += o.compute_cycles;
    stall_cycles += o.stall_cycles;
    return *this;
  }
};

/// Per-board physical parameters: the PL clock the cycle counts are paid at
/// and the fault scope (board name) whose scoped sites —
/// "rt.dma.error.<scope>", "rt.ddr.bitflip.<scope>", "rt.axi.nack.<scope>",
/// "hls.ip.stall.<scope>" — this board's interconnect checks in addition to
/// the process-wide ones. Defaults reproduce the paper's single ZCU104 board
/// exactly.
struct BoardProfile {
  double clock_mhz = 200.0;
  std::string fault_scope;  ///< empty = unscoped (single-board behavior)
};

class MhsaAccelerator {
 public:
  MhsaAccelerator(std::unique_ptr<hls::MhsaIpCore> ip, DdrMemory& ddr,
                  BoardProfile profile = {});

  [[nodiscard]] AxiLiteRegisterFile& regs() { return regs_; }
  [[nodiscard]] const hls::MhsaIpCore& ip() const { return *ip_; }
  [[nodiscard]] const BoardProfile& profile() const { return profile_; }

  /// Cycles consumed by the last START (DMA + compute).
  [[nodiscard]] std::int64_t last_cycles() const { return last_cycles_; }
  /// Total cycles over the accelerator's lifetime.
  [[nodiscard]] std::int64_t total_cycles() const { return total_cycles_; }
  /// Simulated milliseconds at this board's PL clock.
  [[nodiscard]] double last_ms() const {
    return static_cast<double>(last_cycles_) / profile_.clock_mhz * 1e-3;
  }

  /// Convenience driver: stages `x` (B, D, H, W), runs the register
  /// sequence, and returns the output read back from DDR. Throws
  /// std::invalid_argument when `x` does not match the IP's design point.
  /// START validates the programmed BATCH register against the staged shape,
  /// so a driver that reprograms BATCH inconsistently faults instead of
  /// silently reading a mis-sized feature map out of DDR.
  ///
  /// Bounded completion: execute() polls STATUS.DONE for at most the
  /// configured ExecDeadline. A device that never raises DONE (a stalled IP)
  /// surfaces as fault::DeadlineExceeded — a typed, transient error — with
  /// the simulated-cycle budget charged to last_cycles(). DMA / ECC / NACK
  /// faults propagate as their own typed transient errors.
  [[nodiscard]] Tensor execute(const Tensor& x);

  void set_deadline(ExecDeadline deadline) { deadline_ = deadline; }
  [[nodiscard]] const ExecDeadline& deadline() const { return deadline_; }

  /// Re-stage the board with a new IP core image — the device half of a model
  /// hot-swap. The register file, DDR mapping, cycle accounting, and counters
  /// survive; the staged input shape is invalidated and any batch-resident
  /// weights are implicitly dropped, so the next START re-streams the new
  /// version's parameters over the configured weight wire. A latched IP stall
  /// is cleared (re-programming the PL resets the hung core). The new core
  /// must match the old one's geometry (dim/height/width/heads); a mismatch
  /// throws std::invalid_argument and leaves the old core serving. Call only
  /// from the thread driving the device, between executes.
  void swap_ip(std::unique_ptr<hls::MhsaIpCore> ip);

  /// Lifetime performance counters (see DeviceCounters).
  [[nodiscard]] const DeviceCounters& counters() const { return counters_; }
  /// Counters accumulated since the previous take_counters() call — the
  /// delta drain the serving engine absorbs into its per-backend totals.
  /// Call only from the thread driving the device (not thread-safe).
  [[nodiscard]] DeviceCounters take_counters() {
    DeviceCounters delta = pending_;
    pending_ = DeviceCounters{};
    return delta;
  }

 private:
  void start();

  std::unique_ptr<hls::MhsaIpCore> ip_;
  DdrMemory& ddr_;
  BoardProfile profile_;
  AxiLiteRegisterFile regs_;
  AxiStreamDma dma_;
  /// Merge `delta` into both counter accumulators and mirror it to the obs
  /// registry (counters + utilization gauge).
  void account(const DeviceCounters& delta);

  ExecDeadline deadline_;
  std::int64_t last_cycles_ = 0;
  std::int64_t total_cycles_ = 0;
  DeviceCounters counters_;  ///< lifetime totals
  DeviceCounters pending_;   ///< since the last take_counters()
  std::string stall_site_;  ///< "hls.ip.stall.<scope>"; empty when unscoped
  bool stalled_ = false;  ///< latched injected stall: DONE will never rise
  Shape staged_shape_{std::initializer_list<index_t>{0}};
};

}  // namespace nodetr::rt
