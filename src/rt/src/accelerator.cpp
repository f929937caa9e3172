#include "nodetr/rt/accelerator.hpp"

#include <chrono>

#include "nodetr/obs/obs.hpp"

namespace nodetr::rt {

namespace {
constexpr std::uint64_t kDefaultInput = 0x0010'0000;
constexpr std::uint64_t kDefaultOutput = 0x0080'0000;

std::uint64_t addr64(const AxiLiteRegisterFile& regs, std::uint32_t lo, std::uint32_t hi) {
  return (static_cast<std::uint64_t>(regs.read(hi)) << 32) | regs.read(lo);
}
}  // namespace

MhsaAccelerator::MhsaAccelerator(std::unique_ptr<hls::MhsaIpCore> ip, DdrMemory& ddr,
                                 BoardProfile profile)
    : ip_(std::move(ip)),
      ddr_(ddr),
      profile_(std::move(profile)),
      dma_(profile_.fault_scope) {
  if (!ip_) throw std::invalid_argument("MhsaAccelerator: null IP core");
  if (profile_.clock_mhz <= 0.0) {
    throw std::invalid_argument("MhsaAccelerator: clock_mhz must be > 0");
  }
  regs_.set_fault_scope(profile_.fault_scope);
  if (!profile_.fault_scope.empty()) stall_site_ = "hls.ip.stall." + profile_.fault_scope;
  regs_.on_write(MhsaRegs::kCtrl, [this](std::uint32_t v) {
    if (v & 1u) start();
  });
}

void MhsaAccelerator::start() {
  obs::ScopedSpan span("rt.mhsa_accel.start");
  regs_.write(MhsaRegs::kStatus, 0);
  const std::uint64_t in_addr = addr64(regs_, MhsaRegs::kInputAddrLo, MhsaRegs::kInputAddrHi);
  const std::uint64_t out_addr = addr64(regs_, MhsaRegs::kOutputAddrLo, MhsaRegs::kOutputAddrHi);
  const index_t batch = static_cast<index_t>(regs_.read(MhsaRegs::kBatch));
  if (batch < 1) {
    throw std::invalid_argument("MhsaAccelerator: BATCH register must be >= 1");
  }
  if (staged_shape_.rank() == 4 && staged_shape_.dim(0) != batch) {
    throw std::invalid_argument(
        "MhsaAccelerator: BATCH register (" + std::to_string(batch) +
        ") does not match the staged input batch (" + std::to_string(staged_shape_.dim(0)) + ")");
  }
  const auto& p = ip_->point();
  const Shape shape{batch, p.dim, p.height, p.width};

  dma_.reset();
  DeviceCounters delta;
  // Weight accounting is in *streamed* bytes: weight_dma_bytes() is already
  // the wire-actual payload (block-quantized codes + scales on a quantized
  // wire), so batch residency and wire compression compose — bytes_saved is
  // the re-streams residency avoided at the wire's width, and the gap to
  // weight_bytes_float is what the quantized wire itself saved.
  if (p.residency == hls::WeightResidency::kBatchResident) {
    // Weights in one descriptor for the whole batch, features per image.
    dma_.transfer(ip_->weight_dma_bytes());
    dma_.transfer(ip_->io_dma_bytes_per_image() * batch);
    delta.weight_bytes = ip_->weight_dma_bytes();
    delta.weight_bytes_float = ip_->weight_float_bytes();
    // The non-resident design would re-stream the parameters per image.
    delta.weight_bytes_saved = ip_->weight_dma_bytes() * (batch - 1);
  } else {
    // Weights + input stream in, output stream back (per image).
    dma_.transfer(ip_->dma_bytes_per_image() * batch);
    delta.weight_bytes = ip_->weight_dma_bytes() * batch;
    delta.weight_bytes_float = ip_->weight_float_bytes() * batch;
  }
  delta.dma_bytes_in = delta.weight_bytes + ip_->input_dma_bytes_per_image() * batch;
  delta.dma_bytes_out = ip_->output_dma_bytes_per_image() * batch;
  Tensor x = ddr_.read_tensor(in_addr, shape);
  Tensor y;
  try {
    // The IP model checks the process-wide "hls.ip.stall" site itself; the
    // board-scoped variant lets a fleet test hang exactly one device.
    if (!stall_site_.empty() && fault::fire(stall_site_.c_str())) {
      throw fault::IpStallFault(stall_site_);
    }
    y = ip_->run(x);
  } catch (const fault::IpStallFault&) {
    // The IP hung mid-run: DONE is never raised for this START. Latch the
    // stall so execute()'s deadline poll can diagnose it; the START write
    // itself completes normally, exactly as a real stalled device behaves.
    stalled_ = true;
    delta.stalls = 1;
    account(delta);
    static auto& stalls = obs::Registry::instance().counter("rt.mhsa_accel.stalls");
    stalls.add();
    return;
  }
  ddr_.write_tensor(out_addr, y);

  last_cycles_ = dma_.total_cycles() + ip_->last_cycles().total();
  total_cycles_ += last_cycles_;
  delta.starts = 1;
  delta.dma_cycles = dma_.total_cycles();
  delta.compute_cycles = ip_->last_cycles().total();
  account(delta);
  span.attr("batch", batch);
  span.attr("dma_cycles", dma_.total_cycles());
  span.attr("compute_cycles", ip_->last_cycles().total());
  span.attr("sim_ms", last_ms());
  static auto& starts = obs::Registry::instance().counter("rt.mhsa_accel.starts");
  static auto& dma_cycles = obs::Registry::instance().counter("rt.mhsa_accel.dma_cycles");
  static auto& compute_cycles = obs::Registry::instance().counter("rt.mhsa_accel.compute_cycles");
  starts.add();
  dma_cycles.add(dma_.total_cycles());
  compute_cycles.add(ip_->last_cycles().total());
  // Self-clearing start bit; done flag raised.
  regs_.write(MhsaRegs::kStatus, 1);
}

void MhsaAccelerator::account(const DeviceCounters& delta) {
  counters_ += delta;
  pending_ += delta;
  static auto& bytes_in = obs::Registry::instance().counter("rt.mhsa_accel.dma_bytes_in");
  static auto& bytes_out = obs::Registry::instance().counter("rt.mhsa_accel.dma_bytes_out");
  static auto& saved = obs::Registry::instance().counter("rt.mhsa_accel.weight_bytes_saved");
  static auto& stall_cycles = obs::Registry::instance().counter("rt.mhsa_accel.stall_cycles");
  bytes_in.add(delta.dma_bytes_in);
  bytes_out.add(delta.dma_bytes_out);
  saved.add(delta.weight_bytes_saved);
  stall_cycles.add(delta.stall_cycles);
  obs::Registry::instance().gauge("rt.mhsa_accel.utilization_pct").set(counters_.utilization_pct());
}

void MhsaAccelerator::swap_ip(std::unique_ptr<hls::MhsaIpCore> ip) {
  obs::ScopedSpan span("rt.mhsa_accel.swap_ip");
  if (!ip) throw std::invalid_argument("MhsaAccelerator::swap_ip: null IP core");
  const auto& old_p = ip_->point();
  const auto& new_p = ip->point();
  if (new_p.dim != old_p.dim || new_p.height != old_p.height || new_p.width != old_p.width ||
      new_p.heads != old_p.heads) {
    throw std::invalid_argument("MhsaAccelerator::swap_ip: geometry mismatch: staged " +
                                old_p.to_string() + " vs new " + new_p.to_string());
  }
  ip_ = std::move(ip);
  // The new bitstream starts clean: no staged input, no latched stall, no
  // batch-resident weights — the next START re-streams everything.
  staged_shape_ = Shape{std::initializer_list<index_t>{0}};
  stalled_ = false;
  static auto& swaps = obs::Registry::instance().counter("rt.mhsa_accel.ip_swaps");
  swaps.add();
}

Tensor MhsaAccelerator::execute(const Tensor& x) {
  obs::ScopedSpan span("rt.mhsa_accel.execute");
  if (x.rank() != 4) throw std::invalid_argument("MhsaAccelerator::execute: rank must be 4");
  const auto& p = ip_->point();
  if (x.dim(1) != p.dim || x.dim(2) != p.height || x.dim(3) != p.width) {
    throw std::invalid_argument("MhsaAccelerator::execute: input does not match design point " +
                                p.to_string());
  }
  staged_shape_ = x.shape();
  stalled_ = false;
  const auto poll_start = std::chrono::steady_clock::now();
  ddr_.write_tensor(kDefaultInput, x);
  regs_.write(MhsaRegs::kInputAddrLo, static_cast<std::uint32_t>(kDefaultInput));
  regs_.write(MhsaRegs::kInputAddrHi, static_cast<std::uint32_t>(kDefaultInput >> 32));
  regs_.write(MhsaRegs::kOutputAddrLo, static_cast<std::uint32_t>(kDefaultOutput));
  regs_.write(MhsaRegs::kOutputAddrHi, static_cast<std::uint32_t>(kDefaultOutput >> 32));
  regs_.write(MhsaRegs::kBatch, static_cast<std::uint32_t>(x.dim(0)));
  regs_.write(MhsaRegs::kCtrl, 1);
  // Check STATUS.DONE under the completion budget. START ran synchronously,
  // so a cleared DONE here means the IP stalled and will never answer: the
  // watchdog wait that a real driver would spend polling is fast-forwarded
  // (simulated time, not real time) and charged as the cycle budget.
  if (regs_.read(MhsaRegs::kStatus) != 1) {
    if (!stalled_) {
      // Not a latched stall — the device is misprogrammed or absent; keep
      // the pre-hardening fail-fast contract.
      throw std::runtime_error("MhsaAccelerator: device did not complete");
    }
    last_cycles_ = deadline_.sim_cycles;
    total_cycles_ += last_cycles_;
    DeviceCounters delta;
    delta.stall_cycles = deadline_.sim_cycles;
    account(delta);
    static auto& deadlines =
        obs::Registry::instance().counter("rt.mhsa_accel.deadline_exceeded");
    deadlines.add();
    obs::flight_event(0, obs::FlightKind::kDeadline, deadline_.sim_cycles);
    obs::FlightRecorder::instance().dump("deadline_exceeded");
    throw fault::DeadlineExceeded(
        "rt.mhsa_accel.deadline",
        "MhsaAccelerator::execute: device did not raise DONE within deadline (wall " +
            std::to_string(deadline_.wall_us) + " us, budget " +
            std::to_string(deadline_.sim_cycles) + " cycles)");
  }
  // Wall-clock budget: a START whose synchronous simulation outran the
  // configured wall deadline would have been abandoned by a real driver.
  if (deadline_.wall_us > 0) {
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - poll_start);
    if (waited.count() > deadline_.wall_us) {
      static auto& deadlines =
          obs::Registry::instance().counter("rt.mhsa_accel.deadline_exceeded");
      deadlines.add();
      throw fault::DeadlineExceeded(
          "rt.mhsa_accel.deadline",
          "MhsaAccelerator::execute: completion exceeded wall deadline (" +
              std::to_string(waited.count()) + " us > " +
              std::to_string(deadline_.wall_us) + " us)");
    }
  }
  return ddr_.read_tensor(kDefaultOutput, x.shape());
}

}  // namespace nodetr::rt
