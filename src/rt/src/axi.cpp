#include "nodetr/rt/axi.hpp"

#include <cstring>

#include "nodetr/obs/metrics.hpp"

namespace nodetr::rt {

void DdrMemory::check(std::uint64_t addr, std::size_t bytes) const {
  if (addr + bytes > size_) {
    throw std::out_of_range("DdrMemory: access beyond end of memory");
  }
}

void DdrMemory::write(std::uint64_t addr, const void* src, std::size_t bytes) {
  check(addr, bytes);
  std::memcpy(mem_.get() + addr, src, bytes);
  if (bytes > 0 && fault::fire("rt.ddr.bitflip", fault_scope_)) {
    // The flipped bit lands in DDR (the write really was corrupted), but ECC
    // detects it and the access faults; a retry rewrites the clean payload.
    const std::uint64_t bit = fault::Injector::instance().draw("rt.ddr.bitflip") % (bytes * 8);
    mem_[addr + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    static auto& ecc = obs::Registry::instance().counter("rt.ddr.ecc_errors");
    ecc.add();
    throw fault::DdrEccError(fault_scope_.empty() ? "rt.ddr.bitflip"
                                                  : "rt.ddr.bitflip." + fault_scope_);
  }
}

void DdrMemory::read(std::uint64_t addr, void* dst, std::size_t bytes) const {
  check(addr, bytes);
  std::memcpy(dst, mem_.get() + addr, bytes);
  if (bytes > 0 && fault::fire("rt.ddr.bitflip", fault_scope_)) {
    // Corrupt the returned buffer, then fault: the caller must discard it.
    const std::uint64_t bit = fault::Injector::instance().draw("rt.ddr.bitflip") % (bytes * 8);
    static_cast<std::uint8_t*>(dst)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    static auto& ecc = obs::Registry::instance().counter("rt.ddr.ecc_errors");
    ecc.add();
    throw fault::DdrEccError(fault_scope_.empty() ? "rt.ddr.bitflip"
                                                  : "rt.ddr.bitflip." + fault_scope_);
  }
}

void DdrMemory::write_tensor(std::uint64_t addr, const Tensor& t) {
  write(addr, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

Tensor DdrMemory::read_tensor(std::uint64_t addr, Shape shape) const {
  Tensor t(std::move(shape));
  read(addr, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return t;
}

void AxiLiteRegisterFile::write(std::uint32_t offset, std::uint32_t value) {
  static auto& transactions = obs::Registry::instance().counter("rt.axi_lite.writes");
  transactions.add();
  if (fault::fire("rt.axi.nack", fault_scope_)) {
    throw fault::AxiNackError(fault_scope_.empty() ? "rt.axi.nack"
                                                   : "rt.axi.nack." + fault_scope_);
  }
  regs_[offset] = value;
  auto it = hooks_.find(offset);
  if (it != hooks_.end()) it->second(value);
}

std::uint32_t AxiLiteRegisterFile::read(std::uint32_t offset) const {
  static auto& transactions = obs::Registry::instance().counter("rt.axi_lite.reads");
  transactions.add();
  if (fault::fire("rt.axi.nack", fault_scope_)) {
    throw fault::AxiNackError(fault_scope_.empty() ? "rt.axi.nack"
                                                   : "rt.axi.nack." + fault_scope_);
  }
  auto it = regs_.find(offset);
  return it == regs_.end() ? 0 : it->second;
}

}  // namespace nodetr::rt
