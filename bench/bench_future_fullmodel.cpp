// Future-work projection (Sec. VII): "we are currently implementing the
// proposed model on the FPGA entirely to further improve the performance."
// Using the calibrated cycle model, estimate the latency of running the
// WHOLE proposed model on the PL and compare with the implemented hybrid
// (MHSA on PL, everything else on the PS).
#include <map>

#include "common.hpp"
#include "nodetr/hls/model_plan.hpp"

namespace hls = nodetr::hls;
using nodetr::bench::header;

int main() {
  header("Future work", "Projected latency of a full-model FPGA implementation");
  const auto plan = hls::plan_proposed_model(/*image_size=*/96, /*solver_steps=*/6,
                                             /*unroll=*/128);

  // Aggregate per stage (the first word of each row name) for readability.
  std::map<std::string, long long> stages;
  for (const auto& l : plan.layers) stages[l.name.substr(0, l.name.find(' '))] += l.cycles;
  std::printf("  %-28s %14s %12s\n", "stage", "cycles", "ms @200MHz");
  for (const auto& [name, cycles] : stages) {
    std::printf("  %-28s %14lld %12.3f\n", name.c_str(), cycles,
                cycles * hls::CycleModel::kClockNs * 1e-6);
  }
  std::printf("  %-28s %14lld %12.3f   (x%lld solver steps)\n", "mhsa (IP)",
              static_cast<long long>(plan.mhsa_cycles()),
              plan.mhsa_cycles() * hls::CycleModel::kClockNs * 1e-6,
              static_cast<long long>(plan.solver_steps));
  std::printf("  %-28s %14lld %12.3f\n", "TOTAL (full model on PL)",
              static_cast<long long>(plan.total_cycles()), plan.total_ms());

  // Hybrid reference: the paper's implemented design keeps everything except
  // the MHSA on the PS; Table IX gives the MHSA-only acceleration there.
  std::printf("\nwith the whole model on the PL there is no DDR round-trip per MHSA\n"
              "invocation and the conv stages inherit the same 128-lane MAC engine —\n"
              "this is the speedup path the authors name as future work.\n");
  return 0;
}
