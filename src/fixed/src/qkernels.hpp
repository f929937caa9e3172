// Raw-code kernels shared by the public ops (qops.cpp) and the fused MHSA
// datapath (qmhsa.cpp).
#pragma once

#include <cstdint>

#include "accum.hpp"
#include "nodetr/fx/qops.hpp"

namespace nodetr::fx::detail {

/// C (m x b.n()) = A (m x b.k()) * B + bias, each element rounded once from
/// `prod_frac` fractional bits into `out_format`; A is row-major codes. When
/// `bias` is non-null it holds b.n() per-column offsets already at
/// `prod_frac`, with |bias| <= bias_max, and they seed the accumulators. The
/// sums run in int64 through `form` when fits_int64() proves they may, and in
/// __int128 otherwise (counted in fx.accum.wide_fallbacks). With `fork`, a
/// product big enough to pay for it splits its rows over the global pool;
/// without, every row runs on the calling thread.
void qgemm(const std::int64_t* a, index_t m, const PackedB& b, std::int64_t* out,
           FixedFormat out_format, int prod_frac, KernelForm form, bool fork,
           const wide_t* bias = nullptr, std::uint64_t bias_max = 0);

/// The LayerNorm gain and bias as the doubles qlayernorm_rows() multiplies
/// and adds: `g` and `b` receive gamma.numel() values each.
void layernorm_params(const FixedTensor& gamma, const FixedTensor& beta, double* g, double* b);

/// qlayernorm_rows() on `rows` x `cols` codes in `ff` at `x`, with the gain
/// and bias from layernorm_params(), written to `out` through `form`. `out`
/// may be `x`: each row is read in full before it is written.
void layernorm_rows(const std::int64_t* x, index_t rows, index_t cols, const FixedFormat& ff,
                    const double* g, const double* b, float eps, std::int64_t* out,
                    KernelForm form);

}  // namespace nodetr::fx::detail
