#include "nodetr/fx/fixed_tensor.hpp"

#include "convert.hpp"

namespace nodetr::fx {

FixedTensor::FixedTensor(Shape shape, FixedFormat format)
    : shape_(std::move(shape)), format_(format),
      raw_(static_cast<std::size_t>(shape_.numel()), 0) {}

FixedTensor FixedTensor::from_float(const Tensor& t, FixedFormat format) {
  FixedTensor out(t.shape(), format);
  for (index_t i = 0; i < t.numel(); ++i) out[i] = detail::quantize(t[i], format);
  return out;
}

Tensor FixedTensor::to_float() const {
  Tensor out(shape_);
  const double res = format_.resolution();
  for (index_t i = 0; i < numel(); ++i) {
    out[i] = detail::dequantize(raw_[static_cast<std::size_t>(i)], res);
  }
  return out;
}

FixedTensor FixedTensor::converted(FixedFormat to) const {
  FixedTensor out(shape_, to);
  for (index_t i = 0; i < numel(); ++i) {
    out[i] = convert_raw(raw_[static_cast<std::size_t>(i)], format_, to);
  }
  return out;
}

}  // namespace nodetr::fx
