#include "nn/sequential.h"

#include <sstream>
#include <utility>

#include "core/error.h"

namespace fluid::nn {

Sequential& Sequential::Add(LayerPtr layer) {
  FLUID_CHECK_MSG(layer != nullptr, "Sequential::Add null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

core::Tensor Sequential::Forward(const core::Tensor& input, bool training) {
  if (training) {
    core::Tensor x = input;
    for (auto& l : layers_) x = l->Forward(x, training);
    return x;
  }
  // Inference: the first layer reads the caller's tensor directly (no
  // defensive copy), and every intermediate is owned by this frame, so
  // elementwise layers may consume it in place via ForwardInference.
  if (layers_.empty()) return input;
  return RunInferenceFrom(layers_.front()->Forward(input, false), 1);
}

core::Tensor Sequential::ForwardInference(core::Tensor&& input) {
  return RunInferenceFrom(std::move(input), 0);
}

core::Tensor Sequential::RunInferenceFrom(core::Tensor&& x, std::size_t i) {
  core::Tensor t = std::move(x);
  for (; i < layers_.size(); ++i) t = layers_[i]->ForwardInference(std::move(t));
  return t;
}

core::Tensor Sequential::Backward(const core::Tensor& grad_output) {
  core::Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->Backward(g);
  }
  return g;
}

std::vector<ParamRef> Sequential::Params() {
  std::vector<ParamRef> params;
  for (auto& l : layers_) {
    for (auto& p : l->Params()) params.push_back(p);
  }
  return params;
}

Layer& Sequential::layer(std::size_t i) {
  FLUID_CHECK_MSG(i < layers_.size(), "Sequential::layer index out of range");
  return *layers_[i];
}

std::int64_t Sequential::ParamCount() {
  std::int64_t n = 0;
  for (const auto& p : Params()) n += p.value->numel();
  return n;
}

std::string Sequential::ToString() const {
  std::ostringstream os;
  os << "Sequential(\n";
  for (const auto& l : layers_) os << "  " << l->ToString() << "\n";
  os << ")";
  return os.str();
}

}  // namespace fluid::nn
