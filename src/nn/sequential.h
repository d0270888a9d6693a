#pragma once
// Sequential container of layers — the model type used throughout.

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace fluid::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Append a layer; returns *this for chaining.
  Sequential& Add(LayerPtr layer);

  /// Convenience: construct in place.
  template <typename L, typename... Args>
  Sequential& Emplace(Args&&... args) {
    return Add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  core::Tensor Forward(const core::Tensor& input, bool training) override;
  core::Tensor ForwardInference(core::Tensor&& input) override;
  core::Tensor Backward(const core::Tensor& grad_output) override;
  std::vector<ParamRef> Params() override;
  std::string Kind() const override { return "Sequential"; }
  std::string ToString() const override;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const std::vector<LayerPtr>& layers() const { return layers_; }

  /// Total learnable parameter count.
  std::int64_t ParamCount();

 private:
  /// Run layers [i, end) on the inference path, each consuming the
  /// previous one's output.
  core::Tensor RunInferenceFrom(core::Tensor&& x, std::size_t i);

  std::vector<LayerPtr> layers_;
};

}  // namespace fluid::nn
