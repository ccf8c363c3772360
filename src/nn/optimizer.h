#pragma once
// Optimizers over flat parameter lists: SGD (+momentum) and Adam (the
// paper's choice). The ddp fleet trainer steps an Adam on gradients
// already summed across ranks.

#include <vector>

#include "nn/layer.h"

namespace polarice::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Param> params);
  virtual ~Optimizer() = default;

  /// Applies one update from the currently accumulated gradients.
  virtual void step() = 0;

  /// Zeroes every parameter gradient (call before each batch).
  void zero_grad();

  [[nodiscard]] const std::vector<Param>& params() const noexcept {
    return params_;
  }

 protected:
  std::vector<Param> params_;
};

/// Plain SGD with optional momentum.
class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Param> params, float lr, float momentum = 0.0f);
  void step() override;

  [[nodiscard]] float lr() const noexcept { return lr_; }
  void set_lr(float lr) noexcept { lr_ = lr; }

 private:
  float lr_;
  float momentum_;
  std::vector<tensor::Tensor> velocity_;
};

/// Adam (Kingma & Ba 2014) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Param> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void step() override;

  [[nodiscard]] float lr() const noexcept { return lr_; }
  void set_lr(float lr) noexcept { lr_ = lr; }
  [[nodiscard]] long step_count() const noexcept { return t_; }

  /// Full optimizer state, exposed for the ddp checkpoint/broadcast path:
  /// a resumed or rejoined rank restores the moment estimates and step
  /// counter exactly so training continues bit-identically.
  [[nodiscard]] std::vector<tensor::Tensor>& moment1() noexcept { return m_; }
  [[nodiscard]] std::vector<tensor::Tensor>& moment2() noexcept { return v_; }
  [[nodiscard]] const std::vector<tensor::Tensor>& moment1() const noexcept {
    return m_;
  }
  [[nodiscard]] const std::vector<tensor::Tensor>& moment2() const noexcept {
    return v_;
  }
  void set_step_count(long t) noexcept { t_ = t; }

 private:
  float lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<tensor::Tensor> m_, v_;
};

}  // namespace polarice::nn
