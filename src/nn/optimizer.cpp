#include "src/nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "src/nn/mlp.hpp"
#include "src/nn/static_dot.hpp"

namespace dqndock::nn {

namespace {
void ensureState(std::vector<Tensor>& state, const std::vector<Tensor*>& params) {
  if (state.size() == params.size()) return;
  state.clear();
  state.reserve(params.size());
  for (const Tensor* p : params) state.emplace_back(p->rows(), p->cols());
}

void checkPairs(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
                const FactoredPrefixGrad* factored) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Optimizer::step: params/grads size mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (factored && i == factored->paramIndex) {
      const std::size_t s = factored->staticPrefix.size();
      if (grads[i]->rows() != params[i]->rows() || grads[i]->cols() + s != params[i]->cols()) {
        throw std::invalid_argument("Optimizer::step: factored param/grad shape mismatch");
      }
      if (factored->coeff == nullptr || factored->coeff->rows() != 1 ||
          factored->coeff->cols() != params[i]->rows()) {
        throw std::invalid_argument("Optimizer::step: factored coeff shape mismatch");
      }
      if (factored->layer != nullptr &&
          (&std::as_const(*factored->layer).weights() != params[i] ||
           factored->layer->staticLen() != s)) {
        throw std::invalid_argument("Optimizer::step: factored layer does not own the param");
      }
      continue;
    }
    if (!params[i]->sameShape(*grads[i])) {
      throw std::invalid_argument("Optimizer::step: param/grad shape mismatch");
    }
  }
}

/// Columns of a row group that are updated before their dots are
/// accumulated: the block just written (kStaticDotRows rows of it) is
/// still in L1 when staticDotRows reads it back.
constexpr std::size_t kSweepBlock = 256;

/// Drive the per-element update `f(flatIdx, g)` over a factored parameter:
/// the leading S columns of each row get the rank-1 reconstruction
/// g = coeff[r] * staticPrefix[c]; the trailing d columns read the packed
/// gradient tensor. flatIdx indexes the full (out x in) parameter/state.
/// Rows are split across fp.pool; when fp.layer is set, the pass also
/// leaves each updated row's static dot in the layer's swept-dot buffer.
template <class F>
void forEachFactoredElem(const Tensor& param, const Tensor& packedGrad,
                         const FactoredPrefixGrad& fp, const F& f) {
  const std::size_t rows = param.rows();
  const std::size_t full = param.cols();
  const std::size_t s = fp.staticPrefix.size();
  const std::size_t d = full - s;
  const double* xs = fp.staticPrefix.data();
  const double* w = param.data();
  double* dot = fp.layer ? fp.layer->sweptStaticDot().data() : nullptr;
  forEachRowGroup(fp.pool, rows, [&](std::size_t r0, std::size_t r1) {
    double acc[kStaticDotRows] = {};
    for (std::size_t j0 = 0; j0 < s; j0 += kSweepBlock) {
      const std::size_t j1 = std::min(s, j0 + kSweepBlock);
      for (std::size_t r = r0; r < r1; ++r) {
        const double cr = (*fp.coeff)(0, r);
        const std::size_t base = r * full;
        for (std::size_t j = j0; j < j1; ++j) f(base + j, cr * xs[j]);
      }
      if (dot) staticDotRows(w + r0 * full + j0, full, r1 - r0, xs + j0, j1 - j0, acc);
    }
    for (std::size_t r = r0; r < r1; ++r) {
      if (dot) dot[r] = acc[r - r0];
      const double* gd = packedGrad.data() + r * d;
      const std::size_t base = r * full + s;
      for (std::size_t j = 0; j < d; ++j) f(base + j, gd[j]);
    }
  });
}

/// The update loop every optimizer runs: `makeUpdate(i)` returns the
/// per-element functor f(flatIdx, g) for parameter i. Dense parameters
/// stream their gradient tensor; the factored one goes through
/// forEachFactoredElem. The swept dot is published only after the whole
/// step, so the stamp covers the final weights.
template <class MakeUpdate>
void sweep(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
           const FactoredPrefixGrad* factored, const MakeUpdate& makeUpdate) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto f = makeUpdate(i);
    if (factored && i == factored->paramIndex) {
      forEachFactoredElem(*params[i], *grads[i], *factored, f);
      continue;
    }
    const auto g = grads[i]->flat();
    for (std::size_t j = 0; j < g.size(); ++j) f(j, g[j]);
  }
  if (factored && factored->layer) factored->layer->publishStaticDot();
}

std::vector<const Tensor*> statePointers(std::initializer_list<const std::vector<Tensor>*> lists) {
  std::vector<const Tensor*> out;
  for (const auto* list : lists) {
    for (const Tensor& t : *list) out.push_back(&t);
  }
  return out;
}
}  // namespace

void Sgd::step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
               const FactoredPrefixGrad* factored) {
  checkPairs(params, grads, factored);
  ensureState(velocity_, params);
  sweep(params, grads, factored, [&](std::size_t i) {
    return [p = params[i]->flat(), v = velocity_[i].flat(), momentum = momentum_, lr = lr_](
               std::size_t j, double g) {
      v[j] = momentum * v[j] - lr * g;
      p[j] += v[j];
    };
  });
}

std::vector<const Tensor*> Sgd::state() const { return statePointers({&velocity_}); }

void RmsProp::step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
                   const FactoredPrefixGrad* factored) {
  checkPairs(params, grads, factored);
  ensureState(meanSquare_, params);
  sweep(params, grads, factored, [&](std::size_t i) {
    return [p = params[i]->flat(), ms = meanSquare_[i].flat(), decay = decay_,
            epsilon = epsilon_, lr = lr_](std::size_t j, double g) {
      ms[j] = decay * ms[j] + (1.0 - decay) * g * g;
      p[j] -= lr * g / std::sqrt(ms[j] + epsilon);
    };
  });
}

std::vector<const Tensor*> RmsProp::state() const { return statePointers({&meanSquare_}); }

void Adam::step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
                const FactoredPrefixGrad* factored) {
  checkPairs(params, grads, factored);
  ensureState(m_, params);
  ensureState(v_, params);
  ++t_;
  const double correction1 = 1.0 - std::pow(beta1_, t_);
  const double correction2 = 1.0 - std::pow(beta2_, t_);
  sweep(params, grads, factored, [&](std::size_t i) {
    return [p = params[i]->flat(), m = m_[i].flat(), v = v_[i].flat(), beta1 = beta1_,
            beta2 = beta2_, epsilon = epsilon_, lr = lr_, correction1,
            correction2](std::size_t j, double g) {
      m[j] = beta1 * m[j] + (1.0 - beta1) * g;
      v[j] = beta2 * v[j] + (1.0 - beta2) * g * g;
      const double mhat = m[j] / correction1;
      const double vhat = v[j] / correction2;
      p[j] -= lr * mhat / (std::sqrt(vhat) + epsilon);
    };
  });
}

std::vector<const Tensor*> Adam::state() const { return statePointers({&m_, &v_}); }

std::unique_ptr<Optimizer> makeOptimizer(const std::string& name, double lr) {
  if (name == "sgd") return std::make_unique<Sgd>(lr);
  if (name == "rmsprop") return std::make_unique<RmsProp>(lr);
  if (name == "adam") return std::make_unique<Adam>(lr);
  throw std::invalid_argument("makeOptimizer: unknown optimizer '" + name + "'");
}

}  // namespace dqndock::nn
