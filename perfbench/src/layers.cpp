#include "layers.h"

#include <sys/stat.h>

#include <utility>

#include "nn/adam.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace perfbench {

using decima::nn::Matrix;

TracedPhase::TracedPhase(std::string trace_path)
    : trace_path_(std::move(trace_path)) {
  decima::obs::Registry::instance().reset();
  auto& tracer = decima::obs::Tracer::instance();
  tracer.clear();
  // Enough for the coarse spans and the first stretch of per-call spans;
  // past it spans are dropped and counted, never reallocated.
  tracer.set_capacity(std::size_t{1} << 16);
  decima::obs::set_enabled(true);
}

TracedPhase::~TracedPhase() {
  decima::obs::set_enabled(false);
  decima::obs::Tracer::instance().write_chrome_json(trace_path_);
}

namespace {

Matrix random_matrix(decima::Rng& rng, std::size_t r, std::size_t c) {
  Matrix m(r, c);
  for (double& x : m.raw()) x = rng.uniform(-1.0, 1.0);
  return m;
}

// The (inner, output) widths of the model's layers: 5 features -> 16 -> 8
// in the projection, 8 or 16 -> 32 -> 16 -> 8 in the message-passing and
// summary MLPs (gnn/graph_embedding.cpp, hidden {32, 16}, emb_dim 8).
const std::vector<std::pair<std::size_t, std::size_t>>& model_shapes() {
  static const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {5, 16}, {16, 8}, {8, 32}, {16, 32}, {32, 16}};
  return shapes;
}

// GFLOP/s of `op(shape_index)` cycled over the model shapes for budget_s.
template <typename Op>
double rate(const std::size_t rows, double budget_s, Op op) {
  double flops = 0.0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < budget_s) {
    for (std::size_t i = 0; i < model_shapes().size(); ++i) {
      const auto [k, n] = model_shapes()[i];
      for (int rep = 0; rep < 64; ++rep) op(i);
      flops += 64.0 * 2.0 * static_cast<double>(rows * k * n);
    }
    elapsed = seconds_since(t0);
  }
  return flops / elapsed / 1e9;
}

}  // namespace

KernelRates kernel_rates(int rows, double budget_s) {
  const std::size_t m = static_cast<std::size_t>(std::max(rows, 1));
  decima::Rng rng(97);
  // Operands per shape: a = m x k activations, w = k x n weights,
  // g = m x n output gradients, dx / dw the accumulated input / weight
  // gradients.
  std::vector<Matrix> a, w, g, dx, dw;
  for (const auto& [k, n] : model_shapes()) {
    a.push_back(random_matrix(rng, m, k));
    w.push_back(random_matrix(rng, k, n));
    g.push_back(random_matrix(rng, m, n));
    dx.emplace_back(m, k);
    dw.emplace_back(k, n);
  }
  double sink = 0.0;
  KernelRates r;
  r.matmul = rate(m, budget_s, [&](std::size_t i) {
    sink += a[i].matmul(w[i])(0, 0);
  });
  // dX += dY * W^T: (m x n) * (k x n)^T accumulated into m x k.
  r.matmul_transposed_acc = rate(m, budget_s, [&](std::size_t i) {
    g[i].matmul_transposed_acc(w[i], dx[i]);
  });
  // dW += X^T * dY: (m x k)^T * (m x n) accumulated into k x n.
  r.transposed_matmul_acc = rate(m, budget_s, [&](std::size_t i) {
    a[i].transposed_matmul_acc(g[i], dw[i]);
  });
  for (const Matrix& d : dx) sink += d(0, 0);
  for (const Matrix& d : dw) sink += d(0, 0);
  // Keeps every product observable to the optimizer.
  __asm__ __volatile__("" : : "g"(sink) : "memory");
  return r;
}

double adam_step_us(decima::nn::ParamSet& params, double budget_s) {
  decima::Rng rng(7);
  for (auto* p : params.params()) {
    for (double& x : p->grad.raw()) x = rng.uniform(-1e-3, 1e-3);
  }
  decima::nn::Adam adam(&params);
  std::vector<double> us;
  const auto t0 = Clock::now();
  while (us.size() < 16 || seconds_since(t0) < budget_s) {
    us.push_back(1e6 * timed_call("nn.adam_step", [&] { adam.step(); }));
  }
  return median(us);
}

std::string output_dir() {
  const std::string dir = ".perfbench_out";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace perfbench
