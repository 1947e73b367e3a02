// Per-layer measurement for the traced run: timing wrappers around calls
// into a layer's public functions (recorded as obs::Tracer spans, so the
// trace file shows them on a timeline), and kernel probes for the `nn`
// layer at the model's real shapes.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "nn/mlp.h"
#include "obs/trace.h"

namespace perfbench {

// Runs `f`, returns its wall seconds, and records the interval as a span
// named `name` when tracing is on. `name` must be a string literal.
template <typename F>
double timed_call(const char* name, F&& f) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  if (decima::obs::tracing_enabled()) {
    decima::obs::Tracer::instance().record_complete(name, "perfbench", t0, t1);
  }
  return seconds_between(t0, t1);
}

// Turns the obs layer on for a traced phase: metrics and tracing enabled,
// registry and span buffer cleared. The destructor writes the spans to
// `trace_path` (Chrome trace-event JSON) and turns the obs layer off.
class TracedPhase {
 public:
  explicit TracedPhase(std::string trace_path);
  ~TracedPhase();
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

 private:
  std::string trace_path_;
};

// Achieved GFLOP/s (2mkn flops per product) of the three Matrix kernels
// over the model's inner dimensions, with `rows` rows per operand (the
// nodes of one scheduling state). Each kernel runs for about `budget_s`.
struct KernelRates {
  double matmul = 0.0;
  double matmul_transposed_acc = 0.0;
  double transposed_matmul_acc = 0.0;
};
KernelRates kernel_rates(int rows, double budget_s);

// Median microseconds of one Adam step over `params` (which it updates).
double adam_step_us(decima::nn::ParamSet& params, double budget_s);

// Directory for the harness's outputs (checkpoints, trace files), created
// under the working directory.
std::string output_dir();

}  // namespace perfbench
