// The benchmark's workloads. Each runs set-up, an untimed warm-up, timed
// repetitions for opt.seconds, and its correctness checks, and returns the
// result line: end-to-end metrics when opt.trace is false, per-layer
// metrics (README.md lists which end-to-end metric each should move) when
// it is true.
#pragma once

#include "common.h"

namespace perfbench {

Result run_serve_tpch(const Options& opt);
Result run_train_tpch(const Options& opt);
Result run_sim_heuristics(const Options& opt);

// The per-layer metric names every traced run prints, in order, with their
// units. A workload that never calls into a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& layer_metrics();

// Fills every per-layer metric not yet in `r` with 0 (layer not exercised)
// and orders them as layer_metrics() lists them.
void complete_layers(Result& r);

}  // namespace perfbench
