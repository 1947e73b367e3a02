// perfbench: runs one named workload and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <serve_tpch|train_tpch|sim_heuristics>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Progress and the check log go to standard error.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace perfbench {

const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"sim.events", "count"},
      {"sim.self_s", "s"},
      {"sched.calls", "count"},
      {"sched.call_us", "us"},
      {"workload.gen_s", "s"},
      {"io.load_policy_s", "s"},
      {"gnn.extract_us", "us"},
      {"gnn.nodes_per_state", "count"},
      {"gnn.cache_node_reuse", "ratio"},
      {"core.decide_us", "us"},
      {"core.rollout_agent_s", "s"},
      {"core.replay_snapshot_s", "s"},
      {"core.replay_score_s", "s"},
      {"core.rollout_split_vs_cpu", "ratio"},
      {"serve.queue_wait_p50_us", "us"},
      {"serve.queue_wait_p99_us", "us"},
      {"serve.batch_infer_p50_us", "us"},
      {"serve.batch_size_mean", "count"},
      {"rl.rollout_s", "s"},
      {"rl.replay_s", "s"},
      {"rl.step_s", "s"},
      {"rl.rollout_pool_util", "ratio"},
      {"rl.replay_pool_util", "ratio"},
      {"rl.actions", "count"},
      {"rl.phase_sum_vs_stopwatch", "ratio"},
      {"nn.matmul_gflops", "GFLOP/s"},
      {"nn.matmul_transposed_acc_gflops", "GFLOP/s"},
      {"nn.transposed_matmul_acc_gflops", "GFLOP/s"},
      {"nn.adam_step_us", "us"},
      {"trace.slowdown", "ratio"},
  };
  return names;
}

void complete_layers(Result& r) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it =
        std::find_if(r.metrics.begin(), r.metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != r.metrics.end() ? *it : Metric{name, 0.0, unit});
  }
  r.metrics = std::move(ordered);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<serve_tpch|train_tpch|sim_heuristics> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.process_start = perfbench::Clock::now();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Result r;
  if (opt.workload == "serve_tpch") {
    r = perfbench::run_serve_tpch(opt);
  } else if (opt.workload == "train_tpch") {
    r = perfbench::run_train_tpch(opt);
  } else if (opt.workload == "sim_heuristics") {
    r = perfbench::run_sim_heuristics(opt);
  } else {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.trace) perfbench::complete_layers(r);
  for (const std::string& note : r.notes) std::cerr << note << "\n";
  std::cout << r.json() << std::endl;
  return 0;
}
