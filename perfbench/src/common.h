// Shared plumbing of the perfbench harness: timing, repetition control,
// seeded TPC-H streams, the result line, and process-level measurements.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/cluster_env.h"
#include "workload/arrivals.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // When the process started (main's first statement): setup_s counts from
  // here to the first timed repetition.
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable notes (check failures, the layer table); printed to
  // stderr so the last stdout line stays the JSON object.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a check outcome; a false `ok` makes the whole run incorrect.
  void check(bool ok, const std::string& what);
  std::string json() const;
};

// Median and linearly interpolated percentile (p in [0, 100]) of samples.
double median(std::vector<double> v);
double pct(std::vector<double> v, double p);

// How many timed rounds a run of `seconds` makes: `seconds` over
// `round_s`, a round's reference wall time (README.md), at least 2. The
// count depends on --seconds only, never on how fast the program runs, so
// a faster program does not get more chances at a lucky repetition.
int round_count(double seconds, double round_s);

// A workload's inputs split into `groups` parts: one repetition runs one
// group, a round runs every group once. Short repetitions give the best
// repetition many chances while a round still covers every input.
void repeat_rounds(int rounds, int groups,
                   const std::function<void(int group)>& rep);

// The best round: each group's fastest repetition, wall times summed over
// the groups and rates taken as the round's work over that sum. Other
// tenants of the host only ever slow a repetition down, by up to 2x for tens
// of seconds at a time, so the least disturbed repetitions give a far
// steadier estimate than the median (README.md, "Host noise"). The latency
// percentiles follow the same rule one decision at a time: every repetition
// of a group makes the same decisions in the same order, so each decision
// keeps its fastest time over the run's repetitions, and p50/p99 are taken
// over those times of every group pooled. A single repetition's tail is
// mostly interrupts and the other tenants; this one is the decisions' own.
struct RoundFigures {
  double wall_s = 0.0;
  double decisions_per_s = 0.0;
  double events_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Collects the repetitions of a run and keeps only each group's fastest
// time and each decision's fastest latency, so what a run holds does not
// grow with its repetition count.
class BestRound {
 public:
  explicit BestRound(int groups) : best_(static_cast<std::size_t>(groups)) {}
  // One repetition of `group`: its wall time, the work it did (the same in
  // every repetition of a group) and its decision latencies in decision
  // order. False, and the repetition is not kept, when it made a different
  // number of decisions than the group's earlier repetitions.
  bool offer(int group, double wall_s, double decisions, double events,
             std::vector<double> latencies_us);
  // Every group must have been offered at least once.
  RoundFigures figures() const;
  // What a check says of a repetition offer() refused, after its group.
  static constexpr const char* kOtherDecisions =
      " made another number of decisions than its first repetition";

 private:
  struct Rep {
    bool seen = false;
    double wall_s = 0.0, decisions = 0.0, events = 0.0;
    std::vector<double> latencies_us;  // per decision, fastest so far
  };
  std::vector<Rep> best_;
};

// The eight end-to-end metrics every untraced run prints: decision rate and
// latencies, `train_s` and `sim_events_per_s` from `round`, the policy's
// mean JCT, the set-up time and the peak RSS.
void add_end_to_end(Result& r, const RoundFigures& round, double policy_jct_s,
                    double setup_s);

// Peak resident set size of this process in MiB (VmHWM), 0 if unreadable.
double peak_rss_mb();

// `count` hands dealt from the 132 TPC-H job templates (22 queries x 6
// input sizes). Hand i holds `per_size` jobs of every size, and 22 /
// per_size consecutive hands use every template exactly once, so the work a
// workload carries hardly depends on the seed. Within a hand the jobs come
// in blocks of six, one of each size in a seeded order, so big jobs never
// bunch up: the seed deals queries and orders, and the mean JCT of a
// workload moves little between seeds.
std::vector<std::vector<decima::sim::JobSpec>> tpch_hands(std::uint64_t seed,
                                                         int per_size,
                                                         int count);

// Continuous arrivals for `jobs` in order: Poisson with mean `mean_iat`
// seconds, seeded.
std::vector<decima::workload::ArrivingJob> arrivals(
    std::vector<decima::sim::JobSpec> jobs, std::uint64_t seed,
    double mean_iat);

// A cluster of `executors` homogeneous executors, otherwise the defaults.
decima::sim::EnvConfig cluster(int executors);

// Mixes the benchmark seed with a stream index into an independent seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// CPUs this process may run on (what `nproc` prints), at least 1.
int host_threads();

// Confines the calling thread, and every thread it starts from now on, to
// the first CPU it may run on.
void pin_to_one_cpu();

}  // namespace perfbench
