// Correctness checks on the program's outputs, computed by the harness apart
// from the program (or properties every correct schedule must have). Each
// returns an empty string when the property holds, else the reason it does
// not; tests/checks_test.cpp feeds each one a deliberately corrupted output.
#pragma once

#include <string>
#include <vector>

#include "sim/cluster_env.h"

namespace perfbench {

// Everything the checks read from one finished episode, copied out of the
// environment so a test can corrupt it.
struct EpisodeRecord {
  int executors = 0;
  double makespan = 0.0;
  std::vector<double> jcts;     // ClusterEnv::jcts(): completed jobs, in order
  std::vector<double> rewards;  // ClusterEnv::action_rewards()
  std::vector<decima::sim::TaskRecord> trace;
  std::vector<decima::sim::JobState> jobs;
  std::vector<decima::sim::ExecutorClass> classes;
  std::vector<decima::sim::ExecutorState> executor_states;
};

EpisodeRecord capture(const decima::sim::ClusterEnv& env);

// Every job arrived and finished, and jcts() holds one entry per job.
std::string check_all_finished(const EpisodeRecord& r);
// Each job's JCT is at least its critical-path duration (no job can beat
// its longest dependency chain at nominal task durations).
std::string check_jct_lower_bound(const EpisodeRecord& r);
// Busy executor-time in the task trace is at least the total nominal work
// and at most executors x makespan.
std::string check_busy_time(const EpisodeRecord& r);
// Little's law: the sum of JCTs equals the integral of the number of jobs in
// the system over time, swept from the arrival and finish times.
std::string check_littles_law(const EpisodeRecord& r);
// The RL reward stream integrates to minus the total JCT on a completed
// episode: sum(action_rewards()) == -sum(jcts()).
std::string check_rewards(const EpisodeRecord& r);
// sim::validate_trace_data on the recorded trace.
std::string check_trace_valid(const EpisodeRecord& r);

// All six episode checks; the first failure's reason, or empty.
std::string check_episode(const EpisodeRecord& r);

// Two lists of doubles (JCTs, flat parameters) are bit-for-bit identical;
// `what` names one entry in the reason.
std::string check_bit_equal(const std::vector<double>& got,
                            const std::vector<double>& want,
                            const std::string& what);

// Every request the harness issued resolved to exactly one status.
std::string check_accounting(std::uint64_t issued, std::uint64_t ok,
                             std::uint64_t rejected, std::uint64_t timed_out,
                             std::uint64_t stopped);

}  // namespace perfbench
