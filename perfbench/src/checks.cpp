#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "sim/validate.h"

namespace perfbench {

namespace {

// Relative slack for comparisons between sums that take different
// floating-point paths to the same quantity.
constexpr double kRel = 1e-9;

bool close(double a, double b) {
  return std::abs(a - b) <= kRel * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string describe(const char* what, double got, double want) {
  std::ostringstream o;
  o.precision(17);
  o << what << ": got " << got << ", want " << want;
  return o.str();
}

}  // namespace

EpisodeRecord capture(const decima::sim::ClusterEnv& env) {
  EpisodeRecord r;
  r.executors = env.total_executors();
  r.makespan = env.makespan();
  r.jcts = env.jcts();
  r.rewards = env.action_rewards();
  r.trace = env.trace();
  r.jobs = env.jobs();
  r.classes = env.executor_classes();
  r.executor_states = env.executors();
  return r;
}

std::string check_all_finished(const EpisodeRecord& r) {
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    if (!r.jobs[i].arrived || !r.jobs[i].done() || r.jobs[i].finish < 0.0) {
      return "job " + std::to_string(i) + " did not finish";
    }
  }
  if (r.jcts.size() != r.jobs.size()) {
    return describe("completed-job count", static_cast<double>(r.jcts.size()),
                    static_cast<double>(r.jobs.size()));
  }
  return "";
}

std::string check_jct_lower_bound(const EpisodeRecord& r) {
  const std::size_t n = std::min(r.jcts.size(), r.jobs.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double cp = r.jobs[i].spec.critical_path_duration();
    if (r.jcts[i] < cp * (1.0 - kRel)) {
      return describe(("JCT below critical path, job " + std::to_string(i))
                          .c_str(),
                      r.jcts[i], cp);
    }
  }
  return "";
}

std::string check_busy_time(const EpisodeRecord& r) {
  double busy = 0.0;      // executing, from start to end
  double occupied = 0.0;  // held by the task, moving delay included
  for (const auto& t : r.trace) {
    if (t.killed) continue;
    busy += t.end - t.start;
    occupied += t.end - t.dispatched;
  }
  double nominal = 0.0;
  for (const auto& j : r.jobs) nominal += j.spec.total_work();
  if (busy < nominal * (1.0 - kRel)) {
    return describe("busy executor-time below nominal work", busy, nominal);
  }
  const double capacity = r.executors * r.makespan;
  if (occupied > capacity * (1.0 + kRel)) {
    return describe("occupied executor-time above executors x makespan",
                    occupied, capacity);
  }
  return "";
}

std::string check_littles_law(const EpisodeRecord& r) {
  std::vector<std::pair<double, int>> events;
  events.reserve(2 * r.jobs.size());
  for (const auto& j : r.jobs) {
    events.emplace_back(j.arrival, +1);
    events.emplace_back(j.finish, -1);
  }
  std::sort(events.begin(), events.end());
  double area = 0.0;
  int in_system = 0;
  double prev = events.empty() ? 0.0 : events.front().first;
  for (const auto& [t, delta] : events) {
    area += in_system * (t - prev);
    in_system += delta;
    prev = t;
  }
  double sum_jct = 0.0;
  for (double j : r.jcts) sum_jct += j;
  if (!close(sum_jct, area)) {
    return describe("sum of JCTs vs integral of jobs in system", sum_jct,
                    area);
  }
  return "";
}

std::string check_rewards(const EpisodeRecord& r) {
  double reward = 0.0;
  for (double x : r.rewards) reward += x;
  double sum_jct = 0.0;
  for (double j : r.jcts) sum_jct += j;
  if (!close(reward, -sum_jct)) {
    return describe("sum of action rewards vs -sum of JCTs", reward, -sum_jct);
  }
  return "";
}

std::string check_trace_valid(const EpisodeRecord& r) {
  std::string error;
  if (!decima::sim::validate_trace_data(r.trace, r.jobs, r.classes,
                                        r.executor_states, &error)) {
    return "validate_trace: " + error;
  }
  return "";
}

std::string check_episode(const EpisodeRecord& r) {
  for (auto* check :
       {&check_all_finished, &check_jct_lower_bound, &check_busy_time,
        &check_littles_law, &check_rewards, &check_trace_valid}) {
    std::string why = check(r);
    if (!why.empty()) return why;
  }
  return "";
}

std::string check_bit_equal(const std::vector<double>& got,
                            const std::vector<double>& want,
                            const std::string& what) {
  if (got.size() != want.size()) {
    return describe((what + " count").c_str(),
                    static_cast<double>(got.size()),
                    static_cast<double>(want.size()));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return describe((what + " " + std::to_string(i)).c_str(), got[i],
                      want[i]);
    }
  }
  return "";
}

std::string check_accounting(std::uint64_t issued, std::uint64_t ok,
                             std::uint64_t rejected, std::uint64_t timed_out,
                             std::uint64_t stopped) {
  const std::uint64_t answered = ok + rejected + timed_out + stopped;
  if (answered != issued) {
    return describe("ok + rejected + timed-out + stopped vs requests issued",
                    static_cast<double>(answered),
                    static_cast<double>(issued));
  }
  return "";
}

}  // namespace perfbench
