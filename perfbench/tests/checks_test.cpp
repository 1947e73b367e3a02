// The harness's own tests: every correctness check accepts a real output and
// rejects a deliberately corrupted copy of it.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "checks.h"
#include "common.h"
#include "core/agent.h"
#include "sched/heuristics.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}
void accepts(const std::string& why, const std::string& what) {
  expect(why.empty(), what + " accepts the real output" +
                          (why.empty() ? "" : " (" + why + ")"));
}
void rejects(const std::string& why, const std::string& what) {
  expect(!why.empty(), what + " rejects " + (why.empty() ? "" : ": " + why));
}

double flip_low_bit(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof bits);
  return x;
}

// A real finished episode: one TPC-H hand on a small cluster under SJF-CP.
EpisodeRecord real_episode() {
  decima::sim::EnvConfig c;
  c.num_executors = 6;
  decima::sim::ClusterEnv env(c);
  decima::workload::load(env, arrivals(tpch_hands(5, 1, 1).front(), 6, 20.0));
  decima::sched::SjfCpScheduler sjf;
  env.run(sjf);
  return capture(env);
}

// Index of the task whose end is its job's finish time.
std::size_t last_task_of_job(const EpisodeRecord& r, int job) {
  std::size_t best = 0;
  double end = -1.0;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    if (r.trace[i].job == job && r.trace[i].end > end) {
      end = r.trace[i].end;
      best = i;
    }
  }
  return best;
}

}  // namespace

int main() {
  const EpisodeRecord real = real_episode();
  accepts(check_episode(real), "check_episode");

  {
    EpisodeRecord r = real;
    r.jobs[2].finish = -1.0;
    r.jobs[2].stages_complete = 0;
    rejects(check_all_finished(r), "check_all_finished, unfinished job");
    EpisodeRecord d = real;
    d.jcts.pop_back();
    rejects(check_all_finished(d), "check_all_finished, dropped job");
  }
  {
    EpisodeRecord r = real;
    r.jcts[1] = 0.5 * r.jobs[1].spec.critical_path_duration();
    rejects(check_jct_lower_bound(r), "check_jct_lower_bound, JCT below CP");
  }
  {
    EpisodeRecord r = real;
    for (auto& t : r.trace) t.end = t.start + 0.5 * (t.end - t.start);
    rejects(check_busy_time(r), "check_busy_time, halved task durations");
    EpisodeRecord s = real;
    s.trace.front().end += s.executors * s.makespan;
    rejects(check_busy_time(s), "check_busy_time, task past the capacity");
  }
  {
    EpisodeRecord r = real;
    r.jcts[3] += 1.0;
    rejects(check_littles_law(r), "check_littles_law, JCT off by 1 s");
  }
  {
    EpisodeRecord r = real;
    r.rewards.front() += 1.0;
    rejects(check_rewards(r), "check_rewards, reward off by 1");
  }
  {
    EpisodeRecord r = real;
    r.trace.erase(r.trace.begin());
    rejects(check_trace_valid(r), "check_trace_valid, dropped task");
    EpisodeRecord s = real;
    s.trace[last_task_of_job(s, 0)].end += 1.0;
    rejects(check_trace_valid(s), "check_trace_valid, shifted task end");
  }
  {
    std::vector<double> got = real.jcts;
    accepts(check_bit_equal(got, real.jcts, "JCT"), "check_bit_equal");
    got[0] = flip_low_bit(got[0]);
    rejects(check_bit_equal(got, real.jcts, "JCT"),
            "check_bit_equal, one JCT bit off");
    got.pop_back();
    rejects(check_bit_equal(got, real.jcts, "JCT"),
            "check_bit_equal, dropped JCT");
  }
  {
    accepts(check_accounting(10, 7, 1, 1, 1), "check_accounting");
    rejects(check_accounting(10, 9, 0, 0, 0),
            "check_accounting, lost request");
  }
  {
    decima::core::AgentConfig ac;
    decima::core::DecimaAgent agent(ac);
    std::vector<double> params;
    for (const auto* p : agent.params().params()) {
      params.insert(params.end(), p->value.raw().begin(),
                    p->value.raw().end());
    }
    std::vector<double> flipped = params;
    accepts(check_bit_equal(flipped, params, "parameter"),
            "check_bit_equal on parameters");
    flipped[flipped.size() / 2] = flip_low_bit(flipped[flipped.size() / 2]);
    rejects(check_bit_equal(flipped, params, "parameter"),
            "check_bit_equal, one parameter bit flipped");
  }
  {
    // Each decision keeps its fastest latency over the repetitions; the
    // rates come from the fastest repetition.
    BestRound best(1);
    expect(best.offer(0, 2.0, 4.0, 8.0, {1.0, 9.0, 3.0, 5.0}),
           "BestRound keeps a first repetition");
    expect(best.offer(0, 1.0, 4.0, 8.0, {2.0, 4.0, 6.0, 8.0}),
           "BestRound keeps a repetition with the same decisions");
    const RoundFigures f = best.figures();
    expect(f.wall_s == 1.0 && f.decisions_per_s == 4.0 &&
               f.p50_us == 3.5 && std::abs(f.p99_us - 4.97) < 1e-12,
           "BestRound figures: fastest wall time, per-decision minima");
    expect(!best.offer(0, 0.5, 4.0, 8.0, {1.0, 1.0, 1.0}),
           "BestRound rejects a repetition with a dropped decision");
    expect(best.figures().wall_s == 1.0,
           "BestRound leaves a rejected repetition out");
  }

  std::cout << (failures ? "FAILED: " : "all passed: ") << failures
            << " failure(s)\n";
  return failures ? 1 : 0;
}
