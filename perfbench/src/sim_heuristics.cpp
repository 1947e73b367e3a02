// sim_heuristics: FIFO, SJF-CP and weighted fair (alpha = -1) over long,
// high-load TPC-H continuous-arrival episodes on the simulator alone. It
// never touches gnn, nn, core or serve, so a model, kernel or serving change
// should leave it unmoved, and a sim or sched change shows here most.
#include <memory>

#include "checks.h"
#include "layers.h"
#include "sched/heuristics.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sim = decima::sim;

constexpr int kExecutors = 25;
constexpr int kGroups = 4;
constexpr int kEpisodesPerGroup = 4;
// Each episode deals all 132 TPC-H templates (mean nominal work ~380
// executor-seconds) arriving every 28 s on average: over half the cluster's
// nominal capacity, more once the simulator's wave, inflation and
// moving-delay effects are added, so queues build.
constexpr int kPerSize = 22;
constexpr double kMeanIat = 28.0;
// A round's reference wall time (README.md): sets the timed round count.
constexpr double kRoundS = 0.9;

std::vector<std::unique_ptr<sim::Scheduler>> heuristics() {
  std::vector<std::unique_ptr<sim::Scheduler>> h;
  h.push_back(std::make_unique<decima::sched::FifoScheduler>());
  h.push_back(std::make_unique<decima::sched::SjfCpScheduler>());
  h.push_back(std::make_unique<decima::sched::WeightedFairScheduler>(-1.0));
  return h;
}

// Times every schedule() call of the wrapped heuristic (traced runs).
class TimedHeuristic : public sim::Scheduler {
 public:
  TimedHeuristic(sim::Scheduler& inner, std::vector<double>& call_us)
      : inner_(inner), call_us_(call_us) {}
  void reset() override { inner_.reset(); }
  sim::Action schedule(const sim::ClusterEnv& env) override {
    sim::Action a;
    call_us_.push_back(1e6 * timed_call("sched.schedule",
                                        [&] { a = inner_.schedule(env); }));
    return a;
  }
  std::string name() const override { return inner_.name(); }

 private:
  sim::Scheduler& inner_;
  std::vector<double>& call_us_;
};

struct Rep {
  int group = 0;
  double wall_s = 0.0;
  std::size_t events = 0;
  std::size_t decisions = 0;
  double self_s = 0.0;  // run time minus time inside schedule() (traced)
  std::vector<std::vector<double>> jcts;  // per (episode, heuristic)
  std::vector<double> latencies_us;       // the env's own per-call stopwatch
  std::vector<double> call_us;            // the harness's (traced)
  std::vector<std::string> episode_errors;  // check_episode failures
};

using Episodes = std::vector<std::vector<decima::workload::ArrivingJob>>;

// One repetition of one group: every heuristic over the group's episodes.
// It keeps the decision latencies only when `latencies` (the group's
// decision count) is non-zero, and reserves exactly that many, so the
// harness's memory does not jump with the seed where a growing vector would
// double its capacity.
Rep run_rep(const std::vector<Episodes>& groups, int group, bool traced,
            bool check_episodes, std::size_t latencies = 0) {
  const Episodes& episodes = groups[static_cast<std::size_t>(group)];
  Rep rep;
  rep.group = group;
  rep.latencies_us.reserve(latencies);
  auto scheds = heuristics();
  const auto t0 = Clock::now();
  for (const auto& episode : episodes) {
    for (auto& h : scheds) {
      sim::ClusterEnv env(cluster(kExecutors));
      decima::workload::load(env, episode);
      h->reset();
      const std::size_t calls_before = rep.call_us.size();
      double run_s = 0.0;
      if (traced) {
        TimedHeuristic timed(*h, rep.call_us);
        run_s = timed_call("sim.run", [&] { env.run(timed); });
      } else {
        env.run(*h);
      }
      double in_sched = 0.0;
      for (std::size_t i = calls_before; i < rep.call_us.size(); ++i) {
        in_sched += rep.call_us[i] * 1e-6;
      }
      rep.self_s += run_s - in_sched;
      rep.events += env.num_events_processed();
      rep.decisions += env.decision_latencies().size();
      if (latencies > 0) {
        for (double s : env.decision_latencies()) {
          rep.latencies_us.push_back(1e6 * s);
        }
      }
      rep.jcts.push_back(env.jcts());
      if (check_episodes) {
        std::string why = check_episode(capture(env));
        if (!why.empty()) rep.episode_errors.push_back(h->name() + ": " + why);
      }
    }
  }
  rep.wall_s = seconds_since(t0);
  return rep;
}

void check_rep(const Rep& rep, const Rep& warm, Result& r) {
  for (std::size_t i = 0; i < rep.jcts.size(); ++i) {
    const std::string why = check_bit_equal(rep.jcts[i], warm.jcts[i], "JCT");
    r.check(why.empty(), "episode run " + std::to_string(i) +
                             " differs from the warm-up: " + why);
  }
  for (const auto& why : rep.episode_errors) {
    r.check(false, "heuristic episode: " + why);
  }
}

}  // namespace

Result run_sim_heuristics(const Options& opt) {
  Result r;
  std::vector<Episodes> groups(kGroups);
  const double gen_s = timed_call("workload.gen", [&] {
    for (int e = 0; e < kGroups * kEpisodesPerGroup; ++e) {
      groups[static_cast<std::size_t>(e / kEpisodesPerGroup)].push_back(
          arrivals(tpch_hands(mix_seed(opt.seed, 2 * e), kPerSize, 1).front(),
                   mix_seed(opt.seed, 2 * e + 1), kMeanIat));
    }
  });
  // Warm-up: one full round, untimed; its episodes get the full checks.
  std::vector<Rep> warm;
  for (int g = 0; g < kGroups; ++g) {
    warm.push_back(run_rep(groups, g, false, true));
    check_rep(warm.back(), warm.back(), r);
  }
  const double setup_s = seconds_since(opt.process_start);

  // Each repetition is checked against the warm-up as it ends and then
  // reduced to its figures.
  const int rounds =
      round_count(opt.trace ? opt.seconds / 2 : opt.seconds, kRoundS);
  BestRound untraced(kGroups);
  repeat_rounds(rounds, kGroups, [&](int g) {
    Rep rep = run_rep(groups, g, false, false,
                      warm[static_cast<std::size_t>(g)].decisions);
    check_rep(rep, warm[static_cast<std::size_t>(g)], r);
    r.attempted += rep.jcts.size();
    r.check(untraced.offer(g, rep.wall_s, static_cast<double>(rep.decisions),
                           static_cast<double>(rep.events),
                           std::move(rep.latencies_us)),
            "episode group " + std::to_string(g) +
                BestRound::kOtherDecisions);
  });
  // The full episode checks once more, on one more round after the timed
  // ones.
  for (int g = 0; g < kGroups; ++g) {
    check_rep(run_rep(groups, g, false, true),
              warm[static_cast<std::size_t>(g)], r);
  }
  const RoundFigures best = untraced.figures();

  if (!opt.trace) {
    double jct_sum = 0.0;
    std::size_t jobs = 0;
    for (const Rep& rep : warm) {
      for (const auto& j : rep.jcts) {
        for (double x : j) jct_sum += x;
        jobs += j.size();
      }
    }
    add_end_to_end(r, best, jct_sum / static_cast<double>(jobs), setup_s);
    return r;
  }

  BestRound traced(kGroups);
  std::vector<double> call_us;  // each repetition's median schedule() call
  double self_total = 0.0, events = 0.0, calls = 0.0;
  {
    TracedPhase phase(output_dir() + "/sim_heuristics_trace.json");
    repeat_rounds(rounds, kGroups, [&](int g) {
      Rep rep = run_rep(groups, g, true, false);
      check_rep(rep, warm[static_cast<std::size_t>(g)], r);
      r.attempted += rep.jcts.size();
      self_total += rep.self_s;
      events += static_cast<double>(rep.events);
      calls += static_cast<double>(rep.call_us.size());
      call_us.push_back(median(rep.call_us));
      traced.offer(g, rep.wall_s, static_cast<double>(rep.decisions),
                   static_cast<double>(rep.events), {});
    });
  }
  r.add("sim.events", events / rounds, "count");
  r.add("sim.self_s", self_total / rounds, "s");
  r.add("sched.calls", calls / rounds, "count");
  r.add("sched.call_us", median(call_us), "us");
  r.add("workload.gen_s", gen_s, "s");
  r.add("trace.slowdown", traced.figures().events_per_s / best.events_per_s,
        "ratio");
  return r;
}

}  // namespace perfbench
