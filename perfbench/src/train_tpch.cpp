// train_tpch: ReinforceTrainer runs a fixed iteration budget on seeded
// TPC-H continuous arrivals with a rollout pool below nproc; the trained
// policy is then evaluated greedily on held-out arrival sequences. It runs
// rl, the sampled rollout, batched replay with tape backward, and Adam,
// none of which the serve path touches.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "checks.h"
#include "core/agent.h"
#include "gnn/embedding_cache.h"
#include "gnn/features.h"
#include "io/checkpoint.h"
#include "layers.h"
#include "rl/reinforce.h"
#include "sched/heuristics.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sim = decima::sim;
namespace rl = decima::rl;
using decima::core::DecimaAgent;

constexpr int kExecutors = 15;
// Each iteration trains on one hand of 12 jobs (2 of each TPC-H size); the
// 11 iterations deal every one of the 132 templates exactly once, so the
// budget's total work is the same for every seed.
constexpr int kIterations = 11;
constexpr int kPerSize = 2;
constexpr int kEpisodesPerIter = 4;
constexpr double kMeanIat = 90.0;  // ~30% of nominal capacity
// Held-out evaluation: six more full deals of 11 hands of 12 jobs; one deal
// is one repetition of the timed evaluation.
constexpr int kHeldOutDeals = 6;
constexpr std::uint64_t kAgentSeed = 42;
constexpr std::uint64_t kTrainSeed = 123;
// Reference wall times (README.md) that set the timed repetition count:
// one training run, and one evaluation round of all six deals.
constexpr double kTrainRunS = 2.0;
constexpr double kEvalRoundS = 1.5;

// The (workload, env, sample) seeds ReinforceTrainer::iterate() forks for
// each episode, mirrored from its documented derivation (curriculum off,
// fixed sequences: one fork for the iteration's shared sequence, then two
// per episode). The sampler keys each iteration's hand on its workload
// seed; the replica rollout replays the same episodes.
struct EpisodeSeeds {
  std::uint64_t workload = 0, env = 0, sample = 0;
};
std::vector<std::vector<EpisodeSeeds>> trainer_seeds() {
  decima::Rng rng(kTrainSeed);
  std::vector<std::vector<EpisodeSeeds>> out(kIterations);
  for (auto& iteration : out) {
    const std::uint64_t shared = rng.fork();
    for (int e = 0; e < kEpisodesPerIter; ++e) {
      EpisodeSeeds s;
      s.workload = shared;
      s.env = rng.fork();
      s.sample = rng.fork();
      iteration.push_back(s);
    }
  }
  return out;
}

// Serves the hand dealt to the iteration whose workload seed it is asked
// for. A seed it does not know means the trainer's seed derivation moved
// away from the mirror above; it is counted, and the run fails its checks.
class HandSampler {
 public:
  HandSampler(std::uint64_t bench_seed,
              const std::vector<std::vector<EpisodeSeeds>>& seeds) {
    const auto hands = tpch_hands(mix_seed(bench_seed, 1), kPerSize,
                                  kIterations);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      streams_[seeds[i].front().workload] =
          arrivals(hands[i], mix_seed(bench_seed, 100 + i), kMeanIat);
    }
  }
  rl::WorkloadSampler sampler() {
    return [this](std::uint64_t seed) {
      const auto it = streams_.find(seed);
      if (it != streams_.end()) return it->second;
      unknown_.fetch_add(1);
      return streams_.begin()->second;
    };
  }
  std::uint64_t unknown() const { return unknown_.load(); }

 private:
  std::map<std::uint64_t, std::vector<decima::workload::ArrivingJob>>
      streams_;
  std::atomic<std::uint64_t> unknown_{0};
};

rl::TrainConfig train_config(rl::WorkloadSampler sampler, int threads) {
  rl::TrainConfig tc;
  tc.num_iterations = kIterations;
  tc.episodes_per_iter = kEpisodesPerIter;
  tc.rollout_threads = threads;
  tc.curriculum = false;  // full episodes: the budget's work is fixed
  tc.env = cluster(kExecutors);
  tc.sampler = std::move(sampler);
  tc.seed = kTrainSeed;
  return tc;
}

std::vector<double> flat_params(const DecimaAgent& agent) {
  std::vector<double> flat;
  for (const auto* p : agent.params().params()) {
    flat.insert(flat.end(), p->value.raw().begin(), p->value.raw().end());
  }
  return flat;
}

// Greedy evaluation of a policy on the held-out sequences: its JCT.
struct Eval {
  double avg_jct = 0.0;  // mean over sequences of the sequence's mean JCT
  std::vector<std::string> episode_errors;  // check_episode failures
  double cache_reuse = 0.0;
};

using Episodes = std::vector<std::vector<decima::workload::ArrivingJob>>;

Eval evaluate(DecimaAgent& agent, const Episodes& held_out,
              bool check_episodes) {
  Eval ev;
  agent.set_mode(decima::core::Mode::kGreedy);
  const auto before = agent.embed_cache_stats();
  for (const auto& seq : held_out) {
    sim::ClusterEnv env(cluster(kExecutors));
    decima::workload::load(env, seq);
    env.run(agent);
    double sum = 0.0;
    for (double j : env.jcts()) sum += j;
    ev.avg_jct += sum / static_cast<double>(env.jobs().size());
    if (check_episodes) {
      std::string why = check_episode(capture(env));
      if (!why.empty()) ev.episode_errors.push_back(std::move(why));
    }
  }
  ev.avg_jct /= static_cast<double>(held_out.size());
  const auto after = agent.embed_cache_stats();
  const double total =
      static_cast<double>(after.nodes_total - before.nodes_total);
  ev.cache_reuse =
      total > 0 ? 1.0 - static_cast<double>(after.nodes_recomputed -
                                            before.nodes_recomputed) /
                            total
                : 0.0;
  return ev;
}

// Times the trained policy's greedy decide() on every state SJF-CP visits
// while SJF-CP drives the cluster. The states then depend on the held-out
// streams alone; under its own schedules the policy's state sizes, and so
// its decision times, swing with whatever it learned from the seed's data.
class ShadowDecisions : public sim::Scheduler {
 public:
  ShadowDecisions(const DecimaAgent& agent, std::vector<double>& decide_us)
      : agent_(agent), decide_us_(decide_us) {}
  sim::Action schedule(const sim::ClusterEnv& env) override {
    decide_us_.push_back(1e6 * timed_call("core.decide", [&] {
                           agent_.decide(env, &cache_);
                         }));
    return sjf_.schedule(env);
  }
  std::string name() const override { return "perfbench-shadow"; }

 private:
  const DecimaAgent& agent_;
  std::vector<double>& decide_us_;
  decima::gnn::EmbeddingCache cache_;
  decima::sched::SjfCpScheduler sjf_;
};

// One evaluation repetition: the shadowed decisions over one deal.
struct ShadowRound {
  double wall_s = 0.0;
  std::size_t events = 0;
  std::vector<double> decide_us;
  std::vector<std::vector<double>> jcts;  // SJF-CP's, per stream
};

ShadowRound shadow_round(const DecimaAgent& agent, const Episodes& deal) {
  ShadowRound out;
  const auto t0 = Clock::now();
  for (const auto& seq : deal) {
    sim::ClusterEnv env(cluster(kExecutors));
    decima::workload::load(env, seq);
    ShadowDecisions shadow(agent, out.decide_us);
    env.run(shadow);
    out.events += env.num_events_processed();
    out.jcts.push_back(env.jcts());
  }
  out.wall_s = seconds_since(t0);
  return out;
}

// One repetition: the whole training budget from the same initial policy.
struct Rep {
  double train_s = 0.0;               // the whole budget
  std::vector<double> iteration_s;  // each iterate() call
  std::vector<rl::IterationStats> curve;
  std::vector<double> params;
  std::unique_ptr<DecimaAgent> agent;  // the trained policy
};

Rep run_rep(rl::WorkloadSampler sampler, int threads) {
  Rep rep;
  decima::core::AgentConfig ac;
  ac.seed = kAgentSeed;
  rep.agent = std::make_unique<DecimaAgent>(ac);
  rl::ReinforceTrainer trainer(*rep.agent,
                               train_config(std::move(sampler), threads));
  // ReinforceTrainer::train() is this loop; each iteration is timed too.
  rep.train_s = timed_call("rl.train", [&] {
    for (int i = 0; i < kIterations; ++i) {
      rep.iteration_s.push_back(timed_call(
          "rl.iterate", [&] { rep.curve.push_back(trainer.iterate()); }));
    }
  });
  rep.params = flat_params(*rep.agent);
  return rep;
}

// Mean held-out JCT over every deal (the deals are the same size).
double mean_jct(const std::vector<Eval>& per_deal) {
  double sum = 0.0;
  for (const Eval& e : per_deal) sum += e.avg_jct;
  return sum / static_cast<double>(per_deal.size());
}

// Times the agent's decisions during the replica rollout, and
// gnn::extract_graphs on the same states outside them.
class TimedAgent : public sim::Scheduler {
 public:
  explicit TimedAgent(DecimaAgent& agent) : agent_(agent) {}
  sim::Action schedule(const sim::ClusterEnv& env) override {
    sim::Action a;
    agent_s += timed_call("core.schedule", [&] { a = agent_.schedule(env); });
    extract_s += timed_call("gnn.extract_graphs", [&] {
      for (const auto& g :
           decima::gnn::extract_graphs(env, agent_.config().features)) {
        nodes += g.features.rows();
      }
    });
    ++states;
    return a;
  }
  std::string name() const override { return "perfbench-timed-agent"; }

  double agent_s = 0.0;
  double extract_s = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t states = 0;

 private:
  DecimaAgent& agent_;
};

// Times each schedule() call of an agent replaying recorded actions. The
// batched replay snapshots every event and, each time replay_batch events
// are pending, scores them on a tape with a backward pass inside that same
// call; such a call's scoring share is its time beyond a plain snapshot
// call's median.
class TimedReplay : public sim::Scheduler {
 public:
  explicit TimedReplay(DecimaAgent& agent) : agent_(agent) {}
  sim::Action schedule(const sim::ClusterEnv& env) override {
    const std::size_t before = agent_.replay_cursor();
    sim::Action a;
    const double s =
        timed_call("core.replay_event", [&] { a = agent_.schedule(env); });
    const std::size_t after = agent_.replay_cursor();
    const auto chunk = static_cast<std::size_t>(agent_.config().replay_batch);
    (after != before && chunk > 0 && after % chunk == 0 ? scoring_calls
                                                       : snapshot_calls)
        .push_back(s);
    return a;
  }
  std::string name() const override { return "perfbench-timed-replay"; }

  std::vector<double> snapshot_calls;
  std::vector<double> scoring_calls;

 private:
  DecimaAgent& agent_;
};

// The per-layer split of a training run, from a replica that re-runs each
// iteration's episodes outside the trainer with the same parameters and
// seeds: the rollout under a timing decorator, then the batched replay
// split into its snapshot and scoring (tape forward + backward) shares.
struct Replica {
  double agent_s = 0.0;
  double rollout_sim_s = 0.0;  // rollout run time outside the callbacks
  double replay_sim_s = 0.0;   // replay run time outside the callbacks
  double extract_s = 0.0;
  double snapshot_s = 0.0;
  double score_s = 0.0;
  std::uint64_t nodes = 0, states = 0, actions = 0, events = 0;
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// What one replicated iteration's rollouts produced, summed in the order
// ReinforceTrainer::iterate() sums its IterationStats, so a replica that
// took the trainer's actions matches those bit for bit.
struct ReplicaIteration {
  int actions = 0;
  double mean_avg_jct = 0.0;
  double mean_total_reward = 0.0;
};

ReplicaIteration replicate_iteration(const DecimaAgent& start,
                                     const std::vector<EpisodeSeeds>& seeds,
                                     const rl::TrainConfig& tc,
                                     double entropy_weight, Replica& out) {
  ReplicaIteration it;
  const auto worker = start.clone();
  for (const EpisodeSeeds& s : seeds) {
    sim::EnvConfig ec = tc.env;
    ec.seed = s.env;
    const auto jobs = tc.sampler(s.workload);
    sim::ClusterEnv env(ec);
    decima::workload::load(env, jobs);
    worker->set_mode(decima::core::Mode::kSample);
    worker->set_sample_seed(s.sample);
    worker->start_recording();
    TimedAgent timed(*worker);
    const double run_s = timed_call("sim.run", [&] { env.run(timed); });
    auto actions = worker->take_recorded();
    out.agent_s += timed.agent_s;
    out.extract_s += timed.extract_s;
    out.rollout_sim_s += run_s - timed.agent_s - timed.extract_s;
    out.nodes += timed.nodes;
    out.states += timed.states;
    out.actions += actions.size();
    out.events += env.num_events_processed();
    it.actions += static_cast<int>(actions.size());
    for (double reward : env.action_rewards()) it.mean_total_reward += reward;
    it.mean_avg_jct += env.avg_jct();

    // Replay with unit weights: the cost does not depend on the
    // advantages' values.
    sim::ClusterEnv replay_env(ec);
    decima::workload::load(replay_env, jobs);
    worker->params().zero_grads();
    const std::size_t n = actions.size();
    worker->start_replay(std::move(actions), std::vector<double>(n, 1.0),
                         entropy_weight);
    TimedReplay replay(*worker);
    const double replay_run_s =
        timed_call("sim.run", [&] { replay_env.run(replay); });
    const double finish_s =
        timed_call("core.finish_replay", [&] { worker->finish_replay(); });
    const double snapshot_call = median(replay.snapshot_calls);
    const double scoring_snapshots =
        snapshot_call * static_cast<double>(replay.scoring_calls.size());
    out.snapshot_s += sum(replay.snapshot_calls) + scoring_snapshots;
    out.score_s += sum(replay.scoring_calls) - scoring_snapshots + finish_s;
    out.replay_sim_s += replay_run_s - sum(replay.snapshot_calls) -
                        sum(replay.scoring_calls);
    out.events += replay_env.num_events_processed();
  }
  const double n = static_cast<double>(std::max<std::size_t>(seeds.size(), 1));
  it.mean_total_reward /= n;
  it.mean_avg_jct /= n;
  return it;
}

}  // namespace

Result run_train_tpch(const Options& opt) {
  Result r;
  // The pool's workers plus the coordinating thread stay within nproc. Two
  // workers, not three: a pooled iteration waits for its slowest worker,
  // and every core it needs is one more that another tenant can slow.
  const int threads = std::clamp(host_threads() - 1, 1, 2);
  const auto seeds = trainer_seeds();

  std::unique_ptr<HandSampler> hands;
  std::vector<Episodes> held_out(kHeldOutDeals);  // one deal per entry
  const double gen_s = timed_call("workload.gen", [&] {
    hands = std::make_unique<HandSampler>(opt.seed, seeds);
    for (int d = 0; d < kHeldOutDeals; ++d) {
      auto& deal = held_out[static_cast<std::size_t>(d)];
      for (auto& hand :
           tpch_hands(mix_seed(opt.seed, 2 + d), kPerSize, kIterations)) {
        deal.push_back(arrivals(
            std::move(hand),
            mix_seed(opt.seed, 200 + kIterations * d + deal.size()), kMeanIat));
      }
    }
  });

  // Warm-up: one full training run and evaluation, untimed; the evaluation's
  // episodes get the full checks.
  const Rep warm = run_rep(hands->sampler(), threads);
  std::vector<Eval> warm_eval;
  for (const Episodes& deal : held_out) {
    warm_eval.push_back(evaluate(*warm.agent, deal, true));
    for (const auto& why : warm_eval.back().episode_errors) {
      r.check(false, "held-out episode: " + why);
    }
  }
  const double policy_jct = mean_jct(warm_eval);
  const double setup_s = seconds_since(opt.process_start);

  // Timed training runs, each followed (untraced runs) by a timed
  // evaluation round of the trained policy, one deal per repetition, so
  // both spread over the whole run and a slow spell of the host does not
  // fall on one of them alone. Every training run must end with the
  // warm-up run's parameters, byte for byte, and every evaluation must
  // reproduce the first round's JCTs; each repetition is checked as it ends
  // and then reduced to its figures.
  const int train_runs =
      opt.trace ? round_count(opt.seconds / 2, kTrainRunS)
                : round_count(opt.seconds, kTrainRunS + kEvalRoundS);
  // The iterations are the groups of the training budget: every run does
  // the same work in iteration i, so train_s sums each iteration's fastest
  // time over the runs.
  BestRound training(kIterations);
  BestRound eval(kHeldOutDeals);
  std::vector<std::vector<std::vector<double>>> first(held_out.size());
  for (int i = 0; i < train_runs; ++i) {
    const Rep rep = run_rep(hands->sampler(), threads);
    const std::string why =
        check_bit_equal(rep.params, warm.params, "parameter");
    r.check(why.empty(), "timed training run parameters: " + why);
    for (int it = 0; it < kIterations; ++it) {
      training.offer(it, rep.iteration_s[static_cast<std::size_t>(it)], 0.0,
                     0.0, {});
    }
    r.attempted += kIterations;
    if (opt.trace) continue;
    repeat_rounds(1, kHeldOutDeals, [&](int d) {
      const auto dd = static_cast<std::size_t>(d);
      ShadowRound round = shadow_round(*warm.agent, held_out[dd]);
      if (first[dd].empty()) first[dd] = round.jcts;
      for (std::size_t e = 0; e < round.jcts.size(); ++e) {
        const std::string differs =
            check_bit_equal(round.jcts[e], first[dd][e], "JCT");
        r.check(differs.empty(), "shadowed SJF-CP run differs: " + differs);
      }
      r.attempted += held_out[dd].size();
      const double decisions = static_cast<double>(round.decide_us.size());
      r.check(eval.offer(d, round.wall_s, decisions,
                         static_cast<double>(round.events),
                         std::move(round.decide_us)),
              "held-out deal " + std::to_string(d) +
                  BestRound::kOtherDecisions);
    });
  }

  // The trained policy through a checkpoint round trip scores the same.
  double load_s = 0.0;
  {
    const std::string ckpt = output_dir() + "/train_policy.ckpt";
    r.check(decima::io::save_policy(*warm.agent, ckpt), "write " + ckpt);
    std::unique_ptr<DecimaAgent> loaded;
    load_s = timed_call("io.load_policy_agent",
                        [&] { loaded = decima::io::load_policy_agent(ckpt); });
    r.check(loaded != nullptr, "load " + ckpt);
    if (loaded) {
      std::vector<Eval> reloaded;
      for (const Episodes& deal : held_out) {
        reloaded.push_back(evaluate(*loaded, deal, false));
      }
      const std::string why =
          check_bit_equal({mean_jct(reloaded)}, {policy_jct}, "mean JCT");
      r.check(why.empty(), "reloaded policy's held-out JCT: " + why);
    }
  }

  // One untimed run at rollout_threads = 1, iteration by iteration, each
  // iteration's episodes replicated outside the trainer: it must end with
  // the same parameters as the pooled runs, and the replica must reproduce
  // each iteration's rollouts (action count, mean JCT and mean total reward,
  // bit for bit). The replica also counts the budget's simulator events.
  Replica replica;
  std::vector<rl::IterationStats> t1_curve;
  std::vector<double> split_ratios;  // per iteration
  {
    decima::core::AgentConfig ac;
    ac.seed = kAgentSeed;
    DecimaAgent agent(ac);
    const rl::TrainConfig tc = train_config(hands->sampler(), 1);
    rl::ReinforceTrainer trainer(agent, tc);
    double entropy_weight = tc.entropy_weight;
    for (int i = 0; i < kIterations; ++i) {
      const auto start = agent.clone();
      t1_curve.push_back(trainer.iterate());
      const double before = replica.agent_s + replica.rollout_sim_s;
      const ReplicaIteration it = replicate_iteration(
          *start, seeds[static_cast<std::size_t>(i)], tc, entropy_weight,
          replica);
      const rl::IterationStats& want = t1_curve.back();
      const std::string label = "replica iteration " + std::to_string(i);
      r.check(it.actions == want.total_actions,
              label + " took " + std::to_string(it.actions) +
                  " actions, the trainer " +
                  std::to_string(want.total_actions));
      const std::string why = check_bit_equal(
          {it.mean_avg_jct, it.mean_total_reward},
          {want.mean_avg_jct, want.mean_total_reward},
          "(mean avg JCT, mean total reward)");
      r.check(why.empty(),
              label + " rollouts differ from the trainer's: " + why);
      split_ratios.push_back(
          (replica.agent_s + replica.rollout_sim_s - before) /
          want.rollout_cpu_seconds);
      entropy_weight = t1_curve.back().entropy_weight;
    }
    const std::string why =
        check_bit_equal(flat_params(agent), warm.params, "parameter");
    r.check(why.empty(), "rollout_threads = 1 parameters: " + why);
  }
  r.check(hands->unknown() == 0,
          "the trainer asked for workload seeds the harness does not mirror");
  int actions = 0;
  for (const auto& it : t1_curve) actions += it.total_actions;

  // Reference figures for the README: the heuristics' mean JCT on the same
  // held-out sequences, scored like the policy (stderr only).
  {
    Episodes all;
    for (const Episodes& deal : held_out) {
      all.insert(all.end(), deal.begin(), deal.end());
    }
    decima::sched::FifoScheduler fifo;
    decima::sched::SjfCpScheduler sjf;
    decima::sched::WeightedFairScheduler fair(-1.0);
    std::string line =
        "held-out mean JCT [s]: policy " + std::to_string(policy_jct);
    for (sim::Scheduler* h :
         std::initializer_list<sim::Scheduler*>{&fifo, &sjf, &fair}) {
      line += ", " + h->name() + " " +
              std::to_string(
                  rl::evaluate_avg_jct(*h, cluster(kExecutors), all));
    }
    r.notes.push_back(line);
  }

  if (!opt.trace) {
    // Decisions from the evaluation rounds; train_s is the training budget's
    // best round, and sim_events_per_s the budget's simulator events
    // (rollouts and replays, counted by the replica) per second of it.
    RoundFigures best = eval.figures();
    best.wall_s = training.figures().wall_s;
    best.events_per_s = static_cast<double>(replica.events) / best.wall_s;
    add_end_to_end(r, best, policy_jct, setup_s);
    return r;
  }

  // Traced half: obs metrics and spans on around the same training runs,
  // plus the benchmark's own stopwatch around the training loop.
  BestRound traced(kIterations);
  std::vector<double> rollout_s, replay_s, step_s, rollout_util, replay_util,
      phase_ratio;
  {
    TracedPhase phase(output_dir() + "/train_tpch_trace.json");
    for (int i = 0; i < train_runs; ++i) {
      const Rep rep = run_rep(hands->sampler(), threads);
      const std::string why =
          check_bit_equal(rep.params, warm.params, "parameter");
      r.check(why.empty(), "traced training run parameters: " + why);
      r.attempted += kIterations;
      double ro = 0, rp = 0, st = 0, total = 0, ro_cpu = 0, rp_cpu = 0;
      for (const auto& it : rep.curve) {
        ro += it.rollout_seconds;
        rp += it.replay_seconds;
        st += it.step_seconds;
        total += it.total_seconds;
        ro_cpu += it.rollout_cpu_seconds;
        rp_cpu += it.replay_cpu_seconds;
      }
      for (int it = 0; it < kIterations; ++it) {
        traced.offer(it, rep.iteration_s[static_cast<std::size_t>(it)], 0.0,
                     0.0, {});
      }
      rollout_s.push_back(ro);
      replay_s.push_back(rp);
      step_s.push_back(st);
      rollout_util.push_back(ro_cpu / (threads * ro));
      replay_util.push_back(rp_cpu / (threads * rp));
      phase_ratio.push_back(total / rep.train_s);
    }
  }
  // The phase sums and the stopwatch around the training loop (train()'s
  // loop of iterate() calls) differ only by the loop itself.
  const double phase_sum_ratio = median(phase_ratio);
  r.check(phase_sum_ratio > 0.95 && phase_sum_ratio <= 1.0 + 1e-9,
          "rl phase sums disagree with the stopwatch around training: ratio " +
              std::to_string(phase_sum_ratio));

  // The replica's agent and simulator time against the trainer's own
  // per-episode busy time for the same episodes (rollout_threads = 1),
  // iteration by iteration; the median ratio rides out host noise.
  const double split_ratio = median(split_ratios);
  r.check(split_ratio > 0.75 && split_ratio < 1.25,
          "replica agent + simulator time disagrees with rollout_cpu_seconds: "
          "ratio " + std::to_string(split_ratio));

  const double nodes_per_state =
      replica.states ? static_cast<double>(replica.nodes) /
                           static_cast<double>(replica.states)
                     : 0.0;
  const KernelRates k =
      kernel_rates(static_cast<int>(nodes_per_state + 0.5), 0.05);
  decima::core::AgentConfig ac;
  ac.seed = kAgentSeed;
  DecimaAgent adam_agent(ac);

  r.add("sim.events", static_cast<double>(replica.events), "count");
  r.add("sim.self_s", replica.rollout_sim_s + replica.replay_sim_s, "s");
  r.add("workload.gen_s", gen_s, "s");
  r.add("io.load_policy_s", load_s, "s");
  r.add("gnn.extract_us",
        replica.states ? 1e6 * replica.extract_s /
                             static_cast<double>(replica.states)
                       : 0.0,
        "us");
  r.add("gnn.nodes_per_state", nodes_per_state, "count");
  r.add("gnn.cache_node_reuse", warm_eval.front().cache_reuse, "ratio");
  r.add("core.rollout_agent_s", replica.agent_s, "s");
  r.add("core.replay_snapshot_s", replica.snapshot_s, "s");
  r.add("core.replay_score_s", replica.score_s, "s");
  r.add("core.rollout_split_vs_cpu", split_ratio, "ratio");
  r.add("rl.rollout_s", median(rollout_s), "s");
  r.add("rl.replay_s", median(replay_s), "s");
  r.add("rl.step_s", median(step_s), "s");
  r.add("rl.rollout_pool_util", median(rollout_util), "ratio");
  r.add("rl.replay_pool_util", median(replay_util), "ratio");
  r.add("rl.actions", static_cast<double>(actions), "count");
  r.add("rl.phase_sum_vs_stopwatch", phase_sum_ratio, "ratio");
  r.add("nn.matmul_gflops", k.matmul, "GFLOP/s");
  r.add("nn.matmul_transposed_acc_gflops", k.matmul_transposed_acc, "GFLOP/s");
  r.add("nn.transposed_matmul_acc_gflops", k.transposed_matmul_acc, "GFLOP/s");
  r.add("nn.adam_step_us", adam_step_us(adam_agent.params(), 0.05), "us");
  r.add("trace.slowdown",
        training.figures().wall_s / traced.figures().wall_s, "ratio");
  return r;
}

}  // namespace perfbench
