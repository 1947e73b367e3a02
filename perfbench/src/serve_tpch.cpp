// serve_tpch: a closed loop of one session thread replaying seeded TPC-H
// continuous-arrival streams on a 25-executor cluster through one
// PolicyServer (default ServeConfig, embedding cache on) and blocking on
// every decision. It is the only workload that runs `serve` and the gnn
// embedding cache.
#include <algorithm>
#include <memory>
#include <thread>

#include "checks.h"
#include "core/agent.h"
#include "gnn/embedding_cache.h"
#include "gnn/features.h"
#include "io/checkpoint.h"
#include "layers.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/policy_server.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sim = decima::sim;
namespace serve = decima::serve;
using decima::core::DecimaAgent;

constexpr int kExecutors = 25;
// Each session replays four hands of 66 TPC-H jobs (11 of each size; mean
// nominal work ~380 executor-seconds), one after the other, arriving every
// 60 s on average: about a quarter of the cluster's nominal capacity. The
// served policy is untrained, and an untrained policy's schedules turn
// chaotic under heavier load, which makes every figure swing with the seed.
constexpr int kPerSize = 11;
constexpr int kGroups = 4;  // hands per session
constexpr double kMeanIat = 60.0;
constexpr std::uint64_t kPolicySeed = 42;
// A round's reference wall time (README.md): sets the timed round count.
constexpr double kRoundS = 0.7;

// One session's outputs from one repetition.
struct SessionOut {
  std::vector<double> jcts;
  std::vector<double> latencies_us;
  std::uint64_t issued = 0;
  std::uint64_t not_ok = 0;
  std::size_t events = 0;
  double run_s = 0.0;       // ClusterEnv::run wall time
  double callback_s = 0.0;  // of which inside the Scheduler callback
  // Traced runs only.
  std::vector<double> extract_us;
  std::uint64_t nodes = 0;
  decima::gnn::EmbeddingCacheStats cache;
  std::string episode_error;  // check_episode's verdict, when asked for
};

// Routes every scheduling query of one session through the server and
// times it as the session sees it. In traced runs it also times
// gnn::extract_graphs on the same state, outside the decision.
class SessionScheduler : public sim::Scheduler {
 public:
  SessionScheduler(serve::PolicyServer& server,
                   const decima::gnn::FeatureConfig& features, bool traced,
                   SessionOut& out)
      : server_(server),
        features_(features),
        traced_(traced),
        session_(server.open_session()),
        out_(out) {}

  sim::Action schedule(const sim::ClusterEnv& env) override {
    const auto t0 = Clock::now();
    if (traced_) {
      std::size_t nodes = 0;
      const double s = timed_call("gnn.extract_graphs", [&] {
        for (const auto& g : decima::gnn::extract_graphs(env, features_)) {
          nodes += g.features.rows();
        }
      });
      out_.extract_us.push_back(1e6 * s);
      out_.nodes += nodes;
    }
    serve::DecideResult r;
    const double s = timed_call("serve.decide_with_status", [&] {
      r = server_.decide_with_status(session_, env);
    });
    out_.latencies_us.push_back(1e6 * s);
    ++out_.issued;
    if (r.status != serve::DecideStatus::kOk) ++out_.not_ok;
    out_.callback_s += seconds_since(t0);
    return r.action;
  }
  std::string name() const override { return "perfbench-session"; }
  const serve::Session& session() const { return session_; }

 private:
  serve::PolicyServer& server_;
  const decima::gnn::FeatureConfig& features_;
  const bool traced_;
  serve::Session session_;
  SessionOut& out_;
};

// Greedy decisions straight from the agent, no server: with a cache it is
// the in-process counterpart of a served session (core.decide_us), without
// one it is the uncached reference the served JCTs must equal.
class DirectScheduler : public sim::Scheduler {
 public:
  DirectScheduler(const DecimaAgent& agent, decima::gnn::EmbeddingCache* cache,
                  std::vector<double>* decide_us)
      : agent_(agent), cache_(cache), decide_us_(decide_us) {}
  sim::Action schedule(const sim::ClusterEnv& env) override {
    sim::Action a;
    const double s =
        timed_call("core.decide", [&] { a = agent_.decide(env, cache_); });
    if (decide_us_ != nullptr) decide_us_->push_back(1e6 * s);
    return a;
  }
  std::string name() const override { return "perfbench-direct"; }

 private:
  const DecimaAgent& agent_;
  decima::gnn::EmbeddingCache* cache_;
  std::vector<double>* decide_us_;
};

struct Rep {
  int group = 0;
  std::size_t first_stream = 0;  // the group's streams start here
  double wall_s = 0.0;
  std::vector<SessionOut> sessions;
  serve::ServeStats before, after;

  std::uint64_t decisions() const {
    std::uint64_t n = 0;
    for (const auto& s : sessions) n += s.issued;
    return n;
  }
  std::size_t events() const {
    std::size_t n = 0;
    for (const auto& s : sessions) n += s.events;
    return n;
  }
  std::vector<double> latencies() const {
    std::vector<double> all;
    for (const auto& s : sessions) {
      all.insert(all.end(), s.latencies_us.begin(), s.latencies_us.end());
    }
    return all;
  }
};

// One repetition of one group: `threads` session threads (the calling
// thread is one of them) each replay one of the group's streams, in a fresh
// cluster with a fresh server session.
Rep run_rep(serve::PolicyServer& server, int threads, int group,
            const std::vector<std::vector<decima::workload::ArrivingJob>>&
                streams,
            const decima::gnn::FeatureConfig& features, bool traced,
            bool check_episodes) {
  Rep rep;
  rep.group = group;
  rep.first_stream = static_cast<std::size_t>(group * threads);
  rep.sessions.resize(static_cast<std::size_t>(threads));
  rep.before = server.stats();
  const auto session_thread = [&](std::size_t t) {
    SessionOut& out = rep.sessions[t];
    out.latencies_us.reserve(8192);
    sim::ClusterEnv env(cluster(kExecutors));
    decima::workload::load(env, streams[rep.first_stream + t]);
    SessionScheduler sched(server, features, traced, out);
    out.run_s = timed_call("sim.run", [&] { env.run(sched); });
    out.jcts = env.jcts();
    out.events = env.num_events_processed();
    out.cache = sched.session().cache_stats();
    if (check_episodes) out.episode_error = check_episode(capture(env));
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < rep.sessions.size(); ++t) {
    pool.emplace_back(session_thread, t);
  }
  session_thread(0);
  for (auto& t : pool) t.join();
  rep.wall_s = seconds_since(t0);
  rep.after = server.stats();
  return rep;
}

// Checks one repetition: every stream's JCTs equal `want` (indexed by
// stream), named `want_name` in the reason, and the server's accounting.
void check_rep(const Rep& rep, const std::vector<std::vector<double>>& want,
               const std::string& want_name, Result& r) {
  for (std::size_t t = 0; t < rep.sessions.size(); ++t) {
    const std::size_t s = rep.first_stream + t;
    const std::string why =
        check_bit_equal(rep.sessions[t].jcts, want[s], "JCT");
    r.check(why.empty(), "stream " + std::to_string(s) +
                             " JCTs differ from the " + want_name + ": " + why);
  }
  const std::string acct = check_accounting(
      rep.decisions(), rep.after.decisions - rep.before.decisions,
      rep.after.rejections - rep.before.rejections,
      rep.after.timeouts - rep.before.timeouts,
      rep.after.stopped_answers - rep.before.stopped_answers);
  r.check(acct.empty(), "serve accounting: " + acct);
  for (std::size_t t = 0; t < rep.sessions.size(); ++t) {
    const std::string& why = rep.sessions[t].episode_error;
    r.check(why.empty(), "served stream " +
                             std::to_string(rep.first_stream + t) + ": " + why);
  }
}

}  // namespace

Result run_serve_tpch(const Options& opt) {
  Result r;
  // One session thread (the calling thread) and the one dispatcher shard:
  // with two sessions the dispatcher's adaptive wait for the second
  // session's request made every served figure swing with the host's load
  // (README.md, "Host noise"). The session and the dispatcher take turns,
  // never running at once, so they share one CPU: a handoff is then a
  // context switch there instead of a wake-up of another, idle vCPU, whose
  // delay follows the host's other tenants.
  const int sessions = 1;
  pin_to_one_cpu();

  std::vector<std::vector<decima::workload::ArrivingJob>> streams;
  const double gen_s = timed_call("workload.gen", [&] {
    const int count = sessions * kGroups;
    const auto hands = tpch_hands(mix_seed(opt.seed, 0), kPerSize, count);
    for (int h = 0; h < count; ++h) {
      streams.push_back(arrivals(hands[static_cast<std::size_t>(h)],
                                 mix_seed(opt.seed, 1 + h), kMeanIat));
    }
  });

  // The policy: a freshly initialised agent (throughput and the checks do
  // not depend on training), written as a checkpoint and served from it.
  const std::string ckpt = output_dir() + "/serve_policy.ckpt";
  {
    decima::core::AgentConfig ac;
    ac.seed = kPolicySeed;
    DecimaAgent agent(ac);
    r.check(decima::io::save_policy(agent, ckpt), "write " + ckpt);
  }
  std::unique_ptr<DecimaAgent> loaded;
  const double load_s = timed_call("io.load_policy_agent", [&] {
    loaded = decima::io::load_policy_agent(ckpt);
  });
  if (!loaded) {
    r.check(false, "load " + ckpt);
    return r;
  }
  const decima::gnn::FeatureConfig features = loaded->config().features;
  serve::PolicyServer server(std::move(loaded));

  // Warm-up: one full round, untimed; its episodes get the full checks.
  std::vector<Rep> warm;
  std::vector<std::vector<double>> warm_jcts(streams.size());
  for (int g = 0; g < kGroups; ++g) {
    warm.push_back(
        run_rep(server, sessions, g, streams, features, false, true));
    for (std::size_t t = 0; t < warm.back().sessions.size(); ++t) {
      warm_jcts[warm.back().first_stream + t] = warm.back().sessions[t].jcts;
    }
  }
  const double setup_s = seconds_since(opt.process_start);

  // Each repetition is checked against the warm-up as it ends and then
  // reduced to its figures.
  const int rounds =
      round_count(opt.trace ? opt.seconds / 2 : opt.seconds, kRoundS);
  BestRound untraced(kGroups);
  repeat_rounds(rounds, kGroups, [&](int g) {
    Rep rep = run_rep(server, sessions, g, streams, features, false, false);
    check_rep(rep, warm_jcts, "warm-up", r);
    r.attempted += rep.decisions();
    std::vector<double> latencies;
    for (auto& s : rep.sessions) {
      r.failed += s.not_ok;
      latencies.insert(latencies.end(), s.latencies_us.begin(),
                       s.latencies_us.end());
    }
    const bool kept = untraced.offer(
        g, rep.wall_s, static_cast<double>(rep.decisions()),
        static_cast<double>(rep.events()), std::move(latencies));
    r.check(kept, "stream group " + std::to_string(g) +
                      BestRound::kOtherDecisions);
  });

  // The uncached in-process greedy run of the same checkpoint that every
  // served stream's JCTs must equal, on as many threads as there are
  // sessions. The warm-up is checked against it, every later repetition
  // against the warm-up.
  std::vector<std::vector<double>> want(streams.size());
  {
    const auto agent = decima::io::load_policy_agent(ckpt);
    const auto reference = [&](std::size_t first) {
      for (std::size_t s = first; s < streams.size();
           s += static_cast<std::size_t>(sessions)) {
        sim::ClusterEnv env(cluster(kExecutors));
        decima::workload::load(env, streams[s]);
        DirectScheduler direct(*agent, nullptr, nullptr);
        env.run(direct);
        want[s] = env.jcts();
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < sessions; ++t) {
      pool.emplace_back(reference, static_cast<std::size_t>(t));
    }
    reference(0);
    for (auto& t : pool) t.join();
  }
  for (const Rep& rep : warm) {
    check_rep(rep, want, "uncached greedy run", r);
  }
  const RoundFigures best = untraced.figures();

  if (!opt.trace) {
    double jct_sum = 0.0;
    std::size_t jobs = 0;
    for (const auto& w : want) {
      for (double j : w) jct_sum += j;
      jobs += w.size();
    }
    add_end_to_end(r, best, jct_sum / static_cast<double>(jobs), setup_s);
    return r;
  }

  // Traced half: obs metrics and spans on, extract_graphs timed beside
  // every decision.
  BestRound traced(kGroups);
  std::vector<double> extract_us;
  double self_total = 0.0;
  std::uint64_t nodes = 0, states = 0, cache_total = 0, cache_recomputed = 0;
  std::uint64_t batched = 0, batches = 0;
  {
    TracedPhase phase(output_dir() + "/serve_tpch_trace.json");
    repeat_rounds(rounds, kGroups, [&](int g) {
      Rep rep = run_rep(server, sessions, g, streams, features, true, false);
      check_rep(rep, warm_jcts, "warm-up", r);
      r.attempted += rep.decisions();
      for (const auto& s : rep.sessions) {
        self_total += s.run_s - s.callback_s;
        extract_us.insert(extract_us.end(), s.extract_us.begin(),
                          s.extract_us.end());
        nodes += s.nodes;
        states += s.extract_us.size();
        cache_total += s.cache.nodes_total;
        cache_recomputed += s.cache.nodes_recomputed;
        r.failed += s.not_ok;
      }
      batched += rep.after.decisions - rep.before.decisions;
      batches += rep.after.batches - rep.before.batches;
      traced.offer(g, rep.wall_s, static_cast<double>(rep.decisions()),
                   static_cast<double>(rep.events()), {});
    });
    auto& reg = decima::obs::Registry::instance();
    const auto& wait = reg.histogram(decima::obs::names::kServeQueueWaitUs);
    const auto& infer = reg.histogram(decima::obs::names::kServeBatchInferUs);
    r.add("serve.queue_wait_p50_us", wait.percentile(50.0), "us");
    r.add("serve.queue_wait_p99_us", wait.percentile(99.0), "us");
    r.add("serve.batch_infer_p50_us", infer.percentile(50.0), "us");
  }

  // core.decide_us: the same streams through DecimaAgent::decide with a
  // per-session cache, in process, no server.
  std::vector<double> decide_us;
  {
    const auto agent = decima::io::load_policy_agent(ckpt);
    for (const auto& stream : streams) {
      sim::ClusterEnv env(cluster(kExecutors));
      decima::workload::load(env, stream);
      decima::gnn::EmbeddingCache cache;
      DirectScheduler direct(*agent, &cache, &decide_us);
      env.run(direct);
    }
  }
  const double nodes_per_state =
      states ? static_cast<double>(nodes) / static_cast<double>(states) : 0.0;
  const KernelRates k =
      kernel_rates(static_cast<int>(nodes_per_state + 0.5), 0.05);
  const auto agent = decima::io::load_policy_agent(ckpt);

  double round_events = 0.0;
  for (const Rep& rep : warm) round_events += static_cast<double>(rep.events());
  r.add("sim.events", round_events, "count");
  // Per round: the traced phase ran `rounds` whole rounds.
  r.add("sim.self_s", self_total / rounds, "s");
  r.add("workload.gen_s", gen_s, "s");
  r.add("io.load_policy_s", load_s, "s");
  r.add("gnn.extract_us", median(extract_us), "us");
  r.add("gnn.nodes_per_state", nodes_per_state, "count");
  r.add("gnn.cache_node_reuse",
        cache_total ? 1.0 - static_cast<double>(cache_recomputed) /
                                static_cast<double>(cache_total)
                    : 0.0,
        "ratio");
  r.add("core.decide_us", median(decide_us), "us");
  r.add("serve.batch_size_mean",
        batches ? static_cast<double>(batched) / static_cast<double>(batches)
                : 0.0,
        "count");
  r.add("nn.matmul_gflops", k.matmul, "GFLOP/s");
  r.add("nn.matmul_transposed_acc_gflops", k.matmul_transposed_acc, "GFLOP/s");
  r.add("nn.transposed_matmul_acc_gflops", k.transposed_matmul_acc, "GFLOP/s");
  r.add("nn.adam_step_us", adam_step_us(agent->params(), 0.05), "us");
  r.add("trace.slowdown",
        traced.figures().decisions_per_s / best.decisions_per_s, "ratio");
  return r;
}

}  // namespace perfbench
