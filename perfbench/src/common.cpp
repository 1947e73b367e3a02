#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <sched.h>

#include "util/rng.h"
#include "workload/tpch.h"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
}

std::string Result::json() const {
  std::ostringstream o;
  o << std::setprecision(17);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    o << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

double median(std::vector<double> v) { return pct(std::move(v), 50.0); }

namespace {

// pct() of samples already sorted.
double sorted_pct(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace

double pct(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return sorted_pct(v, p);
}

int round_count(double seconds, double round_s) {
  return std::max(2, static_cast<int>(std::lround(seconds / round_s)));
}

void repeat_rounds(int rounds, int groups,
                   const std::function<void(int group)>& rep) {
  for (int i = 0; i < rounds; ++i) {
    for (int g = 0; g < groups; ++g) rep(g);
  }
}

bool BestRound::offer(int group, double wall_s, double decisions,
                      double events, std::vector<double> latencies_us) {
  Rep& b = best_.at(static_cast<std::size_t>(group));
  if (!b.seen) {
    b = {true, wall_s, decisions, events, std::move(latencies_us)};
    return true;
  }
  if (latencies_us.size() != b.latencies_us.size()) return false;
  for (std::size_t i = 0; i < latencies_us.size(); ++i) {
    b.latencies_us[i] = std::min(b.latencies_us[i], latencies_us[i]);
  }
  if (wall_s < b.wall_s) {
    b.wall_s = wall_s;
    b.decisions = decisions;
    b.events = events;
  }
  return true;
}

RoundFigures BestRound::figures() const {
  RoundFigures round;
  double decisions = 0.0, events = 0.0;
  std::vector<double> latencies;
  for (const Rep& b : best_) {
    round.wall_s += b.wall_s;
    decisions += b.decisions;
    events += b.events;
    latencies.insert(latencies.end(), b.latencies_us.begin(),
                     b.latencies_us.end());
  }
  round.decisions_per_s = decisions / round.wall_s;
  round.events_per_s = events / round.wall_s;
  std::sort(latencies.begin(), latencies.end());
  round.p50_us = sorted_pct(latencies, 50.0);
  round.p99_us = sorted_pct(latencies, 99.0);
  return round;
}

void add_end_to_end(Result& r, const RoundFigures& round, double policy_jct_s,
                    double setup_s) {
  r.add("decisions_per_s", round.decisions_per_s, "1/s");
  r.add("decide_p50_us", round.p50_us, "us");
  r.add("decide_p99_us", round.p99_us, "us");
  r.add("train_s", round.wall_s, "s");
  r.add("policy_avg_jct_s", policy_jct_s, "s");
  r.add("sim_events_per_s", round.events_per_s, "1/s");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

decima::sim::EnvConfig cluster(int executors) {
  decima::sim::EnvConfig c;
  c.num_executors = executors;
  return c;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::vector<decima::sim::JobSpec>> tpch_hands(std::uint64_t seed,
                                                         int per_size,
                                                         int count) {
  decima::Rng rng(seed);
  const int queries = decima::workload::kNumTpchQueries;
  const auto& sizes = decima::workload::tpch_sizes();
  std::vector<std::vector<int>> order;  // per size: a seeded query order
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<int> q(static_cast<std::size_t>(queries));
    for (int i = 0; i < queries; ++i) q[static_cast<std::size_t>(i)] = i + 1;
    rng.shuffle(q);
    order.push_back(std::move(q));
  }
  std::vector<std::vector<decima::sim::JobSpec>> hands;
  for (int h = 0; h < count; ++h) {
    std::vector<decima::sim::JobSpec> hand;
    for (int b = 0; b < per_size; ++b) {
      std::vector<std::size_t> block(sizes.size());
      for (std::size_t s = 0; s < block.size(); ++s) block[s] = s;
      rng.shuffle(block);
      for (std::size_t s : block) {
        const int q = order[s][static_cast<std::size_t>((h * per_size + b) %
                                                        queries)];
        hand.push_back(decima::workload::make_tpch_job(q, sizes[s]));
      }
    }
    hands.push_back(std::move(hand));
  }
  return hands;
}

std::vector<decima::workload::ArrivingJob> arrivals(
    std::vector<decima::sim::JobSpec> jobs, std::uint64_t seed,
    double mean_iat) {
  decima::Rng rng(seed);
  return decima::workload::continuous(std::move(jobs), rng, mean_iat);
}

int host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
    return;
  }
}

}  // namespace perfbench
