#include "schedmc/explorer.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>

#include "crashmc/explorer.h"
#include "xpsim/platform.h"

namespace xp::schedmc {

namespace {

// PCT: base preemption depth (cycled up by 0-3 per schedule) and the
// expected decisions per run, capped by the serial baseline's count.
constexpr unsigned kPctDepth = 3;
constexpr std::uint64_t kPctHorizon = 256;
// DFS: max preemptions per schedule, and branching only in the first N
// decisions of a run.
constexpr unsigned kDfsPreemptionBound = 2;
constexpr std::size_t kDfsBranchHorizon = 96;

// Preemptions in a decision sequence: decision k preempts when it picks
// a different thread than k-1 while k-1's thread was still runnable.
std::uint64_t count_preemptions(
    const std::vector<unsigned>& seq,
    const std::vector<std::vector<unsigned>>& runnable_at) {
  std::uint64_t n = 0;
  for (std::size_t k = 1; k < seq.size() && k < runnable_at.size(); ++k) {
    if (seq[k] != seq[k - 1] &&
        std::find(runnable_at[k].begin(), runnable_at[k].end(),
                  seq[k - 1]) != runnable_at[k].end())
      ++n;
  }
  return n;
}

struct Driver {
  Target& target;
  const Options& opts;
  Result& res;
  std::set<std::uint64_t> signatures;

  Interleaver::Options il_opts() {
    Interleaver::Options io;
    io.platform = &target.platform();
    io.sink = opts.sink;
    io.record_runnable = kDfsBranchHorizon;
    return io;
  }

  // Run one live schedule and check its history. Returns the run record.
  Interleaver::RunResult run_live(SchedulePolicy& policy,
                                  std::uint64_t schedule_seed) {
    target.reset();
    Interleaver il;
    const std::vector<ThreadSpec> specs = target.specs();
    const Interleaver::RunResult rr = il.run(specs, policy, il_opts());
    ++res.schedules_run;
    signatures.insert(rr.signature);
    check_live(rr, schedule_seed);
    return rr;
  }

  void check_live(const Interleaver::RunResult& rr,
                  std::uint64_t schedule_seed) {
    if (!rr.error.empty()) {
      res.violations.push_back({target.name(), "error", schedule_seed,
                                rr.signature, 0, rr.error});
      return;
    }
    if (rr.deadlocked) {
      ++res.deadlocks;
      res.violations.push_back({target.name(), "deadlock", schedule_seed,
                                rr.signature, 0,
                                "all live threads blocked on SchedLocks"});
      return;
    }
    const std::map<std::string, std::string> state = target.live_state();
    const std::map<std::string, std::string> init = target.initial_state();
    const CheckResult cr =
        check_history(target.history().ops(), &state, false, &init);
    ++res.histories_checked;
    res.checker_states += cr.states_explored;
    if (!cr.ok)
      res.violations.push_back({target.name(), "linearizability",
                                schedule_seed, rr.signature, 0, cr.detail});
  }

  bool stop() const { return !opts.keep_going && !res.violations.empty(); }

  // Phase 3 helper: crash-sweep one recorded schedule.
  void crash_sweep(const std::vector<unsigned>& trace,
                   std::uint64_t schedule_seed) {
    // Baseline replay counts this schedule's persist events (each
    // interleaving flushes differently, so the event total is per
    // schedule, not per workload).
    target.reset();
    // crash_after(n) counts persist events from arming, which happens
    // after reset(); setup traffic inside reset() must not shift the
    // sweep, so count only the events the run itself produced.
    const std::uint64_t setup_events = target.platform().persist_events();
    Interleaver il0;
    ReplayPolicy base(trace);
    const Interleaver::RunResult rr0 =
        il0.run(target.specs(), base, il_opts());
    if (!rr0.error.empty() || rr0.deadlocked) return;  // phase 1 reported it
    const std::uint64_t total =
        target.platform().persist_events() - setup_events;
    const std::uint64_t sig = rr0.signature;

    for (const std::uint64_t k : crashmc::choose_points(
             total, opts.crash_max_exhaustive, opts.crash_points_per_schedule,
             opts.seed + schedule_seed)) {
      target.reset();
      target.platform().crash_after(k);
      Interleaver il;
      ReplayPolicy replay(trace);
      const Interleaver::RunResult rr =
          il.run(target.specs(), replay, il_opts());
      ++res.crash_runs;
      const bool crashed = target.platform().crash_fired();
      target.platform().clear_crash_trigger();
      target.platform().reset_timing();
      if (!rr.error.empty()) {
        res.violations.push_back({target.name(), "error", schedule_seed, sig,
                                  k, rr.error});
        if (stop()) return;
        continue;
      }
      std::map<std::string, std::string> recovered;
      std::string err;
      if (!target.recover(&recovered, &err)) {
        res.violations.push_back({target.name(), "recovery", schedule_seed,
                                  sig, k, err});
        if (stop()) return;
        continue;
      }
      ++res.recoveries_checked;
      const std::map<std::string, std::string> init = target.initial_state();
      // Crash-mode check even if the trigger never fired (k past the end):
      // a clean image must still match a durable linearization.
      (void)crashed;
      const CheckResult cr =
          check_history(target.history().ops(), &recovered, true, &init);
      ++res.histories_checked;
      res.checker_states += cr.states_explored;
      if (!cr.ok) {
        res.violations.push_back({target.name(), "linearizability",
                                  schedule_seed, sig, k, cr.detail});
        if (stop()) return;
      }
    }
  }
};

}  // namespace

Result explore(Target& target, const Options& opts) {
  Result res;
  const auto t0 = std::chrono::steady_clock::now();
  Driver d{target, opts, res, {}};

  // ---- Phase 1: PCT ------------------------------------------------------
  // Serial baseline first: it is a real schedule (counted and checked)
  // and its decision count calibrates the PCT horizon — change points
  // drawn past the end of the run never fire, so an oversized horizon
  // collapses schedules onto the few base priority orders.
  std::vector<std::vector<unsigned>> crash_traces;
  std::uint64_t horizon = kPctHorizon;
  {
    ReplayPolicy serial({});
    const Interleaver::RunResult rr = d.run_live(serial, opts.seed);
    if (rr.error.empty() && !rr.deadlocked && rr.decisions > 8)
      horizon = std::min<std::uint64_t>(horizon, rr.decisions);
    if (crash_traces.size() < opts.crash_schedules)
      crash_traces.push_back(rr.trace);
  }
  for (unsigned s = 0; s < opts.pct_schedules && !d.stop(); ++s) {
    target.reset();
    const std::size_t nthreads = target.specs().size();
    // Cycle the preemption depth: deeper schedules distinguish runs the
    // base priority orders cannot.
    const unsigned depth = kPctDepth + s % 4;
    PctPolicy policy(opts.seed + s, static_cast<unsigned>(nthreads), depth,
                     horizon);
    const Interleaver::RunResult rr = d.run_live(policy, opts.seed + s);
    if (crash_traces.size() < opts.crash_schedules)
      crash_traces.push_back(rr.trace);
  }

  // ---- Phase 2: preemption-bounded DFS -----------------------------------
  if (opts.dfs_schedules > 0 && !d.stop()) {
    std::deque<std::vector<unsigned>> frontier;
    frontier.push_back({});  // empty prefix = non-preemptive baseline
    std::uint64_t budget = opts.dfs_schedules;
    while (!frontier.empty() && budget > 0 && !d.stop()) {
      const std::vector<unsigned> prefix = std::move(frontier.front());
      frontier.pop_front();
      --budget;
      ReplayPolicy policy(prefix);
      const Interleaver::RunResult rr = d.run_live(policy, 0);
      // Branch at decisions >= |prefix| (earlier branches were enumerated
      // by this run's ancestors), inside the recorded horizon.
      const std::size_t lim =
          std::min(rr.runnable_at.size(), kDfsBranchHorizon);
      for (std::size_t i = prefix.size(); i < lim; ++i) {
        for (const unsigned alt : rr.runnable_at[i]) {
          if (alt == rr.trace[i]) continue;
          std::vector<unsigned> child(rr.trace.begin(),
                                      rr.trace.begin() +
                                          static_cast<std::ptrdiff_t>(i));
          child.push_back(alt);
          if (count_preemptions(child, rr.runnable_at) <=
              kDfsPreemptionBound)
            frontier.push_back(std::move(child));
        }
      }
    }
  }

  // ---- Phase 3: crash composition ----------------------------------------
  for (std::size_t k = 0; k < crash_traces.size() && !d.stop(); ++k)
    d.crash_sweep(crash_traces[k], opts.seed + k);

  res.distinct_schedules = d.signatures.size();
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

std::string summarize(const Result& r) {
  std::string out = "schedules=" + std::to_string(r.schedules_run) +
                    " distinct=" + std::to_string(r.distinct_schedules) +
                    " crash_runs=" + std::to_string(r.crash_runs) +
                    " recoveries=" + std::to_string(r.recoveries_checked) +
                    " histories=" + std::to_string(r.histories_checked) +
                    " checker_states=" + std::to_string(r.checker_states) +
                    " violations=" + std::to_string(r.violations.size());
  for (const Violation& v : r.violations) {
    out += "\n[" + v.target + "] " + v.kind + " seed=" +
           std::to_string(v.schedule_seed) + " sig=" +
           std::to_string(v.signature) + " crash_point=" +
           std::to_string(v.crash_point) + "\n" + v.detail;
  }
  return out;
}

}  // namespace xp::schedmc
