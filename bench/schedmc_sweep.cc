// Schedule-exploration sweep over every persistent store.
//
// For each store family the schedmc explorer runs PCT random-priority
// schedules plus a preemption-bounded DFS pass, checks every history
// against the linearizability oracle, and optionally composes crashes
// with interleavings (a crash at any (schedule, persist-event) pair must
// recover to a linearizable prefix). Reports schedules explored per
// second and checker search throughput; exits non-zero on any
// linearizability, deadlock, or recovery violation.
//
// Usage: schedmc_sweep [--schedules N] [--dfs N] [--crash N] [--seed S]
//                      [--store NAME] [--fault]
// --store also reaches the rows outside the default panel
// (schedmc::extra_targets: sharded-lsmkv).
// --fault seeds TestFault::kElideRmwLock and inverts the exit contract:
// every row it seeds must report a violation. Rows without an increment
// seed nothing and are skipped; naming one with --store is a usage error
// (exit 2).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/schedmc/explorer.h"
#include "src/schedmc/targets.h"

int main(int argc, char** argv) {
  using namespace xp;

  schedmc::Options opts;
  opts.pct_schedules = 200;
  opts.dfs_schedules = 64;
  opts.crash_schedules = 2;
  opts.keep_going = true;
  schedmc::TargetOptions topts;
  std::string only;

  for (int i = 1; i < argc; ++i) {
    const auto num = [&](const char* flag) -> long {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
        return std::atol(argv[++i]);
      return -1;
    };
    if (long v = num("--schedules"); v >= 0)
      opts.pct_schedules = static_cast<unsigned>(v);
    else if (long v2 = num("--dfs"); v2 >= 0)
      opts.dfs_schedules = static_cast<unsigned>(v2);
    else if (long v3 = num("--crash"); v3 >= 0)
      opts.crash_schedules = static_cast<unsigned>(v3);
    else if (long v4 = num("--seed"); v4 >= 0)
      opts.seed = static_cast<std::uint64_t>(v4);
    else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc)
      only = argv[++i];
    else if (std::strcmp(argv[i], "--fault") == 0)
      topts.fault = schedmc::TestFault::kElideRmwLock;
  }

  benchutil::banner("schedmc", "Schedule exploration x linearizability");
  benchutil::row("%-10s %10s %9s %10s %10s %12s %10s %6s", "store",
                 "schedules", "distinct", "crash_runs", "histories",
                 "chk_states", "sched/s", "viol");

  // The default panel; a named store may also be one of the extra rows.
  auto targets = schedmc::all_targets(topts);
  if (!only.empty())
    for (auto& t : schedmc::extra_targets(topts))
      targets.push_back(std::move(t));
  const bool fault = topts.fault != schedmc::TestFault::kNone;

  bool failed = false;
  unsigned ran = 0;
  unsigned caught = 0;
  for (auto& target : targets) {
    if (!only.empty() && only != target->name()) continue;
    if (fault && !target->fault_seeded()) {
      if (!only.empty()) {
        std::fprintf(stderr,
                     "schedmc_sweep: no seeded fault for this row: %s\n",
                     only.c_str());
        return 2;
      }
      benchutil::note("%s: no seeded fault for this row, skipped",
                      target->name());
      continue;
    }
    const schedmc::Result r = schedmc::explore(*target, opts);
    ++ran;
    caught += r.ok() ? 0 : 1;
    benchutil::row(
        "%-10s %10llu %9llu %10llu %10llu %12llu %10.0f %6zu",
        target->name(), static_cast<unsigned long long>(r.schedules_run),
        static_cast<unsigned long long>(r.distinct_schedules),
        static_cast<unsigned long long>(r.crash_runs),
        static_cast<unsigned long long>(r.histories_checked),
        static_cast<unsigned long long>(r.checker_states),
        r.seconds > 0 ? (r.schedules_run + r.crash_runs) / r.seconds : 0.0,
        r.violations.size());
    if (!r.ok()) {
      failed = true;
      std::printf("%s\n", schedmc::summarize(r).c_str());
    }
  }
  if (fault) {
    // --fault inverts the exit contract: the seeded regression must be
    // caught on every row it seeds.
    const bool missed = ran == 0 || caught != ran;
    benchutil::note("seeded fault %s", missed ? "MISSED" : "caught");
    return missed ? 1 : 0;
  }
  return failed ? 1 : 0;
}
