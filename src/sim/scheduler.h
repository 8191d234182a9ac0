// Simulated threads and their interleaving.
//
// A simulated thread (ThreadCtx) is a logical core executing a workload.
// It carries a local clock, a seeded RNG, and a bounded memory-level-
// parallelism (MLP) window: at most `mlp` memory accesses may be
// outstanding, which is what lets a single thread achieve bandwidth far
// above 64B/latency, and what makes latency-bound mode (mlp = 1, fence
// between accesses) distinct from bandwidth mode.
//
// The Scheduler interleaves threads conservatively: it always advances the
// thread with the earliest local clock by one workload step. Shared
// resources (sim::Resource) are therefore reserved in approximately global
// time order, which produces realistic queueing without a full event
// calendar.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/rng.h"
#include "sim/simtime.h"

namespace xp::sim {

class ThreadCtx;

// ---- Schedule-exploration hook points (src/schedmc) -----------------------
//
// Concurrency-relevant boundaries in the simulator and the stores above it
// announce themselves through the owning thread's SchedHook. With no hook
// installed (the default, and every production path) a sched point is one
// predictable branch; with a hook (the schedmc interleaver) it is a yield
// point where a controlled scheduler may suspend the calling logical
// thread and run others. Hooks never touch simulated clocks, so hooked
// and unhooked runs of the same interleaving are timing-identical.
enum class SchedPoint : unsigned char {
  kOpBegin,          // workload-level operation boundary
  kFence,            // sfence/mfence retirement (every durability edge)
  kBatchCommit,      // LineBatcher publish / batched log-append burst
  kCacheInvalidate,  // a store dropped DRAM read-cache lines
  kLockAcquire,      // SchedLock acquisition (before ownership)
  kLockRelease,      // SchedLock release (after ownership dropped)
  kLaneAcquire,      // tx undo-log lane / writer-lane admission taken
  kLaneRelease,      // tx lane retired / writer lane released
  kHandoff,          // group-commit leader/follower pending-buffer edge
};
inline constexpr unsigned kNumSchedPoints = 9;

inline const char* sched_point_name(SchedPoint p) {
  static constexpr const char* kNames[kNumSchedPoints] = {
      "op_begin",     "fence",        "batch_commit",
      "cache_invalidate", "lock_acquire", "lock_release",
      "lane_acquire", "lane_release", "handoff"};
  return kNames[static_cast<unsigned>(p)];
}

// Installed per-ThreadCtx by the schedmc interleaver. yield() may block
// the calling host thread until the explored schedule grants it the run
// token again; lock()/unlock() additionally implement blocking mutual
// exclusion keyed by an opaque lock identity (see SchedLock).
class SchedHook {
 public:
  virtual ~SchedHook() = default;
  virtual void yield(ThreadCtx& ctx, SchedPoint point) = 0;
  virtual void lock(ThreadCtx& ctx, const void* id) = 0;
  virtual void unlock(ThreadCtx& ctx, const void* id) = 0;
};

class ThreadCtx {
 public:
  struct Options {
    unsigned id = 0;
    unsigned socket = 0;      // NUMA node the thread is pinned to
    unsigned mlp = 10;        // max outstanding memory accesses
    std::uint64_t seed = 1;   // per-thread RNG stream
  };

  explicit ThreadCtx(const Options& opts)
      : id_(opts.id), socket_(opts.socket), mlp_(opts.mlp ? opts.mlp : 1),
        rng_(opts.seed * 0x9e3779b97f4a7c15ULL + opts.id + 1) {}

  unsigned id() const { return id_; }
  unsigned socket() const { return socket_; }
  unsigned mlp() const { return mlp_; }
  // Temporarily rewidth the MLP window (a sequential combined burst runs
  // at streaming parallelism even in a latency-bound thread; MlpScope
  // restores the previous width afterwards). A shrink leaves outstanding
  // completions in flight; begin_access retires them one per issue.
  void set_mlp(unsigned m) { mlp_ = m ? m : 1; }
  Rng& rng() { return rng_; }

  // Write-stream identity presented to the memory device. Defaults to the
  // thread id; software that funnels its stores through a bounded set of
  // writer lanes (paper §5.3: limit the writers per XP DIMM so its 4-entry
  // stream tracker stays hot) sets the lane id here for the duration of
  // the write, so the DIMM sees the lane, not the issuing thread.
  unsigned write_stream() const {
    return write_stream_ == kOwnStream ? id_ : write_stream_;
  }
  void set_write_stream(unsigned s) { write_stream_ = s; }
  void clear_write_stream() { write_stream_ = kOwnStream; }

  // Schedule-exploration hook (null on every production path). Announce a
  // concurrency-relevant boundary; a yield may run other logical threads
  // before returning but never changes this thread's simulated state.
  void set_sched_hook(SchedHook* h) { sched_hook_ = h; }
  SchedHook* sched_hook() const { return sched_hook_; }
  void sched_point(SchedPoint p) {
    if (sched_hook_) sched_hook_->yield(*this, p);
  }

  Time now() const { return now_; }
  void advance_to(Time t) {
    if (t > now_) now_ = t;
  }
  void advance_by(Time d) { now_ += d; }

  // --- MLP window -------------------------------------------------------
  // begin_access(): returns the time at which the next access may issue,
  // honoring the issue gap and the MLP window, and advances the clock to
  // that time. complete_access() registers the access's completion.
  Time begin_access(Time issue_gap) {
    Time t = now_ + issue_gap;
    if (inflight_.size() >= mlp_) {
      if (inflight_.front() > t) t = inflight_.front();
      inflight_.pop_front();
    }
    now_ = t;
    return t;
  }

  void complete_access(Time done) {
    // Completions are retired in order; a later access never unblocks the
    // window before an earlier one.
    if (!inflight_.empty() && done < inflight_.back()) done = inflight_.back();
    inflight_.push_back(done);
  }

  // Wait for every outstanding access (sfence/mfence semantics).
  void drain() {
    if (!inflight_.empty()) {
      advance_to(inflight_.back());
      inflight_.clear();
    }
  }

  bool has_inflight() const { return !inflight_.empty(); }

 private:
  static constexpr unsigned kOwnStream = ~0u;

  unsigned id_;
  unsigned socket_;
  unsigned mlp_;
  Rng rng_;
  Time now_ = 0;
  unsigned write_stream_ = kOwnStream;
  SchedHook* sched_hook_ = nullptr;
  std::deque<Time> inflight_;
};

// Widens the thread's MLP window to at least `mlp` for one sequential
// burst and restores the previous width when the scope ends, also when
// the burst throws (a poisoned line's hw::MediaError).
class MlpScope {
 public:
  MlpScope(ThreadCtx& ctx, unsigned mlp) : ctx_(ctx), saved_(ctx.mlp()) {
    ctx_.set_mlp(std::max(saved_, mlp));
  }
  ~MlpScope() { ctx_.set_mlp(saved_); }
  MlpScope(const MlpScope&) = delete;
  MlpScope& operator=(const MlpScope&) = delete;

 private:
  ThreadCtx& ctx_;
  unsigned saved_;
};

// A mutual-exclusion point visible to the schedule explorer: the lock a
// real concurrent implementation of the calling store would take. On
// production paths (no hook) threads are strictly serialized by
// construction, so lock() degenerates to owner bookkeeping plus an
// assert; under the schedmc interleaver it is a blocking acquire whose
// contention the explored schedule controls. Not recursive.
class SchedLock {
 public:
  void lock(ThreadCtx& ctx) {
    if (SchedHook* h = ctx.sched_hook()) {
      h->lock(ctx, this);
    } else {
      assert(owner_ == kFree && "SchedLock: uncontended by construction "
                                "without a schedule hook");
    }
    owner_ = ctx.id();
  }

  void unlock(ThreadCtx& ctx) {
    assert(owner_ == ctx.id());
    owner_ = kFree;
    if (SchedHook* h = ctx.sched_hook()) h->unlock(ctx, this);
  }

  bool held() const { return owner_ != kFree; }

 private:
  static constexpr unsigned kFree = ~0u;
  unsigned owner_ = kFree;
};

// Scoped SchedLock holder (exception-safe across CrashPointHit unwinds).
class SchedLockGuard {
 public:
  SchedLockGuard(SchedLock& l, ThreadCtx& ctx) : lock_(l), ctx_(ctx) {
    lock_.lock(ctx_);
  }
  // The release is a yield point under the schedmc interleaver, and an
  // aborting run delivers its AbortRun exception there (never while
  // another exception is already unwinding — the hook checks).
  ~SchedLockGuard() noexcept(false) { lock_.unlock(ctx_); }
  SchedLockGuard(const SchedLockGuard&) = delete;
  SchedLockGuard& operator=(const SchedLockGuard&) = delete;

 private:
  SchedLock& lock_;
  ThreadCtx& ctx_;
};

// A workload step: performs one application-level operation on the thread
// (one memory access for microbenchmarks; one file write / KV op for the
// macro benches) and returns false when the thread is finished.
using StepFn = std::function<bool(ThreadCtx&)>;

class Scheduler {
 public:
  // Creates a thread and registers its step function. Returns the context
  // (owned by the scheduler, valid until reset()). The callable is stored
  // in its concrete type and invoked through one raw function pointer —
  // stepping is the simulator's innermost loop, and std::function's
  // extra indirection is measurable there.
  template <typename F>
  ThreadCtx& spawn(const ThreadCtx::Options& opts, F step) {
    threads_.reserve(threads_.size() + 1);
    steps_.reserve(steps_.size() + 1);
    auto ctx = std::make_unique<ThreadCtx>(opts);
    StepState state(new F(std::move(step)),
                    [](void* p) { delete static_cast<F*>(p); });
    heap_.push(Entry{ctx.get(), state.get(),
                     [](void* p, ThreadCtx& c) {
                       return (*static_cast<F*>(p))(c);
                     }});
    // Capacity is reserved and unique_ptr moves are noexcept, so the heap
    // entry's pointers cannot be orphaned past this point.
    steps_.push_back(std::move(state));
    threads_.push_back(std::move(ctx));
    return *threads_.back();
  }

  // Run until all threads have finished.
  void run();

  // Run until every live thread's clock is >= deadline (threads may be
  // stepped slightly past it) or all threads finish.
  void run_until(Time deadline);

  // Earliest local time among live threads (0 when none).
  Time frontier() const;

  std::size_t live_threads() const { return heap_.size(); }

  void reset();

 private:
  struct Entry {
    ThreadCtx* ctx;
    void* state;
    bool (*invoke)(void*, ThreadCtx&);
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.ctx->now() != b.ctx->now()) return a.ctx->now() > b.ctx->now();
      return a.ctx->id() > b.ctx->id();
    }
  };

  using StepState = std::unique_ptr<void, void (*)(void*)>;

  std::vector<std::unique_ptr<ThreadCtx>> threads_;
  std::vector<StepState> steps_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

}  // namespace xp::sim
