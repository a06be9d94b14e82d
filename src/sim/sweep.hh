/**
 * @file
 * Multi-threaded sweep engine for configuration/workload grids.
 *
 * Every figure and ablation bench evaluates many independent
 * (SimConfig, workload) points; SweepRunner executes them on a
 * thread pool with deterministic, order-stable result collection:
 * point i's result lands in slot i no matter which thread ran it or
 * in what order the points finished, and every point builds its own
 * GpuSystem, so an N-thread sweep returns bit-identical results to a
 * sequential loop (tests/test_perf_invariance.cc).
 *
 * The engine is two-layered: parallelFor() runs arbitrary
 * independent jobs; run() adds the standard build-run-collect recipe
 * for simulation points (workload construction from WorkloadSpecs,
 * optional custom setup, optional post-run metric extraction).
 */

#ifndef AMSC_SIM_SWEEP_HH
#define AMSC_SIM_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/gpu_system.hh"
#include "workloads/suite.hh"

namespace amsc
{

/** One point of a sweep: a configuration plus its workload(s). */
struct SweepPoint
{
    SimConfig cfg;
    /**
     * Per-application workloads; app i receives
     * WorkloadSuite::buildKernels(apps[i], cfg.seed, i), except that
     * cfg.traceReplayPath replaces app 0's kernels with the trace and
     * cfg.traceRecordPath captures app 0's warp streams into that
     * file. Ignored when @ref setup is set (the trace keys are then
     * a ConfigError).
     */
    std::vector<WorkloadSpec> apps;
    /** Custom workload installation (overrides @ref apps). */
    std::function<void(GpuSystem &)> setup;
    /**
     * Runs after construction + workload installation, before
     * GpuSystem::run(): attach per-point observers (custom timeline
     * sinks, probes). The standard observability wiring needs no
     * hook -- runPoint() builds a TimelineRecorder whenever the
     * point's cfg enables the timeline/stats-stream keys.
     */
    std::function<void(GpuSystem &)> onBuilt;
    /**
     * Runs after GpuSystem::run() on the worker thread, with the
     * system still alive: extract extra metrics (profiler snapshots,
     * sharing buckets, cache contents) into the result or into
     * caller-owned per-point slots.
     */
    std::function<void(GpuSystem &, RunResult &)> post;
    /** Display label (bench tables, bench json=/csv= dumps). */
    std::string label;
};

/**
 * Extra controls for journaled / fault-tolerant sweeps.
 *
 * The plain run() overload is equivalent to default-constructed
 * options. With a skip mask, masked points are never executed and
 * their result slots stay default-constructed -- that is how a
 * resumed or sharded sweep re-runs only its missing points. The
 * onResult hook fires once per executed point, serialized with the
 * progress hook under one mutex, so a journal append needs no
 * locking of its own.
 */
struct SweepOptions
{
    /**
     * Per-point skip mask (size must equal the point count); nonzero
     * entries are not run. Null runs everything.
     */
    const std::vector<char> *skip = nullptr;
    /**
     * Called as onResult(index, result, error) after each executed
     * point. error is empty on success; it carries the SimError text
     * when the point's config says sweep_on_error=skip and the point
     * threw (the result is then default-constructed). Under the
     * default sweep_on_error=abort a throwing point aborts the whole
     * sweep instead -- identical to the pre-journal behaviour.
     */
    std::function<void(std::size_t, const RunResult &,
                       const std::string &)>
        onResult;
};

/** Deterministic thread-pool executor for sweeps. */
class SweepRunner
{
  public:
    /**
     * @param num_threads worker count; 0 picks defaultThreads().
     */
    explicit SweepRunner(unsigned num_threads = 0);

    /** Worker count this runner uses. */
    unsigned numThreads() const { return threads_; }

    /**
     * AMSC_SWEEP_THREADS if set, else the hardware concurrency
     * (at least 1).
     */
    static unsigned defaultThreads();

    /**
     * Execute fn(0) .. fn(n-1) across the worker threads. Jobs must
     * be mutually independent; each index runs exactly once. The
     * first exception thrown by any job is rethrown here after all
     * workers stop picking up new work.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn) const;

    /**
     * Run all points concurrently; result i corresponds to points[i].
     * Bit-identical to calling runPoint() in a sequential loop.
     *
     * @param progress optional completion hook, called as
     *        progress(done, total, index) after each point finishes,
     *        where index is the finished point's slot (labels, ETA
     *        heartbeats). Serialized (never concurrent with itself),
     *        but invoked from worker threads in completion -- not
     *        index -- order.
     */
    std::vector<RunResult>
    run(const std::vector<SweepPoint> &points,
        const std::function<void(std::size_t, std::size_t,
                                 std::size_t)> &progress = {}) const;

    /**
     * run() with @ref SweepOptions: skip mask and per-point result
     * hook. progress receives the *executed* point count as its
     * total (skipped points are not announced). Executed slots are
     * bit-identical to the plain overload's.
     */
    std::vector<RunResult>
    run(const std::vector<SweepPoint> &points,
        const SweepOptions &options,
        const std::function<void(std::size_t, std::size_t,
                                 std::size_t)> &progress = {}) const;

    /** Build, run and collect one point (the sequential reference). */
    static RunResult runPoint(const SweepPoint &point);

  private:
    unsigned threads_;
};

} // namespace amsc

#endif // AMSC_SIM_SWEEP_HH
