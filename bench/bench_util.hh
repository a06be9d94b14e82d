/**
 * @file
 * Shared helpers of the bench programs that a scenario cannot state:
 * Fig 15 (its STP divides by a second grid), the Table 1/2 printers,
 * the line-size and profiler ablations and the bench harness. Every
 * other experiment is a `.scn` scenario run by `amsc`.
 *
 * Every bench accepts SimConfig key=value overrides plus:
 *   max_cycles=N   simulated cycles per run (default 60000)
 *   quick=1        quarter-length runs for smoke testing
 *   threads=N      sweep worker threads (default: all cores, or
 *                  AMSC_SWEEP_THREADS)
 *
 * Benches build their whole grid as SweepPoints, run it on the
 * SweepRunner thread pool and print markdown tables from the
 * order-stable results, bit-identical at any thread count.
 */

#ifndef AMSC_BENCH_BENCH_UTIL_HH
#define AMSC_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/kvargs.hh"
#include "scenario/emit.hh"
#include "sim/gpu_system.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

namespace amsc::bench
{

/** Baseline bench configuration: Table 1 at reduced runtime. */
inline SimConfig
benchConfig(const KvArgs &args)
{
    SimConfig cfg;
    // Scaled run lengths: the profiling window and epoch shrink
    // together with the simulated horizon (paper: 50 K / 1 M at 1 B
    // instructions).
    cfg.maxCycles = 60000;
    cfg.profileLen = 5000;
    cfg.epochLen = 50000;
    cfg.applyKv(args);
    if (args.getBool("quick", false)) {
        cfg.maxCycles /= 4;
        cfg.profileLen /= 4;
    }
    return cfg;
}

/** Sweep executor honouring the bench-level `threads=N` override. */
inline SweepRunner
benchRunner(const KvArgs &args)
{
    return SweepRunner(
        static_cast<unsigned>(args.getUint("threads", 0)));
}

/**
 * Run the whole grid and additionally honour `json=FILE` / `csv=FILE`
 * overrides: every bench can dump its raw per-point metrics in the
 * scenario emitters' stable column format next to its table output.
 */
inline std::vector<RunResult>
runAndEmit(const KvArgs &args, const SweepRunner &runner,
           const std::vector<SweepPoint> &points)
{
    std::vector<RunResult> results = runner.run(points);
    std::vector<scenario::EmitPoint> labels;
    for (const SweepPoint &p : points)
        labels.push_back({p.label, {}});
    const std::string json = args.getString("json", "");
    const std::string csv = args.getString("csv", "");
    if (!json.empty())
        scenario::writeOut(scenario::emitJson("bench", labels, results),
                           json);
    if (!csv.empty())
        scenario::writeOut(scenario::emitCsv(labels, results), csv);
    return results;
}

/** Sweep point: one workload under one LLC policy. */
inline SweepPoint
policyPoint(SimConfig cfg, const WorkloadSpec &spec, LlcPolicy policy)
{
    cfg.llcPolicy = policy;
    SweepPoint p;
    p.label = spec.abbr + "/" + llcPolicyName(policy);
    p.cfg = std::move(cfg);
    p.apps = {spec};
    return p;
}

/** Append shared, private and adaptive points for @p spec. */
inline void
pushPolicyTriple(std::vector<SweepPoint> &points, const SimConfig &cfg,
                 const WorkloadSpec &spec)
{
    for (const LlcPolicy policy : {LlcPolicy::ForceShared,
                                   LlcPolicy::ForcePrivate,
                                   LlcPolicy::Adaptive})
        points.push_back(policyPoint(cfg, spec, policy));
}

/** Run one workload under one LLC policy (single-point shorthand). */
inline RunResult
runWorkload(SimConfig cfg, const WorkloadSpec &spec, LlcPolicy policy)
{
    return SweepRunner::runPoint(
        policyPoint(std::move(cfg), spec, policy));
}

/** Print a markdown table separator row of @p cols columns. */
inline void
printRule(int cols)
{
    for (int i = 0; i < cols; ++i)
        std::printf("|---");
    std::printf("|\n");
}

} // namespace amsc::bench

#endif // AMSC_BENCH_BENCH_UTIL_HH
