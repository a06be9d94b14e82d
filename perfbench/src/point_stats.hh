/**
 * @file
 * Simulated statistics of one benchmark point, read through the
 * layers' public accessors.
 *
 * The same extraction runs on a finished GpuSystem (the timed run)
 * and on the benchmark's traced driver, so comparing the two records
 * field by field is the traced driver's fidelity check. A subset of
 * the fields forms the point's fingerprint, which run.py compares
 * against the stored reference.
 */

#ifndef PERFBENCH_POINT_STATS_HH
#define PERFBENCH_POINT_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "llc/llc_system.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "sim/gpu_system.hh"
#include "workloads/program.hh"

namespace perfbench
{

using amsc::AppId;
using amsc::Cycle;

struct PointStats
{
    Cycle cycles = 0;
    bool finished = false;
    std::vector<std::uint64_t> appInstructions;
    std::uint64_t instructions = 0;

    // gpu (SMs, L1s)
    std::uint64_t numSms = 0;
    std::uint64_t issueStallCycles = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;

    // noc
    amsc::NetworkStats req{};
    amsc::NetworkStats rep{};
    std::uint64_t routers = 0;
    bool nocDrained = false;

    // llc
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcReads = 0;
    std::uint64_t llcReadMisses = 0;
    std::uint64_t reconfigStallCycles = 0;
    std::uint64_t transitions = 0;
    bool llcDrained = false;

    // mem
    std::uint64_t dramAccesses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t dramRejects = 0;
    bool memDrained = false;

    // sim (event-mode clock jumps)
    std::uint64_t jumps = 0;
    Cycle jumpedCycles = 0;

    // workloads (request-driver programs)
    bool serving = false;
    std::uint64_t requestsArrived = 0;
    std::uint64_t requestsCompleted = 0;
    std::uint64_t batches = 0;
    std::uint64_t batchOccupancySum = 0;
    std::vector<std::uint64_t> latencies;

    std::uint64_t nocFlits() const
    {
        return req.flitsDelivered + rep.flitsDelivered;
    }
};

/** The components of one simulated GPU, as the extraction reads them. */
struct SystemView
{
    Cycle now = 0;
    bool finished = false;
    const amsc::Network *net = nullptr;
    const amsc::MemorySystem *mem = nullptr;
    const amsc::LlcSystem *llc = nullptr;
    /** SMs in id order and the application each belongs to. */
    std::vector<const amsc::Sm *> sms;
    std::vector<AppId> smApp;
    std::uint32_t numApps = 1;
    std::vector<const amsc::WorkloadProgram *> programs;
    std::uint64_t jumps = 0;
    Cycle jumpedCycles = 0;
};

PointStats collectStats(const SystemView &v);

/** Statistics of @p gpu after run() returned @p r. */
PointStats statsOf(amsc::GpuSystem &gpu, const amsc::RunResult &r);

/** Names of the fields in which @p a and @p b differ (empty = equal). */
std::vector<std::string> diffStats(const PointStats &a,
                                   const PointStats &b);

/**
 * Correctness of one point on its own: a serving point completes
 * every request it admitted, and a drained run delivered every NoC
 * message it injected. Returns the violations (empty = correct).
 */
std::vector<std::string> checkPoint(const PointStats &s,
                                    const amsc::SimConfig &cfg);

/** The fingerprint of @p s as a JSON object (label included). */
std::string fingerprintJson(const std::string &label,
                            const PointStats &s);

} // namespace perfbench

#endif // PERFBENCH_POINT_STATS_HH
