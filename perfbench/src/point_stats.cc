#include "point_stats.hh"

#include <cstdio>
#include <sstream>

namespace perfbench
{

PointStats
collectStats(const SystemView &v)
{
    PointStats s;
    s.cycles = v.now;
    s.finished = v.finished;
    s.appInstructions.assign(v.numApps, 0);
    s.numSms = v.sms.size();
    for (std::size_t i = 0; i < v.sms.size(); ++i) {
        const amsc::Sm &sm = *v.sms[i];
        s.appInstructions[v.smApp[i]] += sm.stats().instructions;
        s.instructions += sm.stats().instructions;
        s.issueStallCycles += sm.stats().issueStallCycles;
        s.l1Accesses += sm.l1().stats().accesses();
        s.l1Hits += sm.l1().stats().hits();
    }

    s.req = v.net->requestStats();
    s.rep = v.net->replyStats();
    s.routers = v.net->activity().routers.size();
    s.nocDrained = v.net->drained();

    s.llcAccesses = v.llc->totalAccesses();
    for (std::uint32_t i = 0; i < v.llc->numSlices(); ++i) {
        s.llcReads += v.llc->slice(i).stats().reads;
        s.llcReadMisses += v.llc->slice(i).stats().readMisses;
    }
    s.reconfigStallCycles = v.llc->stats().reconfigStallCycles;
    s.transitions = v.llc->stats().transitionsToPrivate +
        v.llc->stats().transitionsToShared;
    s.llcDrained = v.llc->drained();

    s.dramAccesses = v.mem->totalAccesses();
    const amsc::McStats mc = v.mem->aggregateStats();
    s.rowHits = mc.rowHits;
    s.rowMisses = mc.rowMisses;
    s.dramRejects = mc.queueFullRejects;
    s.memDrained = v.mem->drained();

    s.jumps = v.jumps;
    s.jumpedCycles = v.jumpedCycles;

    for (const amsc::WorkloadProgram *prog : v.programs) {
        const amsc::ServingStats *ss =
            prog ? prog->servingStats() : nullptr;
        if (!ss)
            continue;
        s.serving = true;
        s.requestsArrived += ss->requestsArrived;
        s.requestsCompleted += ss->requestsCompleted;
        s.batches += ss->batchesLaunched;
        s.batchOccupancySum += ss->batchOccupancySum;
        s.latencies.insert(s.latencies.end(), ss->latencies.begin(),
                           ss->latencies.end());
    }
    return s;
}

PointStats
statsOf(amsc::GpuSystem &gpu, const amsc::RunResult &r)
{
    SystemView v;
    v.now = gpu.now();
    v.finished = r.finishedWork;
    v.net = &gpu.network();
    v.mem = &gpu.memory();
    v.llc = &gpu.llc();
    for (amsc::SmId id = 0; id < gpu.numSms(); ++id) {
        v.sms.push_back(&gpu.sm(id));
        v.smApp.push_back(gpu.appOf(id));
    }
    v.numApps = gpu.config().numApps();
    for (AppId a = 0; a < v.numApps; ++a)
        v.programs.push_back(gpu.program(a));
    v.jumps = gpu.eventJumps();
    v.jumpedCycles = gpu.jumpedCycles();
    return collectStats(v);
}

namespace
{

bool
sameNet(const amsc::NetworkStats &a, const amsc::NetworkStats &b)
{
    return a.messagesInjected == b.messagesInjected &&
        a.messagesDelivered == b.messagesDelivered &&
        a.flitsDelivered == b.flitsDelivered &&
        a.totalLatency == b.totalLatency &&
        a.injectionStalls == b.injectionStalls;
}

/** FNV-1a over the request latencies, in completion order. */
std::uint64_t
latencyDigest(const std::vector<std::uint64_t> &lat)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t x : lat) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

} // namespace

std::vector<std::string>
diffStats(const PointStats &a, const PointStats &b)
{
    std::vector<std::string> d;
#define PERFBENCH_CMP(field)                                           \
    if (!(a.field == b.field))                                         \
        d.push_back(#field);
    PERFBENCH_CMP(cycles)
    PERFBENCH_CMP(finished)
    PERFBENCH_CMP(appInstructions)
    PERFBENCH_CMP(instructions)
    PERFBENCH_CMP(numSms)
    PERFBENCH_CMP(issueStallCycles)
    PERFBENCH_CMP(l1Accesses)
    PERFBENCH_CMP(l1Hits)
    PERFBENCH_CMP(routers)
    PERFBENCH_CMP(nocDrained)
    PERFBENCH_CMP(llcAccesses)
    PERFBENCH_CMP(llcReads)
    PERFBENCH_CMP(llcReadMisses)
    PERFBENCH_CMP(reconfigStallCycles)
    PERFBENCH_CMP(transitions)
    PERFBENCH_CMP(llcDrained)
    PERFBENCH_CMP(dramAccesses)
    PERFBENCH_CMP(rowHits)
    PERFBENCH_CMP(rowMisses)
    PERFBENCH_CMP(dramRejects)
    PERFBENCH_CMP(memDrained)
    PERFBENCH_CMP(jumps)
    PERFBENCH_CMP(jumpedCycles)
    PERFBENCH_CMP(serving)
    PERFBENCH_CMP(requestsArrived)
    PERFBENCH_CMP(requestsCompleted)
    PERFBENCH_CMP(batches)
    PERFBENCH_CMP(batchOccupancySum)
    PERFBENCH_CMP(latencies)
#undef PERFBENCH_CMP
    if (!sameNet(a.req, b.req))
        d.push_back("req");
    if (!sameNet(a.rep, b.rep))
        d.push_back("rep");
    return d;
}

std::vector<std::string>
checkPoint(const PointStats &s, const amsc::SimConfig &cfg)
{
    std::vector<std::string> bad;
    if (s.serving) {
        if (!s.finished)
            bad.push_back("serving point did not finish its requests");
        if (s.requestsCompleted != s.requestsArrived ||
            (cfg.servingRequests != 0 &&
             s.requestsCompleted != cfg.servingRequests))
            bad.push_back("serving point completed " +
                          std::to_string(s.requestsCompleted) + " of " +
                          std::to_string(s.requestsArrived) +
                          " requests");
    }
    if (s.finished && s.nocDrained && s.llcDrained && s.memDrained) {
        if (s.req.messagesInjected != s.req.messagesDelivered)
            bad.push_back("request network lost messages");
        if (s.rep.messagesInjected != s.rep.messagesDelivered)
            bad.push_back("reply network lost messages");
    }
    return bad;
}

std::string
fingerprintJson(const std::string &label, const PointStats &s)
{
    std::ostringstream os;
    os << "{\"label\": \"" << label << "\", \"cycles\": " << s.cycles
       << ", \"app_instructions\": [";
    for (std::size_t i = 0; i < s.appInstructions.size(); ++i)
        os << (i ? ", " : "") << s.appInstructions[i];
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      latencyDigest(s.latencies)));
    os << "], \"llc_accesses\": " << s.llcAccesses
       << ", \"llc_read_misses\": " << s.llcReadMisses
       << ", \"dram_accesses\": " << s.dramAccesses
       << ", \"noc_flits\": " << s.nocFlits()
       << ", \"requests\": " << s.latencies.size()
       << ", \"request_latency_digest\": \"" << digest << "\"}";
    return os.str();
}

} // namespace perfbench
