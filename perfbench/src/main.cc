/**
 * @file
 * perfbench: one benchmark pass over a workload scenario.
 *
 *   perfbench timed  <file.scn> workers=N [key=value ...]
 *   perfbench traced <file.scn> workers=N [key=value ...]
 *   perfbench selftest <file.scn> point=LABEL [key=value ...]
 *
 * Extra key=value pairs override the scenario (seed=N, geometry).
 * `timed` loads and expands the scenario and runs every point through
 * SweepRunner on N workers, timing each point's construction and run.
 * `traced` does the same untimed-for-layers pass, then runs every
 * point again through the traced driver and checks that both give
 * the same simulated statistics. `selftest` runs one point both ways.
 * Each mode prints one JSON object on stdout; perfbench/run.py turns
 * them into the benchmark's metrics (see perfbench/README.md).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "point_stats.hh"
#include "scenario/scenario.hh"
#include "sim/sweep.hh"
#include "traced_system.hh"

namespace
{

using namespace perfbench;
using amsc::scenario::ExpandedPoint;
using amsc::scenario::Scenario;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

/** Run @p point's workload installation on @p gpu (runPoint's recipe). */
void
installInto(amsc::GpuSystem &gpu, const amsc::SweepPoint &point)
{
    if (point.setup) {
        point.setup(gpu);
        return;
    }
    for (AppId a = 0; a < static_cast<AppId>(point.apps.size()); ++a) {
        gpu.setWorkload(a, amsc::WorkloadSuite::buildKernels(
                               point.apps[a], point.cfg.seed, a));
    }
}

/** One untraced pass: every point through SweepRunner::runPoint. */
struct Pass
{
    std::vector<PointStats> stats;
    std::vector<std::string> errors;
    std::vector<double> pointWall; ///< construction + install + run
    std::vector<double> pointRun;  ///< GpuSystem::run() alone
    std::vector<double> construct; ///< construction + install
    double sweepWall = 0.0;
    // In-memory checkpoint()/restore() probe, summed over points.
    double ckptSave = 0.0;
    double ckptRestore = 0.0;
    double ckptBytes = 0.0;
};

Pass
runPass(const std::vector<ExpandedPoint> &points, unsigned workers,
        bool probe_ckpt)
{
    const std::size_t n = points.size();
    Pass p;
    p.stats.resize(n);
    p.errors.resize(n);
    p.pointWall.assign(n, 0.0);
    p.pointRun.assign(n, 0.0);
    p.construct.assign(n, 0.0);
    std::vector<double> save(n, 0.0), restore(n, 0.0), bytes(n, 0.0);

    const auto sweep_start = Clock::now();
    amsc::SweepRunner(workers).parallelFor(n, [&](std::size_t i) {
        amsc::SweepPoint sp = points[i].point;
        const auto start = Clock::now();
        Clock::time_point built = start;
        Clock::time_point ran = start;
        const auto on_built = sp.onBuilt;
        sp.onBuilt = [&built, on_built](amsc::GpuSystem &gpu) {
            if (on_built)
                on_built(gpu);
            built = Clock::now();
        };
        const auto post = sp.post;
        sp.post = [&, post](amsc::GpuSystem &gpu, amsc::RunResult &r) {
            ran = Clock::now();
            if (post)
                post(gpu, r);
            p.stats[i] = statsOf(gpu, r);
            if (!probe_ckpt)
                return;
            std::ostringstream os;
            const auto s0 = Clock::now();
            gpu.checkpoint(os);
            save[i] = secondsSince(s0);
            const std::string blob = os.str();
            bytes[i] = static_cast<double>(blob.size());
            amsc::GpuSystem fresh(points[i].point.cfg);
            installInto(fresh, points[i].point);
            std::istringstream is(blob);
            const auto r0 = Clock::now();
            fresh.restore(is);
            restore[i] = secondsSince(r0);
        };
        try {
            amsc::SweepRunner::runPoint(sp);
        } catch (const amsc::SimError &e) {
            p.errors[i] = e.what();
        }
        const auto end = Clock::now();
        using D = std::chrono::duration<double>;
        p.pointWall[i] = D(end - start).count();
        p.construct[i] = D(built - start).count();
        p.pointRun[i] = D(ran - built).count();
    });
    p.sweepWall = secondsSince(sweep_start);
    for (std::size_t i = 0; i < n; ++i) {
        p.ckptSave += save[i];
        p.ckptRestore += restore[i];
        p.ckptBytes += bytes[i];
    }
    return p;
}

struct Args
{
    std::string mode;
    std::string scn;
    unsigned workers = 1;
    std::string point; ///< selftest: label of the point to check
    std::vector<std::pair<std::string, std::string>> overrides;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 3)
        throw amsc::ConfigError(
            "usage: perfbench timed|traced|selftest <file.scn> "
            "[workers=N] [point=LABEL] [key=value ...]");
    Args a;
    a.mode = argv[1];
    a.scn = argv[2];
    for (int i = 3; i < argc; ++i) {
        const std::string kv = argv[i];
        const auto eq = kv.find('=');
        if (eq == std::string::npos)
            throw amsc::ConfigError("expected key=value, got '" + kv +
                                    "'");
        const std::string k = kv.substr(0, eq);
        const std::string v = kv.substr(eq + 1);
        if (k == "workers")
            a.workers = static_cast<unsigned>(std::stoul(v));
        else if (k == "point")
            a.point = v;
        else
            a.overrides.emplace_back(k, v);
    }
    return a;
}

std::vector<ExpandedPoint>
loadPoints(const Args &a)
{
    amsc::KvArgs kv = Scenario::parseScnFile(a.scn);
    for (const auto &[k, v] : a.overrides)
        Scenario::applyOverride(kv, k, v);
    return Scenario::fromKv(std::move(kv), a.scn).expand();
}

/** Per-point failures of a pass: SimError or a failed self-check. */
std::vector<std::string>
pointFailures(const std::vector<ExpandedPoint> &points, const Pass &p)
{
    std::vector<std::string> out(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!p.errors[i].empty()) {
            out[i] = p.errors[i];
            continue;
        }
        for (const std::string &why :
             checkPoint(p.stats[i], points[i].point.cfg))
            out[i] += (out[i].empty() ? "" : "; ") + why;
    }
    return out;
}

void
printFailures(std::ostream &os,
              const std::vector<ExpandedPoint> &points,
              const std::vector<std::string> &failures)
{
    os << "\"failures\": [";
    bool first = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (failures[i].empty())
            continue;
        os << (first ? "" : ", ") << "{\"label\": "
           << quoted(points[i].point.label)
           << ", \"why\": " << quoted(failures[i]) << "}";
        first = false;
    }
    os << "]";
}

void
printFingerprints(std::ostream &os,
                  const std::vector<ExpandedPoint> &points, const Pass &p)
{
    os << "\"fingerprints\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        os << (i ? ", " : "")
           << fingerprintJson(points[i].point.label, p.stats[i]);
    }
    os << "]";
}

/**
 * Peak resident set of this process image, KB. VmHWM belongs to the
 * address space exec() created; ru_maxrss would also carry the peak of
 * the forked parent image that exec() replaced.
 */
double
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    double kb = 0.0;
    while (status >> key) {
        if (key == "VmHWM:" && status >> kb)
            return kb;
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    throw amsc::SimError("no VmHWM in /proc/self/status");
}

int
timedMode(const Args &a)
{
    const auto t0 = Clock::now();
    const auto points = loadPoints(a);
    const double load_expand = secondsSince(t0);
    const Pass p = runPass(points, a.workers, false);
    const auto failures = pointFailures(points, p);

    double cycles = 0.0;
    for (const PointStats &s : p.stats)
        cycles += static_cast<double>(s.cycles);
    std::ostringstream os;
    os << "{\"mode\": \"timed\", \"points\": " << points.size() << ", ";
    printFailures(os, points, failures);
    os << ", \"load_expand_s\": " << num(load_expand)
       << ", \"construct_s\": " << numList(p.construct)
       << ", \"sweep_wall_s\": " << num(p.sweepWall)
       << ", \"point_wall_s\": " << numList(p.pointWall)
       << ", \"point_run_s\": " << numList(p.pointRun)
       << ", \"cycles\": " << num(cycles)
       << ", \"peak_rss_kb\": " << num(peakRssKb()) << ", ";
    printFingerprints(os, points, p);
    os << "}";
    std::cout << os.str() << std::endl;
    return 0;
}

/** Traced pass: every point through TracedSystem, one Trace each. */
struct TracedPass
{
    std::vector<Trace> traces;
    std::vector<PointStats> stats;
    std::vector<std::string> errors;
};

TracedPass
runTraced(const std::vector<ExpandedPoint> &points, unsigned workers)
{
    const std::size_t n = points.size();
    TracedPass t;
    t.traces.resize(n);
    t.stats.resize(n);
    t.errors.resize(n);
    amsc::SweepRunner(workers).parallelFor(n, [&](std::size_t i) {
        try {
            TracedSystem sys(points[i].point.cfg, t.traces[i]);
            sys.install(points[i].point);
            sys.run();
            t.stats[i] = sys.stats();
        } catch (const amsc::SimError &e) {
            t.errors[i] = e.what();
        }
    });
    return t;
}

/** Traced-vs-untraced mismatch of point @p i ("" = identical). */
std::string
fidelity(const Pass &p, const TracedPass &t, std::size_t i)
{
    if (!t.errors[i].empty())
        return "traced driver: " + t.errors[i];
    std::string out;
    for (const std::string &f : diffStats(p.stats[i], t.stats[i]))
        out += (out.empty() ? "" : ", ") + f;
    return out.empty() ? ""
                       : "traced driver differs from GpuSystem::run() "
                         "in: " + out;
}

double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

int
tracedMode(const Args &a)
{
    const auto t0 = Clock::now();
    const auto points = loadPoints(a);
    const double load_expand = secondsSince(t0);
    const Pass p = runPass(points, a.workers, true);
    const TracedPass tp = runTraced(points, a.workers);

    auto failures = pointFailures(points, p);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string f = p.errors[i].empty() ? fidelity(p, tp, i)
                                                  : "";
        if (!f.empty())
            failures[i] += (failures[i].empty() ? "" : "; ") + f;
    }

    Trace tr;
    for (const Trace &t : tp.traces)
        tr.add(t);
    PointStats sum;
    double sm_cycles = 0.0, router_cycles = 0.0, cycles = 0.0;
    double req_lat = 0.0, req_n = 0.0, rep_lat = 0.0, rep_n = 0.0;
    double flits = 0.0;
    for (const PointStats &s : p.stats) {
        const double c = static_cast<double>(s.cycles);
        cycles += c;
        sm_cycles += c * static_cast<double>(s.numSms);
        router_cycles += c * static_cast<double>(s.routers);
        req_lat += static_cast<double>(s.req.totalLatency);
        req_n += static_cast<double>(s.req.messagesDelivered);
        rep_lat += static_cast<double>(s.rep.totalLatency);
        rep_n += static_cast<double>(s.rep.messagesDelivered);
        sum.instructions += s.instructions;
        sum.issueStallCycles += s.issueStallCycles;
        sum.l1Accesses += s.l1Accesses;
        sum.l1Hits += s.l1Hits;
        flits += static_cast<double>(s.nocFlits());
        sum.llcAccesses += s.llcAccesses;
        sum.llcReads += s.llcReads;
        sum.llcReadMisses += s.llcReadMisses;
        sum.reconfigStallCycles += s.reconfigStallCycles;
        sum.transitions += s.transitions;
        sum.dramAccesses += s.dramAccesses;
        sum.rowHits += s.rowHits;
        sum.rowMisses += s.rowMisses;
        sum.dramRejects += s.dramRejects;
        sum.jumps += s.jumps;
        sum.jumpedCycles += s.jumpedCycles;
        sum.requestsCompleted += s.requestsCompleted;
        sum.batches += s.batches;
        sum.batchOccupancySum += s.batchOccupancySum;
    }
    double run_sum = 0.0, wall_max = 0.0, wall_sum = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        run_sum += p.pointRun[i];
        wall_sum += p.pointWall[i];
        wall_max = std::max(wall_max, p.pointWall[i]);
    }

    const auto s = [&tr](Span x) {
        return static_cast<double>(tr.at(x)) * 1e-9;
    };
    const double wall = static_cast<double>(tr.wallNs) * 1e-9;
    const double gpu = s(Span::SmLoop) + s(Span::OnReply) +
        s(Span::SmLaunch);
    const double noc = s(Span::NetTick) - s(Span::OnReply);
    const double llc = s(Span::LlcTick) + s(Span::OnDramReply) +
        s(Span::LlcLaunch);
    const double mem = s(Span::MemTick) - s(Span::OnDramReply);
    const double adv = s(Span::AdvSm) + s(Span::AdvMem) +
        s(Span::AdvNet) + s(Span::AdvLlc);
    const double next_kernel = s(Span::NextKernel);
    const double manage = s(Span::Manage) - next_kernel -
        s(Span::SmLaunch) - s(Span::LlcLaunch);
    const double top = s(Span::LlcTick) + s(Span::MemTick) +
        s(Span::NetTick) + s(Span::SmLoop) + adv + s(Span::Manage);
    const double drive_self = wall - top;
    const double ticks = static_cast<double>(tr.ticks);
    const double llc_acc = static_cast<double>(sum.llcAccesses);
    const double dram = static_cast<double>(sum.dramAccesses);
    const double rejects = static_cast<double>(sum.dramRejects);

    const std::vector<std::pair<const char *, double>> layers = {
        {"gpu.self_s", gpu},
        {"gpu.share", ratio(gpu, wall)},
        {"gpu.on_reply_s", s(Span::OnReply)},
        {"gpu.ns_per_instr",
         ratio(gpu * 1e9, static_cast<double>(sum.instructions))},
        {"gpu.instructions", static_cast<double>(sum.instructions)},
        {"gpu.sm_issue_tick_share",
         ratio(static_cast<double>(tr.smIssueTicks),
               ticks * static_cast<double>(p.stats[0].numSms))},
        {"gpu.issue_stall_share",
         ratio(static_cast<double>(sum.issueStallCycles), sm_cycles)},
        {"gpu.l1_hit_rate",
         ratio(static_cast<double>(sum.l1Hits),
               static_cast<double>(sum.l1Accesses))},
        {"noc.self_s", noc},
        {"noc.share", ratio(noc, wall)},
        {"noc.ns_per_flit", ratio(noc * 1e9, flits)},
        {"noc.flits", flits},
        {"noc.flits_per_router_cycle", ratio(flits, router_cycles)},
        {"noc.busy_cycle_share",
         ratio(static_cast<double>(tr.nocBusyTicks), ticks)},
        {"noc.req_latency_cycles", ratio(req_lat, req_n)},
        {"noc.rep_latency_cycles", ratio(rep_lat, rep_n)},
        {"llc.self_s", llc},
        {"llc.share", ratio(llc, wall)},
        {"llc.on_dram_reply_s", s(Span::OnDramReply)},
        {"llc.ns_per_access", ratio(llc * 1e9, llc_acc)},
        {"llc.accesses", llc_acc},
        {"llc.read_miss_rate",
         ratio(static_cast<double>(sum.llcReadMisses),
               static_cast<double>(sum.llcReads))},
        {"llc.busy_cycle_share",
         ratio(static_cast<double>(tr.llcBusyTicks), ticks)},
        {"llc.reconfig_stall_cycles",
         static_cast<double>(sum.reconfigStallCycles)},
        {"llc.transitions", static_cast<double>(sum.transitions)},
        {"mem.self_s", mem},
        {"mem.share", ratio(mem, wall)},
        {"mem.ns_per_access", ratio(mem * 1e9, dram)},
        {"mem.accesses", dram},
        {"mem.row_hit_rate",
         ratio(static_cast<double>(sum.rowHits),
               static_cast<double>(sum.rowHits + sum.rowMisses))},
        {"mem.reject_share", ratio(rejects, dram + rejects)},
        {"mem.busy_cycle_share",
         ratio(static_cast<double>(tr.memBusyTicks), ticks)},
        {"sim.share", ratio(drive_self + manage + adv + next_kernel, wall)},
        {"sim.drive_self_s", drive_self},
        {"sim.manage_s", manage},
        {"sim.adv_s", adv},
        {"sim.adv_calls", static_cast<double>(tr.advCalls)},
        {"sim.jumps", static_cast<double>(sum.jumps)},
        {"sim.jumped_cycle_share",
         ratio(static_cast<double>(sum.jumpedCycles), cycles)},
        {"sim.trace_overhead_pct", 100.0 * ratio(wall - run_sum, run_sum)},
        {"sim.sweep_efficiency",
         ratio(wall_sum, static_cast<double>(a.workers) * p.sweepWall)},
        {"sim.point_wall_max_s", wall_max},
        {"sim.ckpt_save_s", p.ckptSave},
        {"sim.ckpt_restore_s", p.ckptRestore},
        {"sim.ckpt_bytes", p.ckptBytes},
        {"workloads.next_kernel_s", next_kernel},
        {"workloads.kernels", static_cast<double>(tr.kernels)},
        {"workloads.requests_completed",
         static_cast<double>(sum.requestsCompleted)},
        {"workloads.batch_occupancy",
         ratio(static_cast<double>(sum.batchOccupancySum),
               static_cast<double>(sum.batches))},
        {"scenario.load_expand_s", load_expand},
    };

    std::ostringstream os;
    os << "{\"mode\": \"traced\", \"points\": " << points.size() << ", ";
    printFailures(os, points, failures);
    os << ", \"traced_wall_s\": " << num(wall)
       << ", \"untraced_run_s\": " << num(run_sum) << ", ";
    printFingerprints(os, points, p);
    os << ", \"layers\": {";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        os << (i ? ", " : "") << quoted(layers[i].first) << ": "
           << num(layers[i].second);
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}

int
selftestMode(const Args &a)
{
    auto points = loadPoints(a);
    std::vector<ExpandedPoint> one;
    for (ExpandedPoint &ep : points) {
        if (ep.point.label == a.point)
            one.push_back(std::move(ep));
    }
    if (one.size() != 1)
        throw amsc::ConfigError("selftest: no single point labelled '" +
                                a.point + "' in " + a.scn);
    const Pass p = runPass(one, 1, false);
    const TracedPass tp = runTraced(one, 1);
    const std::string why =
        p.errors[0].empty() ? fidelity(p, tp, 0) : p.errors[0];
    std::cout << "{\"mode\": \"selftest\", \"point\": "
              << quoted(a.point) << ", \"cycles\": " << p.stats[0].cycles
              << ", \"jumps\": " << p.stats[0].jumps
              << ", \"transitions\": " << p.stats[0].transitions
              << ", \"identical\": " << (why.empty() ? "true" : "false")
              << ", \"why\": " << quoted(why) << "}" << std::endl;
    return why.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        if (a.mode == "timed")
            return timedMode(a);
        if (a.mode == "traced")
            return tracedMode(a);
        if (a.mode == "selftest")
            return selftestMode(a);
        throw amsc::ConfigError("unknown mode '" + a.mode + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << std::endl;
        return 2;
    }
}
