/**
 * @file
 * Warp-trace capture & replay tool.
 *
 * Subcommands (first positional argument):
 *
 *   record  run a workload, capturing every warp stream to a trace
 *           trace_tool record trace=an.trc workload=AN [key=value...]
 *           trace_tool record trace=z.trc pattern=zipf shared_mb=4 ...
 *   info    print a trace's manifest and embedded run summary
 *           trace_tool info trace=an.trc
 *   replay  re-run a trace under a (matching) configuration
 *           trace_tool replay trace=an.trc [key=value...]
 *   verify  record, then replay, and assert bit-identical RunResult
 *           trace_tool verify trace=an.trc workload=AN [key=value...]
 *
 * Every run is one SweepRunner::runPoint() with the trace_record or
 * trace_replay key set, exactly as `amsc run ... trace_record=f.trc`
 * runs it. A replayed run reproduces the recorded run's metrics
 * exactly provided the SimConfig matches the recording; `verify`
 * automates that check in one process and exits non-zero on any
 * drift.
 */

#include <cstdio>
#include <string>

#include "common/error.hh"
#include "common/kvargs.hh"
#include "sim/sweep.hh"
#include "trace/trace_reader.hh"
#include "workloads/suite.hh"

using namespace amsc;

namespace
{

/**
 * The app the command line describes: a Table-2 benchmark
 * (`workload=AN`) or an inline synthetic pattern (`pattern=zipf
 * shared_mb=4 ...`).
 */
WorkloadSpec
workloadFromArgs(const KvArgs &args)
{
    if (args.has("workload")) {
        const WorkloadSpec &spec =
            WorkloadSuite::byName(args.getString("workload", "AN"));
        std::printf("workload: %s (%s), %.3f MB shared, class %s\n",
                    spec.abbr.c_str(), spec.fullName.c_str(),
                    spec.sharedMb,
                    workloadClassName(spec.klass).c_str());
        return spec;
    }
    WorkloadSpec spec;
    TraceParams &t = spec.trace;
    const std::string pattern =
        args.getString("pattern", "broadcast");
    if (pattern == "broadcast")
        t.pattern = AccessPattern::Broadcast;
    else if (pattern == "zipf")
        t.pattern = AccessPattern::ZipfShared;
    else if (pattern == "tiled")
        t.pattern = AccessPattern::TiledShared;
    else if (pattern == "stream")
        t.pattern = AccessPattern::PrivateStream;
    else
        fatal("unknown pattern '%s'", pattern.c_str());
    t.sharedLines = static_cast<std::uint64_t>(
        args.getDouble("shared_mb", 1.0) * 8192.0);
    t.sharedFraction = args.getDouble("shared_fraction", 0.8);
    t.zipfAlpha = args.getDouble("zipf_alpha", 0.6);
    t.writeFraction = args.getDouble("write_fraction", 0.05);
    t.atomicFraction = args.getDouble("atomic_fraction", 0.0);
    t.computePerMem = static_cast<std::uint32_t>(
        args.getUint("compute_per_mem", 4));
    t.memInstrsPerWarp = args.getUint("mem_instrs", 600);
    spec.abbr = "cli";
    spec.sharedMb = static_cast<double>(t.sharedLines) / 8192.0;
    spec.numCtas = static_cast<std::uint32_t>(args.getUint("ctas", 320));
    spec.warpsPerCta =
        static_cast<std::uint32_t>(args.getUint("warps", 8));
    std::printf("workload: synthetic %s (%.2f MB shared)\n",
                pattern.c_str(), spec.sharedMb);
    return spec;
}

std::string
tracePath(const KvArgs &args)
{
    const std::string path = args.getString("trace");
    if (path.empty())
        fatal("missing trace=<file> argument");
    return path;
}

/** The configured point, without apps (replay needs none). */
SweepPoint
pointFromArgs(const KvArgs &args)
{
    SweepPoint p;
    p.cfg.maxCycles = 60000;
    p.cfg.profileLen = 5000;
    p.cfg.epochLen = 200000;
    p.cfg.applyKv(args);
    p.label = "trace_tool";
    return p;
}

RunResult
recordRun(SweepPoint p, const KvArgs &args, const std::string &path)
{
    p.apps = {workloadFromArgs(args)};
    p.cfg.traceRecordPath = path;
    p.cfg.traceReplayPath.clear();
    return SweepRunner::runPoint(p);
}

RunResult
replayRun(SweepPoint p, const std::string &path)
{
    p.cfg.traceRecordPath.clear();
    p.cfg.traceReplayPath = path;
    return SweepRunner::runPoint(p);
}

void
printRun(const char *tag, const RunResult &r)
{
    std::printf("%-8s cycles=%llu instrs=%llu ipc=%.6f "
                "llc=%llu missRate=%.6f dram=%llu%s\n",
                tag, static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions),
                r.ipc, static_cast<unsigned long long>(r.llcAccesses),
                r.llcReadMissRate,
                static_cast<unsigned long long>(r.dramAccesses),
                r.finishedWork ? "" : " (horizon reached)");
}

int
cmdRecord(const KvArgs &args)
{
    const std::string path = tracePath(args);
    printRun("recorded", recordRun(pointFromArgs(args), args, path));
    std::printf("trace written to %s\n", path.c_str());
    return 0;
}

int
cmdInfo(const KvArgs &args)
{
    const TraceReader reader(tracePath(args));
    std::printf("trace:   %s (format v%u)\n", reader.path().c_str(),
                reader.version());
    std::printf("kernels: %zu\n", reader.kernels().size());
    for (const TraceKernel &k : reader.kernels()) {
        const std::uint64_t instrs = k.totalInstrs();
        const std::uint64_t bytes = k.totalPayloadBytes();
        std::printf("  %-16s %u CTAs x %u warps, %zu streams, "
                    "%llu instrs, %llu bytes (%.2f B/instr)\n",
                    k.name.c_str(), k.numCtas, k.warpsPerCta,
                    k.warps.size(),
                    static_cast<unsigned long long>(instrs),
                    static_cast<unsigned long long>(bytes),
                    instrs == 0 ? 0.0
                                : static_cast<double>(bytes) /
                            static_cast<double>(instrs));
    }
    const TraceRunSummary &s = reader.summary();
    if (s.valid) {
        std::printf("recorded run: cycles=%llu instrs=%llu "
                    "ipc=%.6f missRate=%.6f\n",
                    static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(s.instructions),
                    s.ipc, s.llcReadMissRate);
    }
    return 0;
}

int
cmdReplay(const KvArgs &args)
{
    const std::string path = tracePath(args);
    const RunResult r = replayRun(pointFromArgs(args), path);
    printRun("replayed", r);

    const TraceRunSummary s = TraceReader(path).summary();
    if (s.valid) {
        const bool same = r.cycles == s.cycles &&
            r.instructions == s.instructions &&
            r.llcReadMissRate == s.llcReadMissRate;
        std::printf("recorded-run summary %s\n",
                    same ? "matches"
                         : "DIFFERS (configuration mismatch?)");
    }
    return 0;
}

int
cmdVerify(const KvArgs &args)
{
    const std::string path = tracePath(args);
    const SweepPoint point = pointFromArgs(args);
    const RunResult rec = recordRun(point, args, path);
    const RunResult rep = replayRun(point, path);
    printRun("recorded", rec);
    printRun("replayed", rep);
    if (identicalResults(rec, rep)) {
        std::printf("verify: PASS (replay reproduces the recorded "
                    "run bit-for-bit)\n");
        return 0;
    }
    if (!rec.finishedWork) {
        // A horizon-cut recording truncates warps mid-stream, so the
        // replay legitimately finishes early: not a subsystem fault.
        std::printf("verify: INCONCLUSIVE (the recording hit its "
                    "cycle horizon; raise max_cycles so the "
                    "workload completes)\n");
        return 2;
    }
    std::printf("verify: FAIL (replay diverged from the recorded "
                "run)\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const KvArgs args = KvArgs::parse(argc, argv);
    if (args.positionals().empty())
        fatal("usage: trace_tool record|info|replay|verify "
              "trace=<file> [key=value...]");
    const std::string &cmd = args.positionals().front();

    int rc = 0;
    try {
        if (cmd == "record")
            rc = cmdRecord(args);
        else if (cmd == "info")
            rc = cmdInfo(args);
        else if (cmd == "replay")
            rc = cmdReplay(args);
        else if (cmd == "verify")
            rc = cmdVerify(args);
        else
            fatal("unknown subcommand '%s' (record|info|replay|verify)",
                  cmd.c_str());
    } catch (const SimError &e) {
        std::fprintf(stderr, "trace_tool: error: %s\n", e.what());
        return 1;
    }
    args.warnUnused();
    return rc;
}
