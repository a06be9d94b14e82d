/**
 * @file
 * The unified amsc command-line interface.
 *
 *   amsc run <scenario.scn> [key=value ...] [--smoke] [--stats]
 *       Execute a scenario (its whole sweep grid) and print a
 *       summary table, or CSV/JSON with format=csv|json [out=FILE].
 *       --stats then prints each point's per-component statistics
 *       tree to stdout.
 *       A scenario with an `expect { }` block then prints its
 *       measured-vs-paper table to stderr and exits 1 if a relation
 *       is violated (run, sweep and merge alike).
 *
 *   amsc sweep <scenario.scn> [sweep.key=v1,v2 ...] [key=value ...]
 *       Like run, but defaults to CSV output and reports the grid
 *       expansion; extra sweep axes can be added on the command line.
 *       With --journal=DIR [--shard=i/N] the run is crash-safe: each
 *       finished point is appended to a per-shard journal and
 *       nothing is emitted (that is merge's job).
 *
 *   amsc resume <scenario.scn> --journal=DIR [--shard=i/N]
 *       Re-open a journaled sweep after a crash or kill and run only
 *       the points that are not journaled yet.
 *
 *   amsc merge <scenario.scn> --journal=DIR [format=csv|json]
 *       Fold the shard journals back into the byte-identical CSV or
 *       JSON a single uninterrupted process would have emitted.
 *
 *   amsc fuzz [--points=N] [--seed=S] [out=DIR]
 *       Differential fuzz of the cycle-core drivers: N random
 *       scenarios run under sim_mode=tick and sim_mode=event and
 *       compared bit-for-bit (results, CSV bytes, observer samples,
 *       checkpoint files). A mismatch dumps the failing case as a
 *       reproducible .scn and exits 1.
 *
 *   amsc list [workloads|scenarios [dir=DIR]]
 *       The Table-2 workload suite with each stand-in's synthetic
 *       parameters and measured shared-region coverage, or the .scn
 *       files of a directory.
 *
 *   amsc describe [<key>] [--markdown]
 *       The complete SimConfig key registry; --markdown emits
 *       docs/configuration.md.
 *
 * Command-line key=value pairs override scenario settings: bare
 * SimConfig keys (max_cycles=2000) apply as config overrides,
 * sweep.<key>=a,b adds or replaces a sweep axis, and threads=N pins
 * the worker count (default: all cores, or AMSC_SWEEP_THREADS).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#ifdef _WIN32
#include <io.h>
#define AMSC_ISATTY _isatty
#define AMSC_FILENO _fileno
#else
#include <unistd.h>
#define AMSC_ISATTY isatty
#define AMSC_FILENO fileno
#endif

#include "common/error.hh"
#include "common/kvargs.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "obs/trace_check.hh"
#include "scenario/diff_fuzz.hh"
#include "scenario/emit.hh"
#include "scenario/expect.hh"
#include "scenario/scenario.hh"
#include "scenario/schema.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

using namespace amsc;
using scenario::ExpandedPoint;
using scenario::Scenario;

namespace
{

/** Keys consumed by the CLI itself, not by the scenario. */
const std::vector<std::string> kCliKeys = {
    "threads", "format", "out", "smoke", "--journal", "--shard"};

int
usage()
{
    std::fputs(
        "usage: amsc <command> [args]\n"
        "\n"
        "  run <file.scn> [key=value ...] [--smoke]   execute a "
        "scenario\n"
        "  sweep <file.scn> [sweep.key=v1,v2 ...]     execute and "
        "emit CSV\n"
        "  resume <file.scn> --journal=DIR            finish a "
        "killed sweep\n"
        "  merge <file.scn> --journal=DIR             fold shard "
        "journals to CSV/JSON\n"
        "  fuzz [--points=N] [--seed=S] [out=DIR]     differential "
        "sim_mode fuzz\n"
        "  list [workloads|scenarios [dir=DIR]]       what is "
        "available\n"
        "  describe [<key>] [--markdown]              configuration "
        "reference\n"
        "  validate-timeline <trace.json>             check an "
        "emitted trace\n"
        "\n"
        "common keys: threads=N format=table|csv|json out=FILE\n"
        "run/sweep:   --timeline=FILE (Perfetto JSON per point), "
        "--progress,\n"
        "             --stats (per-component statistics per point)\n"
        "sweep/resume: --journal=DIR (crash-safe journaled run), "
        "--shard=i/N\n"
        "full reference: docs/configuration.md, "
        "docs/observability.md, docs/robustness.md\n",
        stderr);
    return 2;
}

bool
hasFlag(const KvArgs &args, const std::string &flag)
{
    for (const std::string &p : args.positionals()) {
        if (p == flag)
            return true;
    }
    return false;
}

/** --smoke or smoke=1: quarter-length runs. */
bool
isSmoke(const KvArgs &args)
{
    return hasFlag(args, "--smoke") || args.getBool("smoke", false);
}

/** @return true for a key the CLI consumes, not the scenario. */
bool
isCliKey(const std::string &key)
{
    return std::count(kCliKeys.begin(), kCliKeys.end(), key) != 0;
}

/** Load scenario + CLI overrides; scenario keys win load order. */
Scenario
loadWithOverrides(const std::string &path, const KvArgs &args)
{
    KvArgs kv = Scenario::parseScnFile(path);
    for (const std::string &key : args.orderedKeys()) {
        if (isCliKey(key))
            continue;
        if (key == "--timeline") {
            // amsc run --timeline=out.json == timeline_out=out.json.
            Scenario::applyOverride(kv, "timeline_out",
                                    args.getString(key));
            continue;
        }
        Scenario::applyOverride(kv, key, args.getString(key));
    }
    return Scenario::fromKv(std::move(kv), path);
}

/** path.ext -> path.p<i>.ext (per-point output files). */
std::string
perPointPath(const std::string &path, std::size_t i)
{
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + ".p" + std::to_string(i);
    return path.substr(0, dot) + ".p" + std::to_string(i) +
        path.substr(dot);
}

/** Render seconds as "1h02m", "3m20s" or "45s". */
std::string
renderEta(double seconds)
{
    const long s = seconds < 0 ? 0 : static_cast<long>(seconds + 0.5);
    if (s >= 3600)
        return strfmt("%ldh%02ldm", s / 3600, (s % 3600) / 60);
    if (s >= 60)
        return strfmt("%ldm%02lds", s / 60, s % 60);
    return strfmt("%lds", s);
}

/** Parse --shard=i/N (0-based); defaults to 0/1. */
void
parseShard(const KvArgs &args, std::uint32_t &shard,
           std::uint32_t &shard_count)
{
    shard = 0;
    shard_count = 1;
    const std::string spec = args.getString("--shard", "");
    if (spec.empty())
        return;
    unsigned i = 0, n = 0;
    int consumed = 0;
    if (std::sscanf(spec.c_str(), "%u/%u%n", &i, &n, &consumed) !=
            2 ||
        consumed != static_cast<int>(spec.size()) || n == 0 || i >= n)
        fatal("bad --shard '%s' (expected i/N with 0 <= i < N)",
              spec.c_str());
    shard = i;
    shard_count = n;
}

/** Write the grid as table/CSV/JSON, then check its expect block. */
int
emitAndCheck(const KvArgs &args, const Scenario &scn,
             const std::vector<ExpandedPoint> &expanded,
             const std::vector<RunResult> &results,
             const std::vector<std::string> &errors,
             const std::string &default_format)
{
    const std::string format = args.getString("format", default_format);
    const auto epts = scenario::emitPoints(expanded);
    if (format != "table" && format != "csv" && format != "json")
        fatal("unknown format '%s' (table|csv|json)", format.c_str());
    scenario::writeOut(
        format == "table" ? scenario::renderTable(epts, results)
            : format == "csv"
            ? scenario::emitCsv(epts, results, errors)
            : scenario::emitJson(scn.name(), epts, results, errors),
        args.getString("out", ""));
    if (scn.relations().empty())
        return 0;

    // The claims are about the grid as the file states it: a smoke
    // or overridden run checks nothing.
    const auto &keys = args.orderedKeys();
    const auto over = std::find_if_not(keys.begin(), keys.end(), isCliKey);
    const std::string skip = isSmoke(args) ? "smoke run"
        : over == keys.end()               ? ""
                                           : "command-line override " + *over;
    const auto outcomes = scenario::evaluateRelations(
        scn.relations(), epts, results, errors, skip);
    const std::size_t failed = scenario::countFailures(outcomes);
    std::fprintf(stderr, "amsc: expect, %s:\n%s%s", scn.name().c_str(),
                 scenario::renderOutcomes(scn.relations(), outcomes)
                     .c_str(),
                 failed ? "amsc: expect block failed\n" : "");
    return failed ? 1 : 0;
}

int
cmdRunSweep(const KvArgs &args, bool is_sweep, bool is_resume)
{
    if (args.positionals().size() < 2)
        return usage();
    const std::string path = args.positionals()[1];
    Scenario scn = loadWithOverrides(path, args);
    const bool smoke = isSmoke(args);
    scn.setSmoke(smoke);

    const std::vector<ExpandedPoint> expanded = scn.expand();
    std::vector<SweepPoint> points;
    points.reserve(expanded.size());
    for (const ExpandedPoint &ep : expanded)
        points.push_back(ep.point);

    // Per-point output files: a multi-point grid with one timeline,
    // stats-stream or trace path would have every worker clobbering
    // the same file, so suffix the point index before the extension.
    if (points.size() > 1) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            SimConfig &cfg = points[i].cfg;
            for (std::string *out : {&cfg.timelineOut,
                                     &cfg.statsStreamOut,
                                     &cfg.traceRecordPath}) {
                if (!out->empty())
                    *out = perPointPath(*out, i);
            }
        }
        if (!points[0].cfg.timelineOut.empty())
            std::fprintf(stderr, "amsc: timeline per point: %s ...\n",
                         points[0].cfg.timelineOut.c_str());
    }

    // Journaled execution: open (or resume) this shard's journal
    // and mask out foreign-shard and already-journaled points.
    std::uint32_t shard = 0, shard_count = 1;
    parseShard(args, shard, shard_count);
    const std::string journal_dir = args.getString("--journal", "");
    if (is_resume && journal_dir.empty())
        fatal("amsc resume requires --journal=DIR");
    if (journal_dir.empty() && shard_count != 1)
        fatal("--shard requires --journal "
              "(amsc merge reassembles the grid)");

    std::unique_ptr<SweepJournal> journal;
    std::vector<char> skip;
    std::size_t shard_points = 0, already_done = 0;
    if (!journal_dir.empty()) {
        std::filesystem::create_directories(journal_dir);
        const JournalHeader header{sweepIdentityHash(points), shard,
                                   shard_count, points.size()};
        const std::string jpath = journal_dir + "/" +
            SweepJournal::shardFileName(shard, shard_count);
        if (is_resume && !std::filesystem::exists(jpath))
            fatal("nothing to resume: %s does not exist",
                  jpath.c_str());
        journal = std::make_unique<SweepJournal>(jpath, header);
        skip.assign(points.size(), 0);
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (j % shard_count != shard) {
                skip[j] = 1;
                continue;
            }
            ++shard_points;
            if (journal->has(j)) {
                skip[j] = 1;
                ++already_done;
            }
        }
        std::fprintf(stderr,
                     "amsc: journal %s: %zu/%zu shard points "
                     "already done\n",
                     jpath.c_str(), already_done, shard_points);
    }

    // --stats: each executed point's statistics tree, captured on
    // its worker while the system is alive and printed in grid order
    // after the summary.
    std::vector<std::string> stat_trees(points.size());
    if (hasFlag(args, "--stats")) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto post = points[i].post;
            std::string *tree = &stat_trees[i];
            points[i].post = [post, tree](GpuSystem &gpu, RunResult &r) {
                if (post)
                    post(gpu, r);
                StatSet set("amsc");
                gpu.registerStats(set);
                std::ostringstream os;
                set.dump(os);
                *tree = os.str();
            };
        }
    }

    const SweepRunner runner(
        static_cast<unsigned>(args.getUint("threads", 0)));
    std::fprintf(stderr,
                 "amsc: %s%s: %zu point%s on %u thread%s%s\n",
                 scn.name().c_str(),
                 scn.description().empty()
                     ? ""
                     : (" (" + scn.description() + ")").c_str(),
                 points.size(), points.size() == 1 ? "" : "s",
                 runner.numThreads(),
                 runner.numThreads() == 1 ? "" : "s",
                 smoke ? ", smoke (quarter-length runs)" : "");

    // Progress: a rich heartbeat (done/total, ETA, the point that
    // just finished) on interactive stderr or with --progress;
    // otherwise the coarse every-tenth lines, so batch logs stay
    // small and hangs are still distinguishable from progress.
    const bool heartbeat = hasFlag(args, "--progress") ||
        AMSC_ISATTY(AMSC_FILENO(stderr)) != 0;
    const std::size_t stride =
        std::max<std::size_t>(1, points.size() / 10);
    const auto t0 = std::chrono::steady_clock::now();
    auto last_beat = t0;
    const auto progress = [&](std::size_t done, std::size_t total,
                              std::size_t index) {
        if (total <= 1)
            return;
        if (!heartbeat) {
            if (done % stride == 0 || done == total)
                std::fprintf(stderr, "amsc: %zu/%zu points done\n",
                             done, total);
            return;
        }
        const auto now = std::chrono::steady_clock::now();
        if (done != total &&
            now - last_beat < std::chrono::seconds(1))
            return;
        last_beat = now;
        const double elapsed =
            std::chrono::duration<double>(now - t0).count();
        const double eta =
            elapsed / static_cast<double>(done) *
            static_cast<double>(total - done);
        std::fprintf(stderr,
                     "amsc: %zu/%zu (%.0f%%) eta %s, last: %s\n",
                     done, total,
                     100.0 * static_cast<double>(done) /
                         static_cast<double>(total),
                     renderEta(eta).c_str(),
                     points[index].label.c_str());
    };
    std::vector<std::string> errors(points.size());
    SweepOptions options;
    options.skip = skip.empty() ? nullptr : &skip;
    options.onResult = [&](std::size_t i, const RunResult &r,
                           const std::string &err) {
        errors[i] = err;
        if (journal)
            journal->append(
                {i, !err.empty(), points[i].label, err, r});
    };
    const std::vector<RunResult> results =
        runner.run(points, options, progress);

    int rc = 0;
    if (journal) {
        // Emission is merge's job: a shard only sees its slice.
        std::fprintf(stderr,
                     "amsc: shard %u/%u complete: %zu/%zu points "
                     "journaled; emit with `amsc merge %s "
                     "--journal=%s`\n",
                     shard, shard_count, journal->numDone(),
                     shard_points, path.c_str(),
                     journal_dir.c_str());
    } else {
        rc = emitAndCheck(args, scn, expanded, results, errors,
                          is_sweep ? "csv" : "table");
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!stat_trees[i].empty())
            std::printf("\n==== statistics: %s ====\n%s",
                        points[i].label.c_str(), stat_trees[i].c_str());
    }
    return rc;
}

/** amsc merge: fold shard journals into the single-process output. */
int
cmdMerge(const KvArgs &args)
{
    if (args.positionals().size() < 2)
        return usage();
    const std::string path = args.positionals()[1];
    const std::string journal_dir = args.getString("--journal", "");
    if (journal_dir.empty())
        fatal("amsc merge requires --journal=DIR");

    Scenario scn = loadWithOverrides(path, args);
    scn.setSmoke(isSmoke(args));
    const std::vector<ExpandedPoint> expanded = scn.expand();
    std::vector<SweepPoint> points;
    points.reserve(expanded.size());
    for (const ExpandedPoint &ep : expanded)
        points.push_back(ep.point);
    const std::uint64_t sweep_hash = sweepIdentityHash(points);

    // Discover the shard files; all must agree on the shard count.
    std::vector<std::pair<std::uint32_t, std::string>> shards;
    std::uint32_t shard_count = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(journal_dir)) {
        const std::string name = entry.path().filename().string();
        unsigned i = 0, n = 0;
        int consumed = 0;
        if (std::sscanf(name.c_str(), "shard-%u-of-%u.jnl%n", &i, &n,
                        &consumed) != 2 ||
            consumed != static_cast<int>(name.size()) || n == 0)
            continue;
        if (i >= n)
            fatal("bad journal name %s (shard index out of range)",
                  name.c_str());
        if (shard_count == 0)
            shard_count = n;
        else if (n != shard_count)
            fatal("journal dir mixes shard counts (%u and %u)",
                  shard_count, n);
        shards.emplace_back(i, entry.path().string());
    }
    if (shards.empty())
        fatal("no shard journals (shard-*-of-*.jnl) in %s",
              journal_dir.c_str());
    std::sort(shards.begin(), shards.end());

    std::vector<RunResult> results(points.size());
    std::vector<std::string> errors(points.size());
    std::vector<char> have(points.size(), 0);
    for (const auto &[index, file] : shards) {
        const JournalHeader expect{sweep_hash, index, shard_count,
                                   points.size()};
        for (const JournalRecord &rec :
             SweepJournal::readAll(file, expect)) {
            if (have[rec.pointIndex])
                continue;
            have[rec.pointIndex] = 1;
            results[rec.pointIndex] = rec.result;
            if (rec.failed) {
                errors[rec.pointIndex] = rec.error.empty()
                    ? "failed"
                    : rec.error;
            }
        }
    }
    std::size_t missing = 0;
    for (const char h : have)
        missing += (h == 0);
    if (missing != 0)
        fatal("journal incomplete: %zu of %zu points missing "
              "(finish with `amsc resume %s --journal=%s`)",
              missing, points.size(), path.c_str(),
              journal_dir.c_str());

    return emitAndCheck(args, scn, expanded, results, errors, "csv");
}

/** Table 2's access-pattern names. */
const char *
patternName(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Broadcast:
        return "broadcast";
      case AccessPattern::ZipfShared:
        return "zipf-shared";
      case AccessPattern::TiledShared:
        return "tiled-shared";
      case AccessPattern::PrivateStream:
        return "private-stream";
    }
    return "?";
}

/**
 * Distinct shared-region lines that 64 warp generators (8 CTAs x 8
 * warps) of @p s's first kernel read: how much of the configured
 * shared footprint the synthetic stream actually touches.
 */
std::size_t
drawnSharedLines(const WorkloadSpec &s)
{
    const auto kernels = WorkloadSuite::buildKernels(s, 1);
    std::set<Addr> distinct;
    WarpInstr wi;
    Cycle c = 0;
    for (int w = 0; w < 64; ++w) {
        auto g = kernels[0].makeGen(static_cast<CtaId>(w / 8), w % 8);
        while (g->nextInstr(wi, c)) {
            c += 3;
            if (!wi.isWrite &&
                wi.addrs[0] < s.trace.sharedBase + s.trace.sharedLines)
                distinct.insert(wi.addrs[0]);
        }
    }
    return distinct.size();
}

int
cmdList(const KvArgs &args)
{
    const std::string what = args.positionals().size() > 1
        ? args.positionals()[1]
        : "workloads";
    if (what == "workloads") {
        std::printf("| abbr | benchmark | class | shared MB | "
                    "kernels (paper/sim) | CTAs x warps | pattern | "
                    "shared frac | compute/mem |\n"
                    "|---|---|---|---|---|---|---|---|---|\n");
        for (const WorkloadSpec &s : WorkloadSuite::all()) {
            std::printf("| %s | %s | %s | %.3f | %u / %u | %u x %u | "
                        "%s | %.2f | %u |\n",
                        s.abbr.c_str(), s.fullName.c_str(),
                        workloadClassName(s.klass).c_str(), s.sharedMb,
                        s.paperKernels, s.simKernels, s.numCtas,
                        s.warpsPerCta, patternName(s.trace.pattern),
                        s.trace.sharedFraction, s.trace.computePerMem);
        }
        std::printf("\nMeasured shared-region coverage (reads of 64 "
                    "warp generators of kernel 0):\n\n"
                    "| abbr | configured lines | drawn distinct | "
                    "coverage |\n"
                    "|---|---|---|---|\n");
        for (const WorkloadSpec &s : WorkloadSuite::all()) {
            const std::size_t drawn = drawnSharedLines(s);
            std::printf("| %s | %llu | %zu | %.1f%% |\n",
                        s.abbr.c_str(),
                        static_cast<unsigned long long>(
                            s.trace.sharedLines),
                        drawn,
                        100.0 * static_cast<double>(drawn) /
                            static_cast<double>(s.trace.sharedLines));
        }
        return 0;
    }
    if (what == "scenarios") {
        std::string dir = args.getString("dir", "");
        if (dir.empty()) {
            for (const char *cand : {"scenarios", "../scenarios"}) {
                if (std::filesystem::is_directory(cand)) {
                    dir = cand;
                    break;
                }
            }
        }
        if (dir.empty() || !std::filesystem::is_directory(dir))
            fatal("no scenario directory found (pass dir=PATH)");
        std::vector<std::filesystem::path> files;
        for (const auto &e :
             std::filesystem::directory_iterator(dir)) {
            if (e.path().extension() == ".scn")
                files.push_back(e.path());
        }
        std::sort(files.begin(), files.end());
        std::printf("| scenario | points | description |\n"
                    "|---|---|---|\n");
        for (const auto &f : files) {
            const Scenario s = Scenario::load(f.string());
            std::printf("| %s | %zu | %s |\n", f.string().c_str(),
                        s.expand().size(), s.description().c_str());
        }
        return 0;
    }
    return usage();
}

int
cmdValidateTimeline(const KvArgs &args)
{
    if (args.positionals().size() < 2)
        return usage();
    int rc = 0;
    for (std::size_t i = 1; i < args.positionals().size(); ++i) {
        const std::string &path = args.positionals()[i];
        const obs::TraceCheckResult r =
            obs::checkPerfettoTraceFile(path);
        if (!r.ok) {
            std::fprintf(stderr, "amsc: %s: INVALID: %s\n",
                         path.c_str(), r.error.c_str());
            rc = 1;
            continue;
        }
        std::printf("%s: ok (%zu events, %zu tracks, %zu phases, "
                    "%zu instants, %zu counters, %zu decisions)\n",
                    path.c_str(), r.events, r.tracks, r.durations,
                    r.instants, r.counters, r.decisions);
    }
    return rc;
}

/** amsc fuzz: differential tick/event fuzz campaign. */
int
cmdFuzz(const KvArgs &args)
{
    const std::uint32_t points = static_cast<std::uint32_t>(
        args.getUint("--points", args.getUint("points", 200)));
    const std::uint64_t seed =
        args.getUint("--seed", args.getUint("seed", 1));
    const unsigned threads =
        static_cast<unsigned>(args.getUint("threads", 0));
    const std::string out_dir = args.getString("out", ".");
    if (points == 0)
        fatal("--points must be non-zero");

    std::fprintf(stderr,
                 "amsc: fuzz: %u differential case%s, seed %llu\n",
                 points, points == 1 ? "" : "s",
                 static_cast<unsigned long long>(seed));
    const scenario::FuzzReport report = scenario::runDiffFuzz(
        seed, points, threads,
        [&](const scenario::FuzzCase &c,
            const scenario::FuzzOutcome &o) {
            if (o.ok)
                return;
            const std::string path = out_dir + "/" +
                strfmt("fuzz-fail-%llu-%u.scn",
                       static_cast<unsigned long long>(c.seed),
                       c.index);
            scenario::writeOut(c.scn, path);
            std::fprintf(stderr,
                         "amsc: fuzz case %u FAILED: %s\n"
                         "amsc:   reproduce: amsc run %s\n",
                         c.index, o.detail.c_str(), path.c_str());
        });
    if (report.failures != 0) {
        std::fprintf(stderr, "amsc: fuzz: %u/%u cases FAILED\n",
                     report.failures, report.points);
        return 1;
    }
    std::printf("fuzz: %u cases, seed %llu: tick and event "
                "bit-identical on all\n",
                report.points,
                static_cast<unsigned long long>(seed));
    return 0;
}

int
cmdDescribe(const KvArgs &args)
{
    if (hasFlag(args, "--markdown")) {
        std::fputs(scenario::renderConfigMarkdown().c_str(), stdout);
        return 0;
    }
    if (args.positionals().size() > 1) {
        std::fputs(
            scenario::renderKeyDetail(args.positionals()[1]).c_str(),
            stdout);
        return 0;
    }
    std::fputs(scenario::renderKeyTable().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const KvArgs args = KvArgs::parse(argc, argv);
    if (args.positionals().empty())
        return usage();
    const std::string &cmd = args.positionals()[0];
    try {
        if (cmd == "run")
            return cmdRunSweep(args, false, false);
        if (cmd == "sweep")
            return cmdRunSweep(args, true, false);
        if (cmd == "resume")
            return cmdRunSweep(args, true, true);
        if (cmd == "merge")
            return cmdMerge(args);
        if (cmd == "fuzz")
            return cmdFuzz(args);
        if (cmd == "list")
            return cmdList(args);
        if (cmd == "describe")
            return cmdDescribe(args);
        if (cmd == "validate-timeline")
            return cmdValidateTimeline(args);
    } catch (const SimError &e) {
        std::fprintf(stderr, "amsc: error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "amsc: unknown command '%s'\n", cmd.c_str());
    return usage();
}
