/**
 * @file
 * Scenario-engine tests: the nested KvArgs dialect, parsing and
 * round-tripping of every shipped `.scn` file, sweep-grid expansion
 * (counts, axis ordering, variants, multi-grid, multi-program
 * policies), bit-exact equivalence of the fig11 scenario with the
 * hand-written bench grid, emitter golden files, unknown-key
 * error messages naming the nearest valid key, and the evaluation of
 * `expect { }` relations on hand-built grids.
 *
 * Set AMSC_UPDATE_GOLDEN=1 to rewrite tests/golden/ from the current
 * emitters.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "throw_util.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/kvargs.hh"
#include "scenario/emit.hh"
#include "scenario/expect.hh"
#include "scenario/scenario.hh"
#include "scenario/schema.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

using namespace amsc;
using scenario::EmitPoint;
using scenario::ExpandedPoint;
using scenario::Scenario;

namespace
{

const std::string kSourceDir = AMSC_SOURCE_DIR;

/** SimConfig equality through the complete key registry. */
void
expectSameConfig(const SimConfig &a, const SimConfig &b,
                 const std::string &context)
{
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        EXPECT_EQ(k.get(a), k.get(b))
            << context << ": key '" << k.name << "' differs";
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << "missing file: " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::vector<std::string>
shippedScenarios()
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(
             kSourceDir + "/scenarios")) {
        if (e.path().extension() == ".scn")
            files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

// ------------------------------------------- nested KvArgs dialect

TEST(ScenarioKv, NestedBlocksFlattenToDottedKeys)
{
    const KvArgs kv = KvArgs::parseText("# comment\n"
                                        "name = demo // trailing\n"
                                        "config {\n"
                                        "  max_cycles = 100\n"
                                        "  noc = hxbar\n"
                                        "}\n"
                                        "quoted = \"a # b\"\n");
    EXPECT_EQ(kv.getString("name", ""), "demo");
    EXPECT_EQ(kv.getString("config.max_cycles", ""), "100");
    EXPECT_EQ(kv.getString("config.noc", ""), "hxbar");
    EXPECT_EQ(kv.getString("quoted", ""), "a # b");
}

TEST(ScenarioKv, RepeatedIndexedBlocksAutoIndex)
{
    const KvArgs kv = KvArgs::parseText("app {\n  workload = AN\n}\n"
                                        "app {\n  workload = LUD\n}\n"
                                        "app {\n  workload = VA\n}\n",
                                        "<text>", {"app"});
    EXPECT_EQ(kv.getString("app.0.workload", ""), "AN");
    EXPECT_EQ(kv.getString("app.1.workload", ""), "LUD");
    EXPECT_EQ(kv.getString("app.2.workload", ""), "VA");
    EXPECT_FALSE(kv.has("app.workload"));
}

TEST(ScenarioKv, SingleBlockKeepsPlainPrefix)
{
    const KvArgs kv = KvArgs::parseText("app {\n  workload = AN\n}\n",
                                        "<text>", {"app"});
    EXPECT_EQ(kv.getString("app.workload", ""), "AN");
}

TEST(ScenarioKv, RepeatedNonIndexedBlocksMerge)
{
    // A second config { } block is a grouping choice, not a new
    // scope: keys merge, later values win.
    const KvArgs kv =
        KvArgs::parseText("config {\n  max_cycles = 100\n}\n"
                          "config {\n  seed = 7\n  max_cycles = 200\n"
                          "}\n");
    EXPECT_EQ(kv.getString("config.max_cycles", ""), "200");
    EXPECT_EQ(kv.getString("config.seed", ""), "7");
    EXPECT_FALSE(kv.has("config.0.max_cycles"));
}

TEST(ScenarioKv, ListsAndInsertionOrder)
{
    const KvArgs kv = KvArgs::parseText(
        "sweep {\n"
        "  workload = LUD, SP , 3DC\n"
        "  llc_policy = shared, private\n"
        "}\n");
    const auto wl = kv.getList("sweep.workload");
    ASSERT_EQ(wl.size(), 3u);
    EXPECT_EQ(wl[1], "SP");
    const auto keys = kv.keysWithPrefix("sweep.");
    ASSERT_EQ(keys.size(), 2u);
    // File order, not alphabetical: workload is the outer axis.
    EXPECT_EQ(keys[0], "sweep.workload");
    EXPECT_EQ(keys[1], "sweep.llc_policy");
}

TEST(ScenarioKvErrors, SyntaxErrorsNameTheLine)
{
    AMSC_EXPECT_THROW_MSG(KvArgs::parseText("config {\n", "f.scn"),
                          FormatError, "unterminated");
    AMSC_EXPECT_THROW_MSG(KvArgs::parseText("}\n", "f.scn"),
                          FormatError, "line 1: unmatched");
    AMSC_EXPECT_THROW_MSG(
        KvArgs::parseText("not an assignment\n", "f.scn"),
        FormatError, "key = value");
}

// ------------------------------------------- shipped .scn files

TEST(Scenario, ShippedFilesParseExpandAndRoundTrip)
{
    const auto files = shippedScenarios();
    ASSERT_GE(files.size(), 11u);
    for (const std::string &path : files) {
        SCOPED_TRACE(path);
        const Scenario s = Scenario::load(path);
        const auto points = s.expand();
        EXPECT_GT(points.size(), 0u);

        // Canonical-dump round trip: dump -> parse -> dump is a
        // fixed point, and the reparsed scenario expands to the same
        // grid (labels and full configurations).
        const std::string dumped = s.dumpText();
        const Scenario reparsed = Scenario::fromKv(
            Scenario::parseScnText(dumped, path + "<dump>"),
            path + "<dump>");
        EXPECT_EQ(dumped, reparsed.dumpText());
        EXPECT_EQ(reparsed.relations().size(), s.relations().size());
        EXPECT_EQ(dumped.find("expect {") != std::string::npos,
                  !s.relations().empty());
        const auto repoints = reparsed.expand();
        ASSERT_EQ(points.size(), repoints.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(points[i].point.label, repoints[i].point.label);
            expectSameConfig(points[i].point.cfg,
                             repoints[i].point.cfg,
                             points[i].point.label);
        }
    }
}

TEST(Scenario, EveryFigureScenarioHasExpectOrABenchProgram)
{
    // A figure's paper claims live in its scenario's expect block;
    // only a figure no relation can state keeps a same-named bench
    // program (fig15: STP divides by a second grid's alone runs).
    std::size_t figs = 0, benches = 0;
    for (const std::string &path : shippedScenarios()) {
        const std::string stem =
            std::filesystem::path(path).stem().string();
        if (stem.rfind("fig", 0) != 0)
            continue;
        SCOPED_TRACE(stem);
        ++figs;
        const bool bench = std::filesystem::exists(
            kSourceDir + "/bench/" + stem + ".cc");
        benches += bench;
        EXPECT_TRUE(bench || !Scenario::load(path).relations().empty())
            << "scenarios/" << stem
            << ".scn needs an expect block or bench/" << stem << ".cc";
    }
    EXPECT_GE(figs, 9u);
    EXPECT_EQ(benches, 1u);
}

// ------------------------------------------- fig11 == C++ grid

namespace
{

/** bench_util.hh benchConfig() with no overrides. */
SimConfig
fig11BenchConfig()
{
    SimConfig cfg;
    cfg.maxCycles = 60000;
    cfg.profileLen = 5000;
    cfg.epochLen = 50000;
    cfg.validate();
    return cfg;
}

/**
 * The Fig 11 grid built by hand in C++ (class order, then policy):
 * the reference the scenario's expansion is pinned to.
 */
std::vector<SweepPoint>
fig11BenchPoints(const SimConfig &cfg)
{
    std::vector<SweepPoint> points;
    for (const WorkloadClass klass :
         {WorkloadClass::SharedFriendly, WorkloadClass::PrivateFriendly,
          WorkloadClass::Neutral}) {
        for (const WorkloadSpec &spec :
             WorkloadSuite::byClass(klass)) {
            for (const LlcPolicy policy :
                 {LlcPolicy::ForceShared, LlcPolicy::ForcePrivate,
                  LlcPolicy::Adaptive}) {
                SweepPoint p;
                p.cfg = cfg;
                p.cfg.llcPolicy = policy;
                p.apps = {spec};
                p.label = spec.abbr + "/" + llcPolicyName(policy);
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

} // namespace

TEST(Scenario, Fig11GridMatchesBenchPointForPoint)
{
    const Scenario s = Scenario::load(
        kSourceDir + "/scenarios/fig11_performance.scn");
    const auto expanded = s.expand();
    const auto bench = fig11BenchPoints(fig11BenchConfig());
    ASSERT_EQ(expanded.size(), bench.size());
    ASSERT_EQ(expanded.size(), 51u);
    for (std::size_t i = 0; i < bench.size(); ++i) {
        EXPECT_EQ(expanded[i].point.label, bench[i].label);
        expectSameConfig(expanded[i].point.cfg, bench[i].cfg,
                         bench[i].label);
        ASSERT_EQ(expanded[i].point.apps.size(), 1u);
        EXPECT_EQ(expanded[i].point.apps[0].abbr,
                  bench[i].apps[0].abbr);
    }
}

TEST(Scenario, Fig11RunsBitIdenticalToBench)
{
    // Short-horizon spot check that the scenario points don't just
    // look like the bench's -- they *run* identically (the full
    // identicalResults contract, every counter bit-exact).
    KvArgs file_kv = Scenario::parseScnFile(
        kSourceDir + "/scenarios/fig11_performance.scn");
    Scenario::applyOverride(file_kv, "max_cycles", "2500");
    Scenario::applyOverride(file_kv, "profile_len", "600");
    Scenario::applyOverride(file_kv, "epoch_len", "2000");
    const Scenario s =
        Scenario::fromKv(std::move(file_kv), "fig11<short>");
    const auto expanded = s.expand();

    SimConfig cfg = fig11BenchConfig();
    cfg.maxCycles = 2500;
    cfg.profileLen = 600;
    cfg.epochLen = 2000;
    const auto bench = fig11BenchPoints(cfg);
    ASSERT_EQ(expanded.size(), bench.size());
    // One workload per class, all three policies each.
    for (const std::size_t i : {0u, 1u, 2u, 24u, 25u, 26u, 48u, 49u,
                                50u}) {
        SCOPED_TRACE(bench[i].label);
        const RunResult a = SweepRunner::runPoint(expanded[i].point);
        const RunResult b = SweepRunner::runPoint(bench[i]);
        EXPECT_TRUE(identicalResults(a, b));
    }
}

// ------------------------------------------- grid expansion

TEST(Scenario, CartesianExpansionFirstAxisSlowest)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("workload = VA\n"
                          "sweep {\n"
                          "  num_sms = 16, 32\n"
                          "  llc_policy = shared, private, adaptive\n"
                          "}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].point.label, "16/shared");
    EXPECT_EQ(points[1].point.label, "16/private");
    EXPECT_EQ(points[3].point.label, "32/shared");
    EXPECT_EQ(points[3].point.cfg.numSms, 32u);
    EXPECT_EQ(points[3].point.cfg.llcPolicy, LlcPolicy::ForceShared);
    ASSERT_EQ(points[5].coords.size(), 2u);
    EXPECT_EQ(points[5].coords[0].first, "num_sms");
    EXPECT_EQ(points[5].coords[1].second, "adaptive");
}

TEST(Scenario, VariantsApplyCompositeOverrides)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("workload = VA\n"
                          "variant.small {\n"
                          "  num_sms = 40\n"
                          "  num_clusters = 4\n"
                          "  slices_per_mc = 4\n"
                          "}\n"
                          "variant.base {\n"
                          "  mapping = pae\n"
                          "}\n"
                          "sweep {\n"
                          "  variant = base, small\n"
                          "}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].point.cfg.numSms, 80u);
    EXPECT_EQ(points[1].point.cfg.numSms, 40u);
    EXPECT_EQ(points[1].point.cfg.numClusters, 4u);
}

TEST(Scenario, MultipleGridsConcatenate)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("grid {\n"
                          "  llc_policy = shared\n"
                          "  sweep {\n"
                          "    workload = AN, VA\n"
                          "  }\n"
                          "}\n"
                          "grid {\n"
                          "  sweep {\n"
                          "    workload = LUD+AN\n"
                          "    app_policies = shared+shared, "
                          "shared+private\n"
                          "  }\n"
                          "}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].point.apps.size(), 1u);
    EXPECT_EQ(points[0].point.cfg.llcPolicy, LlcPolicy::ForceShared);
    // Grid 2: two programs, per-app policies.
    ASSERT_EQ(points[2].point.apps.size(), 2u);
    EXPECT_EQ(points[2].point.apps[0].abbr, "LUD");
    EXPECT_EQ(points[2].point.apps[1].abbr, "AN");
    EXPECT_EQ(points[2].point.cfg.numApps(), 2u);
    EXPECT_EQ(points[3].point.cfg.llcPolicy, LlcPolicy::ForceShared);
    ASSERT_EQ(points[3].point.cfg.extraAppPolicies.size(), 1u);
    EXPECT_EQ(points[3].point.cfg.extraAppPolicies[0],
              LlcPolicy::ForcePrivate);
}

TEST(Scenario, AppBlocksDescribeSyntheticWorkloads)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("app {\n"
                          "  pattern = zipf\n"
                          "  name = Z2\n"
                          "  shared_mb = 2\n"
                          "  zipf_alpha = 0.9\n"
                          "  ctas = 64\n"
                          "  warps = 4\n"
                          "}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 1u);
    ASSERT_EQ(points[0].point.apps.size(), 1u);
    const WorkloadSpec &w = points[0].point.apps[0];
    EXPECT_EQ(w.abbr, "Z2");
    EXPECT_EQ(w.trace.pattern, AccessPattern::ZipfShared);
    EXPECT_EQ(w.trace.sharedLines, 2u * 8192u);
    EXPECT_DOUBLE_EQ(w.trace.zipfAlpha, 0.9);
    EXPECT_EQ(w.numCtas, 64u);
    EXPECT_EQ(w.warpsPerCta, 4u);
    // Single unswept point: labelled by the scenario name.
    EXPECT_EQ(points[0].point.label, "inline");
}

TEST(Scenario, ReplayAppsInstallASetupHook)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("app {\n  replay = does-not-exist.trc\n}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(static_cast<bool>(points[0].point.setup));
    EXPECT_TRUE(points[0].point.apps.empty());
}

TEST(Scenario, SmokeQuartersTheHorizon)
{
    Scenario s = Scenario::fromKv(
        Scenario::parseScnText("workload = VA\n"
                          "config {\n"
                          "  max_cycles = 60000\n"
                          "  profile_len = 5000\n"
                          "}\n"),
        "inline");
    s.setSmoke(true);
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].point.cfg.maxCycles, 15000u);
    EXPECT_EQ(points[0].point.cfg.profileLen, 1250u);
}

TEST(Scenario, SharingScenariosCollectBucketsViaPostHook)
{
    const Scenario s = Scenario::load(
        kSourceDir + "/scenarios/fig03_intercluster_locality.scn");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 17u);
    for (const ExpandedPoint &p : points) {
        EXPECT_TRUE(p.point.cfg.trackSharing);
        EXPECT_TRUE(static_cast<bool>(p.point.post));
    }
}

// ------------------------------------------- unknown-key messages

TEST(ScenarioErrors, UnknownKeysNameTheNearestValidKey)
{
    SimConfig cfg;
    AMSC_EXPECT_THROW_MSG(ConfigRegistry::apply(cfg, "nmu_sms", "80"),
                          ConfigError, "num_sms");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("config {\n"
                                           "  lin_bytes = 64\n"
                                           "}\n"),
                         "f.scn"),
        ConfigError, "config.line_bytes");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("workload = VA\n"
                                           "sweep {\n"
                                           "  llc_polcy = shared\n"
                                           "}\n"),
                         "f.scn"),
        ConfigError, "llc_policy");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("worklod = AN\n"),
                         "f.scn"),
        ConfigError, "workload");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("workload = ANX\n"),
                         "f.scn"),
        ConfigError, "nearest is 'AN'");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("app {\n"
                                           "  pattern = zipf\n"
                                           "  zipf_alpa = 0.7\n"
                                           "}\n"),
                         "f.scn"),
        ConfigError, "zipf_alpha");
    // A block name used as a scalar key must produce a suggestion,
    // not a crash.
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("app = AN\n"),
                         "f.scn"),
        ConfigError, "app.workload");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("grid = x\n"),
                         "f.scn"),
        ConfigError, "grid.sweep");
}

// ------------------------------------------- emitter golden files

namespace
{

RunResult
fabricatedResult(unsigned salt)
{
    RunResult r;
    r.cycles = 60000 + salt;
    r.instructions = 1234567 + salt;
    r.ipc = static_cast<double>(r.instructions) /
        static_cast<double>(r.cycles);
    r.appIpc = {r.ipc / 2.0, r.ipc / 2.0};
    r.appInstructions = {r.instructions / 2, r.instructions / 2};
    r.finishedWork = salt % 2 == 0;
    r.llcReadMissRate = 0.125 + 0.01 * salt;
    r.llcResponseRate = 3.5;
    r.llcAccesses = 100000 + salt;
    r.dramAccesses = 40000 + salt;
    r.dramRowHitRate = 0.5 + 0.01 * salt;
    r.dramRefreshes = 11 + salt;
    r.dramQueueRejects = 7 * salt;
    r.dramWriteDrains = 3 * salt;
    r.avgRequestLatency = 100.5;
    r.avgReplyLatency = 30.25;
    r.finalMode = salt % 2 == 0 ? LlcMode::Shared : LlcMode::Private;
    r.llcCtrl.transitionsToPrivate = salt;
    r.llcCtrl.transitionsToShared = salt / 2;
    r.llcCtrl.reconfigStallCycles = 30 * salt;
    r.sharingBuckets = {0.5, 0.25, 0.125, 0.125};
    return r;
}

void
checkGolden(const std::string &name, const std::string &content)
{
    const std::string path = kSourceDir + "/tests/golden/" + name;
    if (std::getenv("AMSC_UPDATE_GOLDEN")) {
        std::ofstream f(path, std::ios::binary);
        f << content;
        return;
    }
    EXPECT_EQ(readFile(path), content)
        << "golden file " << name
        << " drifted; run with AMSC_UPDATE_GOLDEN=1 to regenerate";
}

} // namespace

TEST(Emit, CsvAndJsonMatchGoldenFiles)
{
    const std::vector<EmitPoint> points = {
        {"LUD/shared", {{"workload", "LUD"}, {"llc_policy", "shared"}}},
        {"AN/private",
         {{"workload", "AN"}, {"llc_policy", "private"}}},
    };
    const std::vector<RunResult> results = {fabricatedResult(0),
                                            fabricatedResult(1)};
    checkGolden("emit.csv", scenario::emitCsv(points, results));
    checkGolden("emit.json",
                scenario::emitJson("golden", points, results));
}

TEST(Emit, StableColumnOrder)
{
    const auto &cols = scenario::metricColumns();
    ASSERT_GE(cols.size(), 20u);
    EXPECT_EQ(cols.front(), "cycles");
    EXPECT_EQ(cols[2], "ipc");
    EXPECT_EQ(cols.back(), "sys_energy_uj");
    // The CSV header is the label, the axes, then the metrics.
    const std::vector<EmitPoint> points = {{"p", {{"ax", "1"}}}};
    const std::vector<RunResult> results = {fabricatedResult(0)};
    const std::string csv = scenario::emitCsv(points, results);
    EXPECT_EQ(csv.substr(0, csv.find(',')), "label");
    EXPECT_NE(csv.find("label,ax,cycles"), std::string::npos);
}

TEST(Emit, CsvQuotesFieldsContainingCommas)
{
    const std::vector<EmitPoint> points = {{"a,b", {{"ax", "x\"y"}}}};
    const std::vector<RunResult> results = {fabricatedResult(0)};
    const std::string csv = scenario::emitCsv(points, results);
    // RFC-4180: embedded commas quoted, embedded quotes doubled --
    // the row keeps exactly one cell per header column.
    EXPECT_NE(csv.find("\n\"a,b\",\"x\"\"y\","), std::string::npos);
}

// ------------------------------------------- expect relations

namespace
{

using Verdict = scenario::RelationOutcome::Verdict;

/** A 2 x 2 grid (AN, RN) x (shared, adaptive) with @p expect. */
Scenario
expectScenario(const std::string &expect)
{
    return Scenario::fromKv(
        Scenario::parseScnText("sweep {\n"
                               "  workload = AN, RN\n"
                               "  llc_policy = shared, adaptive\n"
                               "}\n"
                               "expect {\n" +
                                   expect + "}\n",
                               "e.scn"),
        "e.scn");
}

/** The adaptive/shared IPC gain of every workload. */
const std::string kGain = "  pair = llc_policy: adaptive / shared\n"
                          "  metric = ipc\n"
                          "  agg = hmean\n";

/** Hand-built results: shared IPC 1, adaptive IPC @p adaptive_ipc. */
std::vector<RunResult>
gridResults(const std::vector<EmitPoint> &points, double adaptive_ipc)
{
    std::vector<RunResult> results(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const bool adaptive = points[i].coords[1].second == "adaptive";
        results[i].ipc = adaptive ? adaptive_ipc : 1.0;
        results[i].cycles = 1000;
        results[i].instructions = adaptive ? 3000 : 1000;
        results[i].llcReadMissRate = adaptive ? 0.25 : 0.5;
    }
    return results;
}

std::vector<scenario::RelationOutcome>
evaluate(const Scenario &s, double adaptive_ipc,
         const std::vector<std::string> &errors = {},
         const std::string &skip = "")
{
    const auto points = scenario::emitPoints(s.expand());
    return scenario::evaluateRelations(
        s.relations(), points, gridResults(points, adaptive_ipc),
        errors.empty() ? std::vector<std::string>(points.size())
                       : errors,
        skip);
}

} // namespace

TEST(Expect, RelationThatHoldsPasses)
{
    const Scenario s = expectScenario(
        kGain + "  gain {\n    holds = > 1\n    paper = 1.28\n  }\n");
    const auto out = evaluate(s, 2.0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].verdict, Verdict::Pass);
    EXPECT_DOUBLE_EQ(out[0].measured, 2.0);
    EXPECT_EQ(scenario::countFailures(out), 0u);
    const std::string table = scenario::renderOutcomes(s.relations(), out);
    EXPECT_NE(table.find("| gain | 2 | > 1 | 1.28 | PASS |"),
              std::string::npos)
        << table;
}

TEST(Expect, ViolatedRelationFails)
{
    const Scenario s = expectScenario(
        kGain + "  gain {\n    holds = > 1\n    paper = 1.28\n  }\n");
    const auto out = evaluate(s, 0.5);
    EXPECT_EQ(out[0].verdict, Verdict::Violated);
    EXPECT_EQ(scenario::countFailures(out), 1u);
}

TEST(Expect, KnownDeviationFailsInBothDirections)
{
    const Scenario s = expectScenario(
        kGain + "  gain {\n    holds = > 1\n    paper = 1.28\n"
                "    known_deviation = \"0.5 vs paper 1.28\"\n  }\n");
    // Tagged and violated: reported, not a failure.
    const auto violated = evaluate(s, 0.5);
    EXPECT_EQ(violated[0].verdict, Verdict::Deviation);
    EXPECT_EQ(scenario::countFailures(violated), 0u);
    EXPECT_NE(scenario::renderOutcomes(s.relations(), violated)
                  .find("DEVIATION (known: 0.5 vs paper 1.28)"),
              std::string::npos);
    // Tagged but holding: the tag is stale, which is a failure.
    const auto holds = evaluate(s, 2.0);
    EXPECT_EQ(holds[0].verdict, Verdict::StaleTag);
    EXPECT_EQ(scenario::countFailures(holds), 1u);
}

TEST(Expect, MissingPointIsNotEvaluated)
{
    const Scenario s = expectScenario(
        kGain + "  gain {\n    where.workload = AN, RN\n"
                "    holds = > 1\n    paper = 1.28\n  }\n");
    // The grid without RN (as after sweep.workload=AN).
    const auto all = scenario::emitPoints(s.expand());
    const std::vector<EmitPoint> an(all.begin(), all.begin() + 2);
    auto out = scenario::evaluateRelations(
        s.relations(), an, gridResults(an, 2.0), {"", ""});
    EXPECT_EQ(out[0].verdict, Verdict::NotEvaluated);
    EXPECT_EQ(out[0].reason, "missing point workload=RN");
    EXPECT_EQ(scenario::countFailures(out), 0u);

    // A point without its pair partner.
    const std::vector<EmitPoint> no_partner(all.begin(), all.begin() + 3);
    out = scenario::evaluateRelations(s.relations(), no_partner,
                                      gridResults(no_partner, 2.0),
                                      {"", "", ""});
    EXPECT_EQ(out[0].verdict, Verdict::NotEvaluated);
    EXPECT_EQ(out[0].reason,
              "missing point llc_policy=adaptive beside RN/shared");
}

TEST(Expect, FailedPointIsNotEvaluated)
{
    const Scenario s = expectScenario(
        kGain + "  gain {\n    holds = > 1\n    paper = 1.28\n  }\n");
    const auto out = evaluate(s, 2.0, {"", "", "", "simulation error"});
    EXPECT_EQ(out[0].verdict, Verdict::NotEvaluated);
    EXPECT_EQ(out[0].reason, "failed point RN/adaptive");
}

TEST(Expect, SmokeRunIsNotEvaluated)
{
    const Scenario s = expectScenario(
        kGain + "  gain {\n    holds = > 1\n    paper = 1.28\n  }\n"
                "  worse {\n    holds = < gain\n    paper = 1\n  }\n");
    const auto out = evaluate(s, 0.5, {}, "smoke run");
    for (const auto &o : out) {
        EXPECT_EQ(o.verdict, Verdict::NotEvaluated);
        EXPECT_EQ(o.reason, "smoke run");
    }
    EXPECT_EQ(scenario::countFailures(out), 0u);
    EXPECT_NE(scenario::renderOutcomes(s.relations(), out)
                  .find("| gain | - | > 1 | 1.28 | not evaluated (smoke "
                        "run) |"),
              std::string::npos);
}

TEST(Expect, OrderingsDifferencesAndQuotients)
{
    const Scenario s = expectScenario(
        "  agg = mean\n"
        "  ipc_gain {\n    pair = llc_policy: adaptive / shared\n"
        "    metric = ipc\n    holds = > 1\n    paper = 1\n  }\n"
        "  miss_drop {\n    pair = llc_policy: adaptive - shared\n"
        "    metric = llc_read_miss_rate\n    holds = < 0\n"
        "    paper = -0.1\n  }\n"
        "  per_cycle {\n    where.llc_policy = adaptive\n"
        "    metric = instructions/cycles\n    agg = max\n"
        "    holds = > ipc_gain\n    paper = 3\n  }\n");
    const auto out = evaluate(s, 1.5);
    EXPECT_DOUBLE_EQ(out[0].measured, 1.5);
    EXPECT_DOUBLE_EQ(out[1].measured, -0.25);
    EXPECT_DOUBLE_EQ(out[2].measured, 3.0);
    EXPECT_DOUBLE_EQ(out[2].rhs, 1.5);
    for (const auto &o : out)
        EXPECT_EQ(o.verdict, Verdict::Pass);
    // An ordering against a relation that could not be evaluated
    // cannot be evaluated either.
    const auto all = scenario::emitPoints(s.expand());
    const std::vector<EmitPoint> adaptive = {all[1], all[3]};
    const auto partial = scenario::evaluateRelations(
        s.relations(), adaptive, gridResults(adaptive, 1.5), {"", ""});
    EXPECT_EQ(partial[2].verdict, Verdict::NotEvaluated);
    EXPECT_EQ(partial[2].reason,
              "ipc_gain: missing point llc_policy=shared beside "
              "AN/adaptive");
}

TEST(Expect, UnknownNamesAreFatalWithTheNearestSpelling)
{
    const std::string tail = "    holds = > 1\n    paper = 1\n  }\n";
    AMSC_EXPECT_THROW_MSG(
        expectScenario("  r {\n    metric = ipcc\n    agg = hmean\n" +
                       tail),
        ConfigError, "unknown column 'ipcc'; nearest is 'ipc'");
    AMSC_EXPECT_THROW_MSG(
        expectScenario(kGain + "  r {\n    where.worklod = AN\n" + tail),
        ConfigError, "unknown axis 'worklod'; nearest is 'workload'");
    AMSC_EXPECT_THROW_MSG(
        expectScenario("  metric = ipc\n  agg = hmean\n  r {\n"
                       "    pair = llc_polcy: adaptive / shared\n" +
                       tail),
        ConfigError, "unknown axis 'llc_polcy'; nearest is 'llc_policy'");
    AMSC_EXPECT_THROW_MSG(
        expectScenario(kGain + "  r {\n    metrc = ipc\n" + tail),
        ConfigError, "nearest is 'expect.r.metric'");
    AMSC_EXPECT_THROW_MSG(
        expectScenario("  agr = hmean\n"), ConfigError,
        "nearest is 'expect.agg'");
    AMSC_EXPECT_THROW_MSG(
        expectScenario(kGain + "  gain {\n" + tail +
                       "  r {\n    holds = > gian\n    paper = 1\n  }\n"),
        ConfigError, "unknown relation 'gian'; nearest is 'gain'");
    AMSC_EXPECT_THROW_MSG(
        expectScenario(kGain + "  r {\n    paper = 1\n  }\n"),
        ConfigError, "needs metric, agg, holds and paper");
    AMSC_EXPECT_THROW_MSG(
        expectScenario(kGain + "  r {\n    holds = 1\n    paper = 1\n"
                       "  }\n"),
        ConfigError, "holds");
}

TEST(Expect, ShippedRelationsSelectPointsOfTheirGrid)
{
    // Every relation of a shipped scenario finds all its points in
    // the scenario's own grid, so a full run evaluates it (a typo in
    // a `where` value would otherwise leave it "not evaluated").
    for (const std::string &path : shippedScenarios()) {
        const Scenario s = Scenario::load(path);
        if (s.relations().empty())
            continue;
        SCOPED_TRACE(path);
        const auto points = scenario::emitPoints(s.expand());
        std::vector<RunResult> results(points.size(),
                                       fabricatedResult(0));
        const auto out = scenario::evaluateRelations(
            s.relations(), points, results,
            std::vector<std::string>(points.size()));
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_NE(out[i].verdict, Verdict::NotEvaluated)
                << s.relations()[i].name << ": " << out[i].reason;
        }
    }
}
