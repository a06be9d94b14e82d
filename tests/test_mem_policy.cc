/**
 * @file
 * Property and differential tests for the pluggable memory backend
 * (mem/mem_scheduler.hh, mem/mem_backend.hh), in the style of
 * tests/test_replacement.cc:
 *
 *  1. a timing-legality checker replayed over 10k-request random
 *     streams for every scheduler x backend combination, validating
 *     the command schedule the controller emits (tRRD/tFAW windows,
 *     tRCD, tRC, tCCD and bank-group spacing, tWTR turnaround, write
 *     recovery gating precharge, refresh blackout, bus exclusivity);
 *  2. an FCFS std-reference oracle: under mem_sched=fcfs the issue
 *     order must equal the enqueue order exactly;
 *  3. legacy-schedule pinning: where the new constraints do not bind
 *     (reads, one bank, refresh off), the controller reproduces the
 *     seed model's schedule cycle for cycle;
 *  4. a "no silently-inert knobs" regression: every dram_* registry
 *     key, mem_sched and mem_backend must measurably perturb
 *     RunResult on a bank-conflict-heavy synthetic workload;
 *  5. the ablation_memory scenario grid (expansion + emit golden);
 *  6. a DRAM-backpressure golden: full controller queues and stalled
 *     LLC reads under every scheduler x LLC policy x cycle driver,
 *     plus a restore from a checkpoint taken while reads are stalled
 *     and controller picks are gated.
 */

#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/mem_backend.hh"
#include "mem/memory_controller.hh"
#include "mem/memory_system.hh"
#include "scenario/emit.hh"
#include "scenario/scenario.hh"
#include "sim/gpu_system.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

namespace amsc
{

namespace
{

const std::string kSourceDir = AMSC_SOURCE_DIR;

// ------------------------------------------------- backend presets

TEST(MemBackend, Gddr5PresetIsTheDefaultConfiguration)
{
    // mem_backend=gddr5 must be a no-op on a default SimConfig: the
    // preset *is* Table 1.
    SimConfig def;
    SimConfig cfg;
    applyMemBackend(cfg, MemBackend::Gddr5);
    for (const ConfigKeyInfo &k : ConfigRegistry::keys())
        EXPECT_EQ(k.get(cfg), k.get(def)) << k.name;
}

TEST(MemBackend, PresetsAreMutuallyDistinct)
{
    const MemBackendPreset &g = memBackendPreset(MemBackend::Gddr5);
    const MemBackendPreset &h = memBackendPreset(MemBackend::Hbm2);
    const MemBackendPreset &s = memBackendPreset(MemBackend::Scm);
    EXPECT_NE(h.bankGroups, g.bankGroups);
    EXPECT_GT(h.banksPerMc, g.banksPerMc);
    EXPECT_LT(h.rowBytes, g.rowBytes);
    // SCM: the read/write asymmetry and the non-volatility.
    EXPECT_GT(s.timings.tWR, 4 * g.timings.tWR);
    EXPECT_EQ(s.timings.tREFI, 0u);
    EXPECT_NE(g.timings.tREFI, 0u);
    EXPECT_NE(h.timings.tREFI, 0u);
}

TEST(MemBackend, LaterDramKeysOverrideThePreset)
{
    SimConfig cfg;
    ConfigRegistry::apply(cfg, "mem_backend", "hbm2");
    ConfigRegistry::apply(cfg, "dram_trrd", "9");
    EXPECT_EQ(cfg.memBackend, MemBackend::Hbm2);
    EXPECT_EQ(cfg.dramTimings.tRRD, 9u);
    EXPECT_EQ(cfg.dramBankGroups,
              memBackendPreset(MemBackend::Hbm2).bankGroups);
    // And the CLI path (applyKv, registry order) agrees.
    KvArgs kv =
        KvArgs::parseText("mem_backend = scm\ndram_twr = 33\n");
    SimConfig cli;
    cli.applyKv(kv);
    EXPECT_EQ(cli.memBackend, MemBackend::Scm);
    EXPECT_EQ(cli.dramTimings.tWR, 33u);
    EXPECT_EQ(cli.dramTimings.tREFI, 0u);
}

// --------------------------------------- legacy-schedule pinning

/**
 * Where no controller-scope constraint binds -- reads only (no
 * tCWL/tWTR/tWR), a single bank (tRRD/tFAW dominated by tRC),
 * refresh disabled -- the schedule must be the seed model's, cycle
 * for cycle: ACT at tRC from the cold bank's epoch, column tRCD
 * later, data tCL after the column command, burst on the bus.
 */
TEST(MemPinning, DefaultPathMatchesSeedScheduleWhereConstraintsDontBind)
{
    DramParams p; // default GDDR5 timings
    p.timings.tREFI = 0;
    p.banksPerMc = 4;
    p.busBytesPerCycle = 64; // 2-cycle bursts
    p.queueCapacity = 16;
    MemoryController mc(0, p, MemSched::FrFcfs);
    std::vector<std::pair<std::uint64_t, Cycle>> done;
    mc.setReadCallback([&done](const DramRequest &r, Cycle now) {
        done.emplace_back(r.token, now);
    });

    DramRequest r1; // cold bank: ACT at tRC(40), col 52, data 64..66
    r1.bank = 0;
    r1.row = 1;
    r1.token = 1;
    DramRequest r2 = r1; // row hit at bank-free 54, data 66..68
    r2.token = 2;
    DramRequest r3 = r1; // conflict: PRE 68 (tRAS), ACT 80, col 92
    r3.row = 2;
    r3.token = 3;
    mc.enqueue(r1, 0);
    mc.enqueue(r2, 0);
    mc.enqueue(r3, 0);
    for (Cycle c = 0; c < 200; ++c)
        mc.tick(c);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], (std::pair<std::uint64_t, Cycle>{1, 66}));
    EXPECT_EQ(done[1], (std::pair<std::uint64_t, Cycle>{2, 68}));
    EXPECT_EQ(done[2], (std::pair<std::uint64_t, Cycle>{3, 106}));
    EXPECT_EQ(mc.stats().rowHits, 1u);
    EXPECT_EQ(mc.stats().rowMisses, 2u);
}

// --------------------------------------------- timing legality

/** Collected command schedule of one controller run. */
struct CommandLog
{
    std::vector<McCommand> cmds;
};

/**
 * Drive @p mc with @p n random requests (mixed reads/writes over a
 * small row/bank space so conflicts are common) and return the
 * command log.
 */
CommandLog
randomStream(MemoryController &mc, std::size_t n, std::uint64_t seed)
{
    CommandLog log;
    mc.setCommandObserver(
        [&log](const McCommand &c) { log.cmds.push_back(c); });
    Rng rng(seed);
    std::size_t submitted = 0;
    Cycle now = 0;
    const Cycle bound = 1000000;
    while ((submitted < n || !mc.drained()) && now < bound) {
        if (submitted < n && mc.canAccept() &&
            rng.below(4) != 0) {
            DramRequest r;
            r.bank = static_cast<std::uint32_t>(
                rng.below(mc.params().banksPerMc));
            r.row = rng.below(24);
            r.isWrite = rng.below(10) < 3;
            r.token = submitted;
            mc.enqueue(r, now);
            ++submitted;
        }
        mc.tick(now);
        ++now;
    }
    EXPECT_LT(now, bound) << "stream did not drain";
    return log;
}

/** Assert every constraint over a recorded command schedule. */
void
checkLegality(const CommandLog &log, const DramParams &p)
{
    const DramTimings &t = p.timings;
    std::vector<Cycle> acts; // all ACT times, issue order
    std::map<std::uint32_t, Cycle> bankAct;
    std::map<std::uint32_t, Cycle> bankCol;
    std::map<std::uint32_t, std::uint64_t> openRow;
    std::map<std::uint32_t, Cycle> bankWdataEnd;
    Cycle lastWdataEnd = 0;
    bool anyWrite = false;
    Cycle lastCol = 0;
    bool anyCol = false;
    std::map<std::uint32_t, Cycle> groupCol;
    Cycle lastDataEnd = 0;
    Cycle lastRefresh = 0;
    bool anyRefresh = false;

    for (const McCommand &c : log.cmds) {
        if (anyRefresh) {
            // Refresh blackout: banks are busy for tRFC.
            if (c.kind != McCommand::Kind::Refresh) {
                EXPECT_GE(c.at, lastRefresh + t.tRFC);
            }
        }
        switch (c.kind) {
          case McCommand::Kind::Activate: {
            if (!acts.empty()) {
                EXPECT_GE(c.at, acts.back() + t.tRRD)
                    << "tRRD violated";
                if (t.tFAW != 0 && acts.size() >= 4) {
                    EXPECT_GE(c.at, acts[acts.size() - 4] + t.tFAW)
                        << "tFAW violated";
                }
            }
            if (bankAct.count(c.bank)) {
                EXPECT_GE(c.at, bankAct[c.bank] + t.tRC)
                    << "tRC violated on bank " << c.bank;
            }
            if (bankWdataEnd.count(c.bank)) {
                // Write recovery gates precharge, precharge gates
                // the re-activate.
                EXPECT_GE(c.at, bankWdataEnd[c.bank] + t.tWR + t.tRP)
                    << "tWR violated on bank " << c.bank;
            }
            acts.push_back(c.at);
            bankAct[c.bank] = c.at;
            openRow[c.bank] = c.row;
            break;
          }
          case McCommand::Kind::Read:
          case McCommand::Kind::Write: {
            // Column commands only ever target the open row, tRCD
            // after its activation.
            ASSERT_TRUE(openRow.count(c.bank));
            EXPECT_EQ(openRow[c.bank], c.row);
            EXPECT_GE(c.at, bankAct[c.bank] + t.tRCD)
                << "tRCD violated";
            if (bankCol.count(c.bank)) {
                EXPECT_GE(c.at, bankCol[c.bank] + t.tCCD)
                    << "tCCD violated";
            }
            bankCol[c.bank] = c.at;
            if (p.bankGroups > 1) {
                // tCCD_S to the previous column of ANY group,
                // tCCD_L to the previous column of the SAME group --
                // even with other groups' commands in between.
                const std::uint32_t group = p.groupOf(c.bank);
                if (anyCol) {
                    EXPECT_GE(c.at, lastCol + t.tCCD_S)
                        << "tCCD_S violated";
                }
                if (groupCol.count(group)) {
                    EXPECT_GE(c.at, groupCol[group] + t.tCCD_L)
                        << "tCCD_L violated";
                }
                groupCol[group] = c.at;
            }
            lastCol = c.at;
            anyCol = true;
            if (c.kind == McCommand::Kind::Read) {
                EXPECT_GE(c.dataStart, c.at + t.tCL);
                if (anyWrite) {
                    EXPECT_GE(c.at, lastWdataEnd + t.tWTR)
                        << "tWTR violated";
                }
            } else {
                EXPECT_GE(c.dataStart, c.at + t.tCWL);
                lastWdataEnd = c.dataEnd;
                bankWdataEnd[c.bank] = c.dataEnd;
                anyWrite = true;
            }
            // Bus exclusivity: issue order == bus order.
            EXPECT_GE(c.dataStart, lastDataEnd) << "bus overlap";
            EXPECT_EQ(c.dataEnd, c.dataStart + p.burstCycles());
            lastDataEnd = c.dataEnd;
            break;
          }
          case McCommand::Kind::Refresh: {
            if (anyRefresh) {
                EXPECT_GE(c.at, lastRefresh + t.tREFI)
                    << "refresh interval violated";
            }
            // The implicit all-bank precharge must be legal: tRAS
            // since each open row's activate, and write recovery
            // complete on written banks.
            for (const auto &[bank, row] : openRow) {
                (void)row;
                EXPECT_GE(c.at, bankAct[bank] + t.tRAS)
                    << "refresh precharged bank " << bank
                    << " inside tRAS";
                if (bankWdataEnd.count(bank)) {
                    EXPECT_GE(c.at, bankWdataEnd[bank] + t.tWR)
                        << "refresh precharged bank " << bank
                        << " inside write recovery";
                }
            }
            lastRefresh = c.at;
            anyRefresh = true;
            // Refresh closes every row.
            openRow.clear();
            break;
          }
        }
    }
    if (t.tREFI != 0) {
        EXPECT_TRUE(anyRefresh) << "refresh never exercised";
    }
}

/** Controller parameter block of one backend, test-sized. */
DramParams
backendParams(MemBackend backend)
{
    const MemBackendPreset &preset = memBackendPreset(backend);
    DramParams p;
    p.timings = preset.timings;
    p.bankGroups = preset.bankGroups;
    p.banksPerMc = 8; // small bank space: frequent conflicts
    p.busBytesPerCycle = 64;
    p.rowBytes = preset.rowBytes;
    p.queueCapacity = 16;
    if (p.timings.tREFI != 0) {
        // Shrink the refresh interval so 10k requests cross many
        // refresh windows.
        p.timings.tREFI = 997;
        p.timings.tRFC = 120;
    }
    return p;
}

class MemLegality
    : public ::testing::TestWithParam<std::tuple<MemSched, MemBackend>>
{
};

TEST_P(MemLegality, RandomStreamObeysEveryTimingConstraint)
{
    const auto [sched, backend] = GetParam();
    const DramParams p = backendParams(backend);
    MemoryController mc(0, p, sched);
    const CommandLog log = randomStream(mc, 10000, 0x5eed +
        static_cast<std::uint64_t>(backend) * 17 +
        static_cast<std::uint64_t>(sched));
    ASSERT_GT(log.cmds.size(), 10000u);
    checkLegality(log, p);
    EXPECT_EQ(mc.stats().reads + mc.stats().writes, 10000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulersAndBackends, MemLegality,
    ::testing::Combine(::testing::Values(MemSched::FrFcfs,
                                         MemSched::Fcfs,
                                         MemSched::WriteDrain),
                       ::testing::Values(MemBackend::Gddr5,
                                         MemBackend::Hbm2,
                                         MemBackend::Scm)),
    [](const auto &info) {
        return memSchedName(std::get<0>(info.param)) + "_" +
            memBackendName(std::get<1>(info.param));
    });

// ------------------------------------------------ FCFS oracle

TEST(MemSchedulers, FcfsIssuesInExactEnqueueOrder)
{
    // std::deque reference model: strict in-order service means the
    // column-command stream replays the enqueue stream exactly.
    DramParams p = backendParams(MemBackend::Gddr5);
    MemoryController mc(0, p, MemSched::Fcfs);
    std::deque<DramRequest> expected;
    std::vector<McCommand> cols;
    mc.setCommandObserver([&cols](const McCommand &c) {
        if (c.kind == McCommand::Kind::Read ||
            c.kind == McCommand::Kind::Write)
            cols.push_back(c);
    });
    Rng rng(99);
    std::size_t submitted = 0;
    Cycle now = 0;
    while ((submitted < 10000 || !mc.drained()) && now < 1000000) {
        if (submitted < 10000 && mc.canAccept() &&
            rng.below(3) != 0) {
            DramRequest r;
            r.bank = static_cast<std::uint32_t>(
                rng.below(p.banksPerMc));
            r.row = rng.below(16);
            r.isWrite = rng.below(10) < 3;
            r.token = submitted;
            mc.enqueue(r, now);
            expected.push_back(r);
            ++submitted;
        }
        mc.tick(now);
        ++now;
    }
    ASSERT_EQ(cols.size(), 10000u);
    // The *decision* order is strict FIFO; the column-command
    // timestamps may interleave (a conflict's column lands after a
    // younger row hit's), so only the sequence is compared.
    for (const McCommand &c : cols) {
        ASSERT_FALSE(expected.empty());
        const DramRequest want = expected.front();
        expected.pop_front();
        EXPECT_EQ(c.bank, want.bank);
        EXPECT_EQ(c.row, want.row);
        EXPECT_EQ(c.kind == McCommand::Kind::Write, want.isWrite);
    }
    EXPECT_TRUE(expected.empty());
}

TEST(MemSchedulers, WriteDrainBatchesWritesAtTheWatermark)
{
    DramParams p;
    p.banksPerMc = 8;
    p.queueCapacity = 8; // high watermark 4, low 1
    p.timings.tREFI = 0;
    MemoryController mc(0, p, MemSched::WriteDrain);
    std::vector<McCommand::Kind> order;
    mc.setCommandObserver([&order](const McCommand &c) {
        if (c.kind != McCommand::Kind::Activate)
            order.push_back(c.kind);
    });
    // 4 writes (>= high watermark) and one read, all at cycle 0.
    for (std::uint32_t i = 0; i < 4; ++i) {
        DramRequest w;
        w.bank = i;
        w.row = 1;
        w.isWrite = true;
        mc.enqueue(w, 0);
    }
    DramRequest r;
    r.bank = 5;
    r.row = 1;
    mc.enqueue(r, 0);
    for (Cycle c = 0; c < 2000; ++c)
        mc.tick(c);
    ASSERT_EQ(order.size(), 5u);
    // Drain mode engages immediately: the read does NOT go first,
    // but escapes before the final write once the drain falls back
    // under the low watermark.
    EXPECT_EQ(order.front(), McCommand::Kind::Write);
    EXPECT_NE(order.back(), McCommand::Kind::Read);
    EXPECT_EQ(mc.stats().writeDrainEntries, 1u);
    EXPECT_EQ(mc.stats().writes, 4u);
    EXPECT_EQ(mc.stats().reads, 1u);
}

TEST(MemSchedulers, SchedulersProduceDifferentSchedules)
{
    // Same stream, different pick policies: the bus-order fingerprint
    // must differ between fr_fcfs and fcfs (row hits reordered).
    auto fingerprint = [](MemSched sched) {
        DramParams p = backendParams(MemBackend::Gddr5);
        p.timings.tREFI = 0;
        MemoryController mc(0, p, sched);
        std::vector<std::uint64_t> rows;
        mc.setCommandObserver([&rows](const McCommand &c) {
            if (c.kind != McCommand::Kind::Activate)
                rows.push_back(c.row * 100 + c.bank);
        });
        Rng rng(7);
        std::size_t submitted = 0;
        Cycle now = 0;
        while ((submitted < 400 || !mc.drained()) && now < 100000) {
            if (submitted < 400 && mc.canAccept()) {
                DramRequest r;
                r.bank = static_cast<std::uint32_t>(
                    rng.below(p.banksPerMc));
                r.row = rng.below(4);
                r.isWrite = rng.below(10) < 3;
                mc.enqueue(r, now);
                ++submitted;
            }
            mc.tick(now);
            ++now;
        }
        return rows;
    };
    EXPECT_NE(fingerprint(MemSched::FrFcfs),
              fingerprint(MemSched::Fcfs));
}

// ---------------------------------------------- backpressure stat

TEST(MemorySystemStats, QueueFullRejectsCountBackpressure)
{
    MappingParams mp;
    mp.scheme = MappingScheme::Hynix; // linear: addr 0 -> MC 0
    AddressMapping mapping(mp);
    DramParams p;
    p.queueCapacity = 1;
    MemorySystem mem(8, p, mapping);
    ASSERT_TRUE(mem.canAccept(0));
    mem.access(0, false, 0, 0);
    // The owning MC is full now: every refused ask is counted, the
    // way the LLC slice retries count stall cycles.
    EXPECT_FALSE(mem.canAccept(0));
    EXPECT_FALSE(mem.canAccept(0));
    EXPECT_EQ(mem.aggregateStats().queueFullRejects, 2u);
    // A different MC's queue is unaffected.
    EXPECT_TRUE(mem.canAccept(16));
    EXPECT_EQ(mem.aggregateStats().queueFullRejects, 2u);
}

// ---------------------------------- no-silently-inert-knob ratchet

/** Bank-conflict-heavy base point: small GPU, writes, zipf spread. */
SweepPoint
conflictPoint()
{
    SimConfig cfg;
    cfg.numSms = 16;
    cfg.numClusters = 4;
    cfg.numMcs = 4;
    cfg.slicesPerMc = 4;
    cfg.maxResidentWarps = 16;
    cfg.maxResidentCtas = 2;
    cfg.maxCycles = 12000; // > tREFI so refresh binds
    cfg.profileLen = 1000;
    cfg.epochLen = 50000;
    // Bank groups on in the base so the group-spacing knobs are live.
    cfg.dramBankGroups = 4;

    TraceParams t;
    t.pattern = AccessPattern::ZipfShared;
    t.sharedLines = 1 << 16; // 8 MB: thousands of rows, all banks
    t.sharedFraction = 1.0;
    t.zipfAlpha = 0.35; // flat skew: misses spray rows -> conflicts
    t.writeFraction = 0.3;
    t.memInstrsPerWarp = 2000;
    t.computePerMem = 1;
    t.seed = 5;

    WorkloadSpec spec;
    spec.abbr = "CONFLICT";
    spec.fullName = "bank-conflict synthetic";
    spec.numCtas = 64;
    spec.warpsPerCta = 4;
    spec.trace = t;

    SweepPoint p;
    p.label = "conflict";
    p.cfg = cfg;
    p.apps = {spec};
    return p;
}

TEST(DramKnobRegression, EveryDramKeyPerturbsTheRun)
{
    // dram_trrd was once registered but unenforced -- printed in the
    // config summary, inert in the model. This ratchet makes that
    // class of bug fail CI: every dram_* key (plus banks_per_mc,
    // mem_sched, mem_backend) must change RunResult on a
    // bank-conflict-heavy workload. Adding a dram_* key without a
    // perturbation entry here fails the coverage check below.
    const std::map<std::string, std::string> perturb = {
        {"dram_tcl", "40"},      {"dram_tcwl", "40"},
        {"dram_trp", "40"},      {"dram_trc", "120"},
        {"dram_tras", "90"},     {"dram_trcd", "40"},
        {"dram_trrd", "24"},     {"dram_tfaw", "120"},
        {"dram_tccd", "12"},     {"dram_tccd_l", "16"},
        {"dram_tccd_s", "12"},   {"dram_twr", "60"},
        {"dram_twtr", "40"},     {"dram_trefi", "800"},
        {"dram_trfc", "700"},    {"banks_per_mc", "4"},
        {"dram_bank_groups", "1"}, {"dram_bus_bytes", "16"},
        {"dram_row_bytes", "256"}, {"dram_queue_cap", "4"},
        {"mem_sched", "fcfs"},   {"mem_backend", "hbm2"},
    };
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        const std::string name = k.name;
        if (name.rfind("dram_", 0) == 0 || name == "banks_per_mc" ||
            name == "mem_sched" || name == "mem_backend") {
            EXPECT_TRUE(perturb.count(name))
                << "no perturbation entry for '" << name
                << "' -- add one so the knob can never be silently "
                   "inert";
        }
    }

    const SweepPoint base = conflictPoint();
    const RunResult base_r = SweepRunner::runPoint(base);
    EXPECT_GT(base_r.dramAccesses, 1000u);
    EXPECT_GT(base_r.dramRefreshes, 0u);

    for (const auto &[key, value] : perturb) {
        SweepPoint p = base;
        ConfigRegistry::apply(p.cfg, key, value);
        p.cfg.validate();
        const RunResult r = SweepRunner::runPoint(p);
        EXPECT_FALSE(identicalResults(base_r, r))
            << key << "=" << value << " did not perturb the run";
    }
}

TEST(DramKnobRegression, SchedulersAndBackendsDifferEndToEnd)
{
    const SweepPoint base = conflictPoint();
    std::vector<RunResult> results;
    for (const char *kv :
         {"mem_sched=fr_fcfs", "mem_sched=fcfs",
          "mem_sched=write_drain"}) {
        SweepPoint p = base;
        const std::string s(kv);
        ConfigRegistry::apply(p.cfg, "mem_sched",
                              s.substr(s.find('=') + 1));
        results.push_back(SweepRunner::runPoint(p));
    }
    EXPECT_FALSE(identicalResults(results[0], results[1]));
    EXPECT_FALSE(identicalResults(results[0], results[2]));
    EXPECT_FALSE(identicalResults(results[1], results[2]));
    // write_drain is the only policy that enters drain mode.
    EXPECT_EQ(results[0].dramWriteDrains, 0u);
    EXPECT_GT(results[2].dramWriteDrains, 0u);

    std::vector<RunResult> backends;
    for (const char *b : {"gddr5", "hbm2", "scm"}) {
        SweepPoint p = base;
        ConfigRegistry::apply(p.cfg, "mem_backend", b);
        backends.push_back(SweepRunner::runPoint(p));
    }
    EXPECT_FALSE(identicalResults(backends[0], backends[1]));
    EXPECT_FALSE(identicalResults(backends[0], backends[2]));
    EXPECT_FALSE(identicalResults(backends[1], backends[2]));
    // SCM never refreshes; the DRAM backends must.
    EXPECT_GT(backends[0].dramRefreshes, 0u);
    EXPECT_GT(backends[1].dramRefreshes, 0u);
    EXPECT_EQ(backends[2].dramRefreshes, 0u);
}

// ------------------------------------------- ablation_memory grid

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << "missing file: " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
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

/** Deterministic fabricated result for emitter goldens (no sim). */
RunResult
fabricatedResult(unsigned salt)
{
    RunResult r;
    r.cycles = 60000 + salt;
    r.instructions = 1000000 + 41 * salt;
    r.ipc = static_cast<double>(r.instructions) /
        static_cast<double>(r.cycles);
    r.appIpc = {r.ipc};
    r.appInstructions = {r.instructions};
    r.finishedWork = true;
    r.dramAccesses = 30000 + salt;
    r.dramRowHitRate = 0.4 + 0.003 * salt;
    r.dramRefreshes = salt % 12;
    r.dramQueueRejects = 19 * salt;
    r.dramWriteDrains = salt % 7;
    return r;
}

TEST(AblationMemory, ScenarioExpandsToTheDocumentedGrid)
{
    const scenario::Scenario s = scenario::Scenario::load(
        kSourceDir + "/scenarios/ablation_memory.scn");
    const auto points = s.expand();
    // 2 workloads x 3 backends x 3 schedulers x 2 tRRD values,
    // tRRD fastest, workload slowest (file axis order).
    ASSERT_EQ(points.size(), 36u);
    EXPECT_EQ(points[0].point.label, "LUD/gddr5/fr_fcfs/6");
    EXPECT_EQ(points[1].point.label, "LUD/gddr5/fr_fcfs/24");
    EXPECT_EQ(points[2].point.label, "LUD/gddr5/fcfs/6");
    EXPECT_EQ(points[18].point.label, "VA/gddr5/fr_fcfs/6");
    EXPECT_EQ(points[35].point.label, "VA/scm/write_drain/24");
    EXPECT_EQ(points[0].point.cfg.memBackend, MemBackend::Gddr5);
    EXPECT_EQ(points[35].point.cfg.memBackend, MemBackend::Scm);
    EXPECT_EQ(points[35].point.cfg.memSched, MemSched::WriteDrain);
    // The tRRD axis overrides the preset (declared after it).
    EXPECT_EQ(points[1].point.cfg.dramTimings.tRRD, 24u);
    for (const auto &ep : points) {
        if (ep.coords[1].second == "hbm2") {
            EXPECT_EQ(ep.point.cfg.dramBankGroups, 4u)
                << ep.point.label;
        }
    }
}

TEST(AblationMemory, ExpansionCsvMatchesGolden)
{
    const scenario::Scenario s = scenario::Scenario::load(
        kSourceDir + "/scenarios/ablation_memory.scn");
    const auto expanded = s.expand();
    std::vector<RunResult> results;
    results.reserve(expanded.size());
    for (std::size_t i = 0; i < expanded.size(); ++i)
        results.push_back(
            fabricatedResult(static_cast<unsigned>(i)));
    checkGolden("ablation_memory.csv",
                scenario::emitCsv(scenario::emitPoints(expanded),
                                  results));
}

TEST(AblationMemory, DefaultPointMatchesUntouchedDefaults)
{
    // The gddr5/fr_fcfs/6 point of the grid must be *the* baseline:
    // identicalResults against a run of the plain default
    // configuration, pinning that the backend/scheduler plumbing
    // does not perturb the default path.
    KvArgs kv = scenario::Scenario::parseScnFile(
        kSourceDir + "/scenarios/ablation_memory.scn");
    scenario::Scenario::applyOverride(kv, "max_cycles", "2500");
    scenario::Scenario::applyOverride(kv, "profile_len", "600");
    scenario::Scenario::applyOverride(kv, "epoch_len", "2000");
    const scenario::Scenario s = scenario::Scenario::fromKv(
        std::move(kv), "ablation<short>");
    const auto expanded = s.expand();
    ASSERT_EQ(expanded[0].point.label, "LUD/gddr5/fr_fcfs/6");

    SimConfig cfg; // untouched defaults (Table 1)
    cfg.maxCycles = 2500;
    cfg.profileLen = 600;
    cfg.epochLen = 2000;
    SweepPoint base;
    base.cfg = cfg;
    base.apps = {WorkloadSuite::byName("LUD")};

    const RunResult a = SweepRunner::runPoint(expanded[0].point);
    const RunResult b = SweepRunner::runPoint(base);
    EXPECT_TRUE(identicalResults(a, b));
}

// ------------------------------------------- DRAM backpressure golden

/**
 * A point whose DRAM queues stay full: the bank-conflict stream on
 * 16 KB slices with 4-entry controller queues and 8 LLC MSHRs, so
 * slices hold stalled reads while the controllers' picks wait on
 * busy banks (and adaptive crosses into private mode).
 */
SimConfig
backpressureConfig(const std::string &sched, const std::string &policy,
                   const std::string &mode)
{
    SimConfig cfg = conflictPoint().cfg;
    cfg.maxCycles = 8000;
    cfg.missTolerance = 0.3; // let adaptive reconfigure at this scale
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"mem_sched", sched},
             {"llc_policy", policy},
             {"sim_mode", mode},
             {"llc_slice_kb", "16"},
             {"dram_queue_cap", "4"},
             {"llc_mshrs", "8"}})
        ConfigRegistry::apply(cfg, key, value);
    cfg.validate();
    return cfg;
}

void
installBackpressureWorkload(GpuSystem &gpu, const SimConfig &cfg)
{
    gpu.setWorkload(0, WorkloadSuite::buildKernels(
                           conflictPoint().apps[0], cfg.seed, 0));
}

std::uint64_t
llcStallCycles(const GpuSystem &gpu)
{
    std::uint64_t sum = 0;
    for (SliceId s = 0; s < gpu.llc().numSlices(); ++s)
        sum += gpu.llc().slice(s).stats().stallCycles;
    return sum;
}

std::string
checkpointBytes(const GpuSystem &gpu)
{
    std::stringstream ss;
    gpu.checkpoint(ss);
    return ss.str();
}

/** Some slice holds a stalled request and some MC's pick is gated. */
bool
stalledAndGated(GpuSystem &gpu)
{
    bool stalled = false;
    for (SliceId s = 0; s < gpu.llc().numSlices(); ++s)
        stalled = stalled || gpu.llc().slice(s).stalled();
    bool gated = false;
    for (McId m = 0; m < gpu.memory().numMcs(); ++m) {
        const MemoryController &mc = gpu.memory().mc(m);
        gated = gated ||
            (mc.queuedRequests() != 0 &&
             mc.nextEventCycle(gpu.now()) > gpu.now());
    }
    return stalled && gated;
}

TEST(DramBackpressure, MatchesGoldenUnderBothDriversAndRestore)
{
    // Controllers pick only once a queued request's bank can issue,
    // and a stalled LLC read is retried only after a fill, a
    // miss-queue pop or an invalidation could have unblocked it. The
    // golden CSV was generated by the controller that picked and the
    // slices that retried every cycle: every emitted column and the
    // summed slice stall cycles must match it under both drivers.
    std::vector<scenario::EmitPoint> points;
    std::vector<RunResult> results;
    std::vector<std::uint64_t> stalls;
    for (const char *sched : {"fr_fcfs", "fcfs", "write_drain"}) {
        for (const char *policy : {"shared", "private", "adaptive"}) {
            for (const char *mode : {"tick", "event"}) {
                const SimConfig cfg =
                    backpressureConfig(sched, policy, mode);
                GpuSystem gpu(cfg);
                installBackpressureWorkload(gpu, cfg);
                results.push_back(gpu.run());
                stalls.push_back(llcStallCycles(gpu));
                EXPECT_GT(stalls.back(), 0u) << sched << "/" << policy;
                EXPECT_GT(results.back().dramQueueRejects, 0u)
                    << sched << "/" << policy;
                points.push_back(
                    {std::string(sched) + "/" + policy + "/" + mode,
                     {{"mem_sched", sched},
                      {"llc_policy", policy},
                      {"sim_mode", mode}}});
                if (std::string(mode) == "tick")
                    continue;
                EXPECT_TRUE(identicalResults(
                    results[results.size() - 2], results.back()))
                    << points.back().label;

                // Restore from a checkpoint taken while a read is
                // stalled and a pick is gated (neither the retry
                // flag nor the gate is checkpointed), then finish:
                // same result, same final checkpoint bytes.
                SimConfig head = cfg;
                head.maxCycles = 1;
                GpuSystem first(head);
                installBackpressureWorkload(first, head);
                first.run();
                while (!stalledAndGated(first) &&
                       first.now() < cfg.maxCycles)
                    first.step(1);
                ASSERT_LT(first.now(), cfg.maxCycles)
                    << points.back().label
                    << ": never stalled with a gated pick";
                std::stringstream ckpt;
                first.checkpoint(ckpt);
                GpuSystem resumed(cfg);
                installBackpressureWorkload(resumed, cfg);
                resumed.restore(ckpt);
                EXPECT_TRUE(
                    identicalResults(results.back(), resumed.run()))
                    << points.back().label << " restored at "
                    << first.now();
                EXPECT_EQ(checkpointBytes(gpu), checkpointBytes(resumed))
                    << points.back().label;
            }
        }
    }

    // The emitted CSV with the summed slice stall cycles appended.
    std::istringstream emitted(scenario::emitCsv(points, results));
    std::string csv;
    std::string line;
    std::getline(emitted, line);
    csv += line + ",llc_stall_cycles\n";
    for (const std::uint64_t sum : stalls) {
        std::getline(emitted, line);
        csv += line + "," + std::to_string(sum) + "\n";
    }
    checkGolden("dram_backpressure.csv", csv);
}

} // namespace
} // namespace amsc
