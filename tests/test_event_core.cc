/**
 * @file
 * Differential and property tests of the sim_mode=event cycle core.
 *
 * The event core (GpuSystem::jumpToNextEvent) replaces per-cycle
 * ticking with jumps to min(component nextEventCycle). Its contract
 * is byte-identity with the tick loop, which this file pins from
 * three directions:
 *
 *  - differential runs: representative configurations (adaptive
 *    transitions, multi-program partitioning, every NoC topology,
 *    fast-forward, instruction budgets) run under both drivers and
 *    the RunResults are compared with identicalResults();
 *  - randomized differential fuzz: a fixed-seed slice of the
 *    scenario fuzzer (scenario/diff_fuzz.hh) -- the CLI counterpart
 *    is `amsc fuzz`, which reruns campaigns at scale;
 *  - the event contract itself: a step(1) harness asserting that a
 *    tick at a cycle below the advertised next event changes no
 *    observable state (the "no component mutates early" rule), that
 *    the advertised event is stable across the no-op ticks it
 *    skips, and that a finished system is quiescent (kNoCycle);
 *  - checkpointing under event mode: periodic checkpoints land on
 *    the exact grid cycles the tick loop honors even when the clock
 *    jumps across them, the bytes match tick-mode bytes, and a
 *    checkpoint taken under one driver restores under the other
 *    (sim_mode is identity-excluded) to a bit-identical end state.
 *  - the active-set crossbars: zero-latency links, whose same-tick
 *    wake order only an index-ordered walk reproduces, are pinned by
 *    a golden CSV under both drivers; and the lazily accounted
 *    router cycles cover every network cycle across private-mode
 *    toggles, event jumps and a restore.
 *  - the active-set SMs and LLC slices: idle-heavy runs on three
 *    NoCs are pinned, lazily settled idle counters included, by a
 *    golden CSV under both drivers.
 *
 * The contract checker here is the Debug-build backstop for the
 * per-component nextEventCycle implementations: a component that
 * mutates state at a cycle earlier than its advertised event makes
 * the signature comparison fail on the exact cycle.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "noc/network_factory.hh"
#include "scenario/diff_fuzz.hh"
#include "scenario/emit.hh"
#include "scenario/scenario.hh"
#include "sim/gpu_system.hh"
#include "sim/sweep.hh"
#include "workloads/llm_inference.hh"
#include "workloads/trace_gen.hh"

namespace amsc
{

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "amsc_event_" + name;
}

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.numSms = 16;
    cfg.numClusters = 4;
    cfg.numMcs = 4;
    cfg.slicesPerMc = 4;
    cfg.maxResidentWarps = 16;
    cfg.maxResidentCtas = 2;
    cfg.maxCycles = 300000;
    cfg.profileLen = 1000;
    cfg.epochLen = 20000;
    return cfg;
}

TraceParams
baseParams(std::uint64_t seed)
{
    TraceParams t;
    t.pattern = AccessPattern::ZipfShared;
    t.sharedLines = 2048;
    t.sharedFraction = 0.6;
    t.privateLinesPerCta = 256;
    t.writeFraction = 0.1;
    t.atomicFraction = 0.05;
    t.memInstrsPerWarp = 60;
    t.computePerMem = 3;
    t.seed = seed;
    return t;
}

std::vector<KernelInfo>
defaultWorkload(std::uint64_t seed = 11)
{
    return {makeSyntheticKernel("k0", baseParams(seed), 32, 4)};
}

/** Broadcast-heavy workload that drives adaptive transitions. */
std::vector<KernelInfo>
broadcastWorkload(std::uint64_t seed)
{
    TraceParams t;
    t.pattern = AccessPattern::Broadcast;
    t.sharedLines = 4096;
    t.sharedFraction = 0.85;
    t.privateLinesPerCta = 128;
    t.writeFraction = 0.02;
    t.memInstrsPerWarp = 120;
    t.computePerMem = 2;
    t.seed = seed;
    return {makeSyntheticKernel("bk", t, 48, 4)};
}

/**
 * DRAM-round-trip stream with one resident CTA: most SMs retire
 * early and the machine spends long stretches waiting on exact
 * DelayQueue/DRAM events -- the workload class the event core jumps
 * across (see bench_harness's event_mode phase).
 */
std::vector<KernelInfo>
idleHeavyWorkload(std::uint64_t seed)
{
    TraceParams t;
    t.pattern = AccessPattern::PrivateStream;
    t.privateLinesPerCta = 100000;
    t.writeFraction = 0.0;
    t.memInstrsPerWarp = 2000;
    t.computePerMem = 0;
    t.seed = seed;
    return {makeSyntheticKernel("idle", t, 1, 1)};
}

RunResult
runMode(SimConfig cfg, SimMode mode,
        std::vector<std::vector<KernelInfo>> apps)
{
    cfg.simMode = mode;
    GpuSystem gpu(cfg);
    for (AppId a = 0; a < apps.size(); ++a)
        gpu.setWorkload(a, apps[a]);
    return gpu.run();
}

/** Both drivers on the same configuration and workloads. */
void
expectModesIdentical(const SimConfig &cfg,
                     std::vector<std::vector<KernelInfo>> apps)
{
    const RunResult tick = runMode(cfg, SimMode::Tick, apps);
    const RunResult event = runMode(cfg, SimMode::Event, apps);
    EXPECT_TRUE(identicalResults(tick, event))
        << "tick " << tick.cycles << " cycles / "
        << tick.instructions << " instrs vs event " << event.cycles
        << " cycles / " << event.instructions << " instrs";
}

/**
 * Observable-state signature for the event-contract checker: every
 * component statistic except the per-cycle activity counters the
 * event core compensates via advanceIdleCycles (Sm issueStallCycles,
 * LlcSystem cyclesPrivate/cyclesShared, router active/gated cycle
 * counts). Serialized through the checkpoint codec so padded structs
 * compare field-wise, never by raw memory.
 */
std::vector<std::uint8_t>
signature(GpuSystem &gpu)
{
    CkptWriter w;
    for (SmId s = 0; s < gpu.numSms(); ++s) {
        SmStats sm = gpu.sm(s).stats();
        sm.issueStallCycles = 0;
        w.pod(sm);
    }
    for (SliceId s = 0; s < gpu.llc().numSlices(); ++s)
        w.pod(gpu.llc().slice(s).stats());
    LlcSystemStats ctrl = gpu.llc().stats();
    ctrl.cyclesPrivate = 0;
    ctrl.cyclesShared = 0;
    w.pod(ctrl);
    ckptValue(w, gpu.llc().mode(0));
    for (McId m = 0; m < gpu.memory().numMcs(); ++m) {
        w.pod(gpu.memory().mc(m).stats());
        w.varint(gpu.memory().mc(m).pendingRequests());
    }
    w.pod(gpu.network().requestStats());
    w.pod(gpu.network().replyStats());
    NocActivity act = gpu.network().activity();
    for (RouterActivity &r : act.routers) {
        r.activeCycles = 0;
        r.gatedCycles = 0;
        ckptValue(w, r);
    }
    for (const LinkActivity &l : act.links)
        ckptValue(w, l);
    w.varint(gpu.totalInstructions());
    return w.takeBuffer();
}

} // namespace

// ------------------------------------------------ differential runs

TEST(EventCore, MatchesTickOnDefaultWorkload)
{
    expectModesIdentical(smallConfig(), {defaultWorkload()});
}

TEST(EventCore, MatchesTickAcrossAdaptiveTransitions)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::Adaptive;
    cfg.missTolerance = 0.3; // cross reconfigurations at this scale
    const RunResult tick =
        runMode(cfg, SimMode::Tick, {broadcastWorkload(5)});
    ASSERT_GT(tick.llcCtrl.transitionsToPrivate, 0u);
    const RunResult event =
        runMode(cfg, SimMode::Event, {broadcastWorkload(5)});
    EXPECT_TRUE(identicalResults(tick, event));
}

TEST(EventCore, MatchesTickOnMultiProgramPartition)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::ForceShared;
    cfg.extraAppPolicies = {LlcPolicy::ForcePrivate};
    expectModesIdentical(
        cfg, {defaultWorkload(11), broadcastWorkload(9)});
}

TEST(EventCore, MatchesTickOnEveryTopology)
{
    for (const NocTopology topo :
         {NocTopology::Ideal, NocTopology::FullXbar,
          NocTopology::Concentrated, NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        expectModesIdentical(cfg, {defaultWorkload()});
    }
}

TEST(EventCore, MatchesTickOnIdleHeavyFastForwardRun)
{
    SimConfig cfg = smallConfig();
    cfg.topology = NocTopology::Ideal;
    cfg.idealNocLatency = 200;
    cfg.llcMissLatency = 100;
    cfg.l1Latency = 100;
    cfg.fastForward = true;
    cfg.maxCycles = 2000000;
    expectModesIdentical(cfg, {idleHeavyWorkload(3)});
}

TEST(EventCore, EventModeSkipsCyclesOnEveryCrossbarTopology)
{
    // The regression that would have caught the inert-event-mode bug:
    // with the conservative `drained() ? kNoCycle : now + 1` fallback
    // a flit NoC advertises no skippable future, so an idle-heavy run
    // (long DRAM/LLC round trips, one resident CTA) degrades to
    // per-cycle stepping exactly when event mode should win. Exact
    // per-component events must produce real multi-cycle jumps on
    // every crossbar topology -- covering the majority of simulated
    // cycles -- while staying bit-identical to the tick driver.
    for (const NocTopology topo :
         {NocTopology::FullXbar, NocTopology::Concentrated,
          NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        cfg.llcMissLatency = 100;
        cfg.l1Latency = 100;
        cfg.maxCycles = 200000;
        const std::string label =
            "topology " + std::to_string(static_cast<int>(topo));

        const RunResult tick =
            runMode(cfg, SimMode::Tick, {idleHeavyWorkload(3)});

        SimConfig ec = cfg;
        ec.simMode = SimMode::Event;
        GpuSystem gpu(ec);
        gpu.setWorkload(0, idleHeavyWorkload(3));
        const RunResult event = gpu.run();

        EXPECT_TRUE(identicalResults(tick, event)) << label;
        EXPECT_GT(gpu.eventJumps(), 0u) << label;
        EXPECT_GT(gpu.jumpedCycles(), event.cycles / 2)
            << label << ": event mode stepped through "
            << (event.cycles - gpu.jumpedCycles()) << " of "
            << event.cycles << " cycles";
    }
}

TEST(EventCore, FlitNetworksAdvertiseExactEventsMidFlight)
{
    // Component-level pin of the same bug: while a packet is in
    // flight, a crossbar must advertise the real next event (a wire
    // arrival, a pipeline eligibility, a credit return), not `now+1`.
    // An event-driven ticker that trusts the advertisement must land
    // on the same delivery and drain cycles as per-cycle ticking.
    for (const NocTopology topo :
         {NocTopology::FullXbar, NocTopology::Concentrated,
          NocTopology::Hierarchical}) {
        NocParams p;
        p.topology = topo;
        p.numSms = 16;
        p.numClusters = 4;
        p.numMcs = 4;
        p.slicesPerMc = 4;
        const std::string label =
            "topology " + std::to_string(static_cast<int>(topo));

        NocMessage m;
        m.kind = MsgKind::ReadReq;
        m.src = 3;
        m.dst = 9;
        // Single flit at 32B channels: a lone flit crossing the
        // network leaves the pipeline sparse, so wire latencies and
        // pipeline eligibility show up as real >= 2-cycle gaps (a
        // multi-flit packet streams back-to-back and legitimately
        // keeps an event every cycle).
        m.sizeBytes = 16;

        // Reference: per-cycle ticking.
        auto ref = makeNetwork(p);
        ref->injectRequest(m, 0);
        Cycle refDeliver = kNoCycle, refDrain = kNoCycle;
        for (Cycle now = 0; now < 10000; ++now) {
            ref->tick(now);
            if (refDeliver == kNoCycle && ref->hasRequestFor(9)) {
                refDeliver = now;
                ref->popRequestFor(9, now);
            }
            if (refDeliver != kNoCycle && ref->drained()) {
                refDrain = now;
                break;
            }
        }
        ASSERT_NE(refDeliver, kNoCycle) << label;
        ASSERT_NE(refDrain, kNoCycle) << label;

        // Event-driven: jump straight to each advertised event.
        auto net = makeNetwork(p);
        net->injectRequest(m, 0);
        Cycle maxGap = 0, evDeliver = kNoCycle, evDrain = kNoCycle;
        Cycle now = 0;
        while (now < 10000) {
            net->tick(now);
            if (evDeliver == kNoCycle && net->hasRequestFor(9)) {
                evDeliver = now;
                net->popRequestFor(9, now);
            }
            if (evDeliver != kNoCycle && net->drained()) {
                evDrain = now;
                break;
            }
            const Cycle next = net->nextEventCycle(now);
            ASSERT_NE(next, kNoCycle)
                << label << ": un-drained network went silent at "
                << now;
            if (next > now + 1)
                maxGap = std::max(maxGap, next - now);
            now = std::max(next, now + 1);
        }
        EXPECT_EQ(evDeliver, refDeliver) << label;
        EXPECT_EQ(evDrain, refDrain) << label;
        // The advertisement must let the clock really jump while
        // flits sit on wires / in pipelines: the conservative
        // `now + 1` fallback never produces a gap >= 2.
        EXPECT_GE(maxGap, 2u) << label;
    }
}

TEST(EventCore, MatchesTickUnderInstructionBudget)
{
    SimConfig cfg = smallConfig();
    cfg.maxInstructions = 5000;
    expectModesIdentical(cfg, {defaultWorkload()});
}

TEST(EventCore, MatchesTickAtMaxCyclesCutoff)
{
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 7321; // deliberately off any grid
    expectModesIdentical(cfg, {defaultWorkload()});
}

// ----------------------------------------------- fixed-seed fuzzing

TEST(EventCore, FuzzedConfigsAreBitIdentical)
{
    // CI smoke slice of `amsc fuzz`; campaigns run the same engine
    // with hundreds of points. Any failure is reproducible with
    // `amsc fuzz --points=40 --seed=1009`, which writes the failing
    // scenario next to the build.
    const scenario::FuzzReport rep = scenario::runDiffFuzz(1009, 40);
    EXPECT_EQ(rep.points, 40u);
    std::string failing;
    for (const scenario::FuzzCase &c : rep.failing)
        failing += " #" + std::to_string(c.index);
    EXPECT_EQ(rep.failures, 0u) << "failing case(s):" << failing;
}

// ------------------------------------------- the event contract

namespace
{

/**
 * Tick-by-tick contract checker: whenever the advertised next event
 * lies beyond the cycle about to be ticked, that tick must leave the
 * observable signature untouched, and must not move the advertised
 * event either (the event core will skip straight to it, so an early
 * mutation or a drifting target would diverge the two drivers). Runs
 * the full workload to completion; @p min_noop guards against the
 * property passing vacuously.
 */
void
checkEventContract(const SimConfig &cfg, std::uint64_t min_noop,
                   const std::string &label)
{
    const RunResult ref =
        runMode(cfg, SimMode::Tick, {defaultWorkload()});
    ASSERT_TRUE(ref.finishedWork) << label;

    SimConfig c = cfg;
    GpuSystem gpu(c);
    gpu.setWorkload(0, defaultWorkload());
    // The first tick performs the initial kernel launches; kernel
    // management is sequenced by the run loop itself (manageDirty_),
    // not by the component contract, so the checker starts after it.
    gpu.step(1);

    std::uint64_t noopTicks = 0, checkedTicks = 0;
    std::vector<std::uint8_t> before = signature(gpu);
    while (gpu.now() < cfg.maxCycles &&
           gpu.totalInstructions() < ref.instructions) {
        const Cycle now = gpu.now();
        const Cycle next = gpu.eventNextCycle();
        gpu.step(1);
        const std::vector<std::uint8_t> after = signature(gpu);
        ++checkedTicks;
        // The event driver only jumps when the advertised event is
        // at least two cycles out (a `now+1` advertisement ticks
        // live), so that is the contract boundary: every cycle a
        // jump would skip must be a no-op and must not move the
        // advertised event earlier.
        if (next > now + 1) {
            ++noopTicks;
            ASSERT_EQ(before, after)
                << label << ": tick at cycle " << now
                << " mutated state although the next advertised "
                   "event was cycle "
                << next;
            ASSERT_EQ(gpu.eventNextCycle(), next)
                << label
                << ": advertised event drifted across the no-op "
                   "tick at cycle "
                << now;
        }
        before = after;
    }
    EXPECT_GT(noopTicks, min_noop) << label;
    EXPECT_GT(checkedTicks, noopTicks) << label;
}

} // namespace

TEST(EventCore, NoComponentMutatesBeforeAdvertisedEvent)
{
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 60000;
    checkEventContract(cfg, 100, "default");
}

TEST(EventCore, NoComponentMutatesBeforeAdvertisedEventOnCrossbars)
{
    // The same checker over every flit-level topology: each router,
    // channel and concentrator event advertisement is machine-checked
    // against the byte signature. Before the crossbars advertised
    // exact events this held vacuously (conservative `now+1` skips
    // nothing while a flit is in flight); min_noop > 0 now also pins
    // that the crossbars produce real multi-cycle skips.
    for (const NocTopology topo :
         {NocTopology::FullXbar, NocTopology::Concentrated,
          NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        cfg.maxCycles = 60000;
        checkEventContract(
            cfg, 100,
            "topology " +
                std::to_string(static_cast<int>(topo)));
    }
}

TEST(EventCore, FinishedSystemIsQuiescent)
{
    // After all work completes, a component may still conservatively
    // advertise `now` as its next event, but ticking further must be
    // observably idle: additional cycles change no signature bit.
    SimConfig cfg = smallConfig();
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, defaultWorkload());
    const RunResult r = gpu.run();
    ASSERT_TRUE(r.finishedWork);
    const std::vector<std::uint8_t> done = signature(gpu);
    gpu.step(256);
    EXPECT_EQ(done, signature(gpu));
}

TEST(EventCore, AdvertisedEventNeverUnderReports)
{
    // Cross-driver spot check: at a range of cut points, the state
    // reached by ticking is identical to the state reached by a
    // fresh event-mode run to the same cycle -- i.e. the jumps
    // landed on every cycle that mattered.
    SimConfig cfg = smallConfig();
    for (const Cycle cut : {977u, 5021u, 20011u}) {
        SimConfig c = cfg;
        c.maxCycles = cut;
        const RunResult tick =
            runMode(c, SimMode::Tick, {defaultWorkload()});
        const RunResult event =
            runMode(c, SimMode::Event, {defaultWorkload()});
        EXPECT_TRUE(identicalResults(tick, event)) << "cut " << cut;
    }
}

// ------------------------------------- checkpoints under event mode

namespace
{

std::string
slurpFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

} // namespace

TEST(EventCore, PeriodicCheckpointLandsOnGridAcrossJumps)
{
    // Idle-heavy run: the event core jumps hundreds of cycles at a
    // time, yet the periodic checkpoint must still be taken at an
    // exact multiple of checkpoint_every, with bytes identical to
    // the tick driver's.
    SimConfig cfg = smallConfig();
    cfg.topology = NocTopology::Ideal;
    cfg.idealNocLatency = 200;
    cfg.llcMissLatency = 100;
    cfg.l1Latency = 100;
    cfg.maxCycles = 500000;
    cfg.checkpointEvery = 4096;

    std::string bytes[2];
    for (int m = 0; m < 2; ++m) {
        SimConfig c = cfg;
        c.simMode = m == 0 ? SimMode::Tick : SimMode::Event;
        c.checkpointPath =
            tmpPath(m == 0 ? "grid_tick.ckpt" : "grid_event.ckpt");
        GpuSystem gpu(c);
        gpu.setWorkload(0, idleHeavyWorkload(3));
        const RunResult r = gpu.run();
        ASSERT_GT(r.cycles, cfg.checkpointEvery);
        bytes[m] = slurpFile(c.checkpointPath);

        // Restore the last periodic checkpoint and verify it was
        // taken on the exact grid.
        GpuSystem restored(c);
        restored.setWorkload(0, idleHeavyWorkload(3));
        std::istringstream is(bytes[m]);
        restored.restore(is);
        EXPECT_GT(restored.now(), 0u);
        EXPECT_EQ(restored.now() % cfg.checkpointEvery, 0u)
            << (m == 0 ? "tick" : "event")
            << " checkpoint off-grid at cycle " << restored.now();
        std::remove(c.checkpointPath.c_str());
    }
    EXPECT_EQ(bytes[0], bytes[1])
        << "periodic checkpoint bytes differ between drivers";
}

TEST(EventCore, CheckpointRestoresAcrossDrivers)
{
    // sim_mode is identity-excluded: a checkpoint written under one
    // driver restores under the other, and the continued run is
    // bit-identical to the unbroken reference either way.
    const SimConfig cfg = smallConfig();
    const RunResult reference =
        runMode(cfg, SimMode::Tick, {defaultWorkload()});

    for (int writer = 0; writer < 2; ++writer) {
        SimConfig wc = cfg;
        wc.simMode = writer == 0 ? SimMode::Tick : SimMode::Event;
        wc.checkpointEvery = 2048;
        wc.checkpointPath = tmpPath("xdrv.ckpt");
        {
            GpuSystem gpu(wc);
            gpu.setWorkload(0, defaultWorkload());
            gpu.run();
        }
        SimConfig rc = cfg;
        rc.simMode = writer == 0 ? SimMode::Event : SimMode::Tick;
        GpuSystem resumed(rc);
        resumed.setWorkload(0, defaultWorkload());
        {
            std::ifstream is(wc.checkpointPath, std::ios::binary);
            ASSERT_TRUE(is.good());
            resumed.restore(is);
        }
        const RunResult cont = resumed.run();
        EXPECT_TRUE(identicalResults(reference, cont))
            << (writer == 0 ? "tick->event" : "event->tick")
            << " resume diverged";
        std::remove(wc.checkpointPath.c_str());
    }
}

TEST(EventCore, CheckpointRestoresAcrossDriversOnCrossbars)
{
    // The flit-level topologies carry NoC state the ideal network
    // never has -- in-flight flits and credits, router buffers,
    // wormhole locks, concentrator cursors. A checkpoint written
    // mid-run under either driver must restore under the other and
    // finish bit-identical to the unbroken reference, per topology
    // and in both driver directions.
    for (const NocTopology topo :
         {NocTopology::FullXbar, NocTopology::Concentrated,
          NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        const std::string label =
            "topology " + std::to_string(static_cast<int>(topo));
        const RunResult reference =
            runMode(cfg, SimMode::Tick, {defaultWorkload()});

        for (int writer = 0; writer < 2; ++writer) {
            SimConfig wc = cfg;
            wc.simMode = writer == 0 ? SimMode::Tick : SimMode::Event;
            wc.checkpointEvery = 2048;
            wc.checkpointPath = tmpPath("xbar_xdrv.ckpt");
            {
                GpuSystem gpu(wc);
                gpu.setWorkload(0, defaultWorkload());
                gpu.run();
            }
            SimConfig rc = cfg;
            rc.simMode = writer == 0 ? SimMode::Event : SimMode::Tick;
            GpuSystem resumed(rc);
            resumed.setWorkload(0, defaultWorkload());
            {
                std::ifstream is(wc.checkpointPath,
                                 std::ios::binary);
                ASSERT_TRUE(is.good()) << label;
                resumed.restore(is);
            }
            const RunResult cont = resumed.run();
            EXPECT_TRUE(identicalResults(reference, cont))
                << label << " "
                << (writer == 0 ? "tick->event" : "event->tick")
                << " resume diverged";
            std::remove(wc.checkpointPath.c_str());
        }
    }
}

// ------------------------------------------ active-set crossbars

TEST(EventCore, ZeroLatencyLinksMatchGolden)
{
    // With zero-latency links a flit sent in a tick arrives in that
    // same tick, so a router, ejector or distributor woken by an
    // earlier component must still run in it -- only a walk in full
    // scan order reproduces that. The golden CSV was generated by
    // the full-scan crossbars; both drivers must reproduce it on all
    // three flit topologies.
    const scenario::Scenario scn = scenario::Scenario::fromKv(
        scenario::Scenario::parseScnText(R"(
name = zero_latency_links
config {
  num_sms = 16
  num_clusters = 4
  num_mcs = 4
  slices_per_mc = 4
  short_link_latency = 0
  long_link_latency = 0
  llc_policy = adaptive
  max_cycles = 20000
  profile_len = 1000
  epoch_len = 10000
}
app {
  workload = AN
}
sweep {
  noc = full, cxbar, hxbar
  sim_mode = tick, event
}
)",
                                         "zero_latency_links.scn"),
        "zero_latency_links.scn");
    const std::vector<scenario::ExpandedPoint> points = scn.expand();
    ASSERT_EQ(points.size(), 6u);
    std::vector<RunResult> results;
    for (const scenario::ExpandedPoint &p : points)
        results.push_back(SweepRunner::runPoint(p.point));
    for (std::size_t i = 0; i < results.size(); i += 2)
        EXPECT_TRUE(identicalResults(results[i], results[i + 1]))
            << points[i].point.label;

    const std::string csv =
        scenario::emitCsv(scenario::emitPoints(points), results);
    const std::string path = std::string(AMSC_SOURCE_DIR) +
        "/tests/golden/zero_latency_links.csv";
    if (std::getenv("AMSC_UPDATE_GOLDEN")) {
        std::ofstream(path, std::ios::binary) << csv;
        return;
    }
    EXPECT_EQ(slurpFile(path), csv)
        << "run with AMSC_UPDATE_GOLDEN=1 only if the model changed";
}

TEST(EventCore, RouterCyclesCoverEveryNetworkCycle)
{
    // Routers are ticked only while they have work; their active and
    // gated cycles are accounted lazily from the network's cycle
    // count. Every router must still account every cycle exactly
    // once, as active or as gated, across private-mode toggles,
    // event jumps, and a restore from a checkpoint taken while the
    // network sat idle.
    SimConfig cfg = smallConfig();
    cfg.topology = NocTopology::Hierarchical;
    cfg.llcPolicy = LlcPolicy::Adaptive;
    cfg.missTolerance = 0.3; // cross reconfigurations at this scale
    cfg.simMode = SimMode::Event;

    const auto expectCovered = [](const RunResult &r,
                                  const std::string &label) {
        ASSERT_FALSE(r.nocActivity.routers.empty()) << label;
        std::uint64_t gated = 0;
        for (const RouterActivity &ra : r.nocActivity.routers) {
            EXPECT_EQ(ra.activeCycles + ra.gatedCycles, r.cycles)
                << label;
            gated += ra.gatedCycles;
        }
        EXPECT_GT(gated, 0u) << label << ": private mode never gated";
    };

    GpuSystem unbroken(cfg);
    unbroken.setWorkload(0, broadcastWorkload(5));
    const RunResult ref = unbroken.run();
    ASSERT_GT(ref.llcCtrl.transitionsToPrivate, 0u);
    ASSERT_GT(unbroken.eventJumps(), 0u);
    expectCovered(ref, "unbroken");

    // Run the first cycle (the initial launches), tick until the
    // network has carried traffic and drained again, checkpoint
    // there and finish the run from the restore.
    SimConfig head = cfg;
    head.maxCycles = 1;
    GpuSystem first(head);
    first.setWorkload(0, broadcastWorkload(5));
    first.run();
    bool carried = false;
    do {
        first.step(1);
        carried = carried || !first.network().drained();
    } while (!carried || !first.network().drained());
    ASSERT_LT(first.now(), ref.cycles);
    std::stringstream ckpt;
    first.checkpoint(ckpt);

    GpuSystem resumed(cfg);
    resumed.setWorkload(0, broadcastWorkload(5));
    resumed.restore(ckpt);
    const RunResult cont = resumed.run();
    EXPECT_TRUE(identicalResults(ref, cont))
        << "restore at idle cycle " << first.now() << " diverged";
    expectCovered(cont, "restored");
}

TEST(EventCore, IdleCountersMatchGolden)
{
    // SMs and LLC slices with no work are neither ticked nor scanned,
    // and a sleeping SM's issue stalls are settled lazily from the
    // span it slept through. The golden CSV was generated by the
    // all-SM/all-slice loops; on idle-heavy runs (a long ideal-NoC
    // latency, one app retiring before its co-runner, open-loop
    // serving with few busy SMs) both drivers must reproduce every
    // emitted column (the LLC mode cycles among them) and the summed
    // SM issue stalls.
    struct Case
    {
        const char *name;
        std::function<void(SimConfig &)> configure;
        std::function<void(GpuSystem &)> install;
    };
    const std::vector<Case> cases = {
        {"adaptive_broadcast",
         [](SimConfig &cfg) {
             cfg.llcPolicy = LlcPolicy::Adaptive;
             cfg.missTolerance = 0.3; // cross reconfigurations
         },
         [](GpuSystem &gpu) {
             gpu.setWorkload(0, broadcastWorkload(5));
         }},
        {"multiprogram",
         [](SimConfig &cfg) {
             cfg.llcPolicy = LlcPolicy::ForceShared;
             cfg.extraAppPolicies = {LlcPolicy::ForcePrivate};
         },
         [](GpuSystem &gpu) {
             gpu.setWorkload(0, defaultWorkload(11));
             gpu.setWorkload(1, broadcastWorkload(9));
         }},
        {"llm_inference",
         [](SimConfig &cfg) { cfg.llcPolicy = LlcPolicy::Adaptive; },
         [](GpuSystem &gpu) {
             LlmServingParams p;
             p.ratePerKCycle = 1.0;
             p.tenants = 2;
             p.maxBatch = 1;
             p.totalRequests = 4;
             p.ctxTokens = 32;
             p.decodeTokens = 4;
             p.dModel = 256;
             p.layers = 2;
             gpu.setProgram(0, makeLlmInferenceProgram(p));
         }},
    };
    const std::vector<std::pair<const char *, NocTopology>> nocs = {
        {"ideal", NocTopology::Ideal},
        {"cxbar", NocTopology::Concentrated},
        {"hxbar", NocTopology::Hierarchical},
    };

    std::vector<scenario::EmitPoint> points;
    std::vector<RunResult> results;
    std::vector<std::uint64_t> stalls;
    for (const Case &c : cases) {
        for (const auto &[noc_name, topo] : nocs) {
            for (const SimMode mode : {SimMode::Tick, SimMode::Event}) {
                SimConfig cfg = smallConfig();
                cfg.topology = topo;
                cfg.idealNocLatency = 40;
                cfg.simMode = mode;
                c.configure(cfg);
                GpuSystem gpu(cfg);
                c.install(gpu);
                results.push_back(gpu.run());
                std::uint64_t sum = 0;
                for (SmId s = 0; s < gpu.numSms(); ++s)
                    sum += gpu.sm(s).stats().issueStallCycles;
                stalls.push_back(sum);
                const char *mode_name =
                    mode == SimMode::Tick ? "tick" : "event";
                points.push_back(
                    {std::string(c.name) + "/" + noc_name + "/" +
                         mode_name,
                     {{"workload", c.name},
                      {"noc", noc_name},
                      {"sim_mode", mode_name}}});
            }
        }
    }
    for (std::size_t i = 0; i < results.size(); i += 2) {
        EXPECT_TRUE(identicalResults(results[i], results[i + 1]))
            << points[i].label;
        EXPECT_EQ(stalls[i], stalls[i + 1]) << points[i].label;
    }

    // The emitted CSV (llc_cycles_private/shared among its columns)
    // with the summed SM issue stalls appended to each row.
    std::istringstream emitted(scenario::emitCsv(points, results));
    std::string csv;
    std::string line;
    std::getline(emitted, line);
    csv += line + ",sm_issue_stall_cycles\n";
    for (const std::uint64_t sum : stalls) {
        std::getline(emitted, line);
        csv += line + "," + std::to_string(sum) + "\n";
    }
    const std::string path = std::string(AMSC_SOURCE_DIR) +
        "/tests/golden/idle_counters.csv";
    if (std::getenv("AMSC_UPDATE_GOLDEN")) {
        std::ofstream(path, std::ios::binary) << csv;
        return;
    }
    EXPECT_EQ(slurpFile(path), csv)
        << "run with AMSC_UPDATE_GOLDEN=1 only if the model changed";
}

} // namespace amsc
