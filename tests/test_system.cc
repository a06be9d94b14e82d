/**
 * @file
 * End-to-end integration tests: configuration handling, determinism,
 * conservation, the adaptive controller FSM in vivo, workload-class
 * behaviour and multi-program execution.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "noc/network_factory.hh"
#include "sim/gpu_system.hh"
#include "workloads/suite.hh"

namespace amsc
{

namespace
{

/** Scaled-down but structurally faithful configuration. */
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
    cfg.maxCycles = 8000;
    cfg.profileLen = 1000;
    cfg.epochLen = 50000;
    return cfg;
}

/** A small synthetic kernel for plumbing tests. */
std::vector<KernelInfo>
tinyWorkload(AccessPattern pattern, std::uint32_t kernels = 1,
             std::uint64_t instrs = 40)
{
    std::vector<KernelInfo> out;
    for (std::uint32_t k = 0; k < kernels; ++k) {
        TraceParams t;
        t.pattern = pattern;
        t.sharedLines = 2048;
        t.sharedFraction =
            pattern == AccessPattern::PrivateStream ? 0.0 : 0.8;
        t.privateLinesPerCta = 256;
        t.memInstrsPerWarp = instrs;
        t.computePerMem = 3;
        t.seed = 11 + k;
        t.privateBase = (Addr{1} << 30) + (Addr{k} << 22);
        out.push_back(
            makeSyntheticKernel("k" + std::to_string(k), t, 32, 4));
    }
    return out;
}

} // namespace

// ------------------------------------------------------------ SimConfig

TEST(SimConfig, DefaultsMatchTable1)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.numSms, 80u);
    EXPECT_EQ(cfg.numClusters, 8u);
    EXPECT_EQ(cfg.numMcs, 8u);
    EXPECT_EQ(cfg.slicesPerMc, 8u);
    EXPECT_EQ(cfg.l1SizeBytes, 48u * 1024u);
    EXPECT_EQ(cfg.l1Assoc, 6u);
    EXPECT_EQ(cfg.llcSliceBytes, 96u * 1024u);
    EXPECT_EQ(cfg.llcAssoc, 16u);
    EXPECT_EQ(cfg.lineBytes, 128u);
    EXPECT_EQ(cfg.channelWidthBytes, 32u);
    EXPECT_EQ(cfg.vcDepthFlits, 8u);
    // 6 MB total LLC.
    EXPECT_EQ(cfg.numSlices() * cfg.llcSliceBytes, 6u << 20);
    // GDDR5 timings.
    EXPECT_EQ(cfg.dramTimings.tCL, 12u);
    EXPECT_EQ(cfg.dramTimings.tRC, 40u);
    EXPECT_EQ(cfg.dramTimings.tCCD, 2u);
    EXPECT_EQ(cfg.profileLen, 50000u);
    EXPECT_EQ(cfg.epochLen, 1000000u);
}

TEST(SimConfig, KvOverrides)
{
    SimConfig cfg = smallConfig();
    const KvArgs args = KvArgs::parse(
        {"num_sms=8", "num_clusters=2", "slices_per_mc=2",
         "num_mcs=4", "channel_width=16", "llc_policy=private",
         "mapping=hynix", "cta_policy=dcs", "l1_kb=96"});
    cfg.applyKv(args);
    EXPECT_EQ(cfg.numSms, 8u);
    EXPECT_EQ(cfg.channelWidthBytes, 16u);
    EXPECT_EQ(cfg.llcPolicy, LlcPolicy::ForcePrivate);
    EXPECT_EQ(cfg.mappingScheme, MappingScheme::Hynix);
    EXPECT_EQ(cfg.ctaPolicy, CtaPolicy::Dcs);
    EXPECT_EQ(cfg.l1SizeBytes, 96u * 1024u);
}

TEST(SimConfig, ValidationCatchesCoDesignViolation)
{
    SimConfig cfg = smallConfig();
    cfg.slicesPerMc = 2; // != numClusters with H-Xbar
    EXPECT_DEATH(cfg.validate(), "co-design");
}

TEST(SimConfig, PrintMentionsKeyParameters)
{
    SimConfig cfg;
    std::ostringstream os;
    cfg.print(os);
    EXPECT_NE(os.str().find("80"), std::string::npos);
    EXPECT_NE(os.str().find("gddr5"), std::string::npos);
    EXPECT_NE(os.str().find("fr_fcfs"), std::string::npos);
    EXPECT_NE(os.str().find("tREFI"), std::string::npos);
    EXPECT_NE(os.str().find("iSLIP"), std::string::npos);
}

// ----------------------------------------------------------- GpuSystem

TEST(System, RunsToCompletionAndCountsWork)
{
    SimConfig cfg = smallConfig();
    // The complete DRAM timing model (tRRD/tFAW activation limits,
    // refresh) roughly halves streaming throughput vs the seed's
    // partial model; the horizon covers the slower finish.
    cfg.maxCycles = 20000;
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, tinyWorkload(AccessPattern::PrivateStream));
    const RunResult r = gpu.run();
    EXPECT_TRUE(r.finishedWork);
    EXPECT_GT(r.ipc, 0.0);
    // 32 CTAs x 4 warps x 40 mem instrs x (1 + ~3 compute).
    EXPECT_GT(r.instructions, 32u * 4u * 40u * 3u);
    EXPECT_GT(r.llcAccesses, 0u);
    EXPECT_GT(r.dramAccesses, 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    auto once = []() {
        SimConfig cfg = smallConfig();
        GpuSystem gpu(cfg);
        gpu.setWorkload(0, tinyWorkload(AccessPattern::Broadcast));
        return gpu.run();
    };
    const RunResult a = once();
    const RunResult b = once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
}

TEST(System, SeedChangesChangeOutcomeSlightly)
{
    SimConfig cfg = smallConfig();
    GpuSystem a(cfg);
    a.setWorkload(0, tinyWorkload(AccessPattern::Broadcast));
    const RunResult ra = a.run();
    cfg.seed = 1234;
    GpuSystem b(cfg);
    b.setWorkload(0, tinyWorkload(AccessPattern::Broadcast));
    const RunResult rb = b.run();
    // Same total work, slightly different timing.
    EXPECT_EQ(ra.instructions, rb.instructions);
}

TEST(System, EveryNetworkTopologyCompletesWork)
{
    for (const NocTopology topo :
         {NocTopology::Ideal, NocTopology::FullXbar,
          NocTopology::Concentrated, NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        cfg.maxCycles = 30000;
        GpuSystem gpu(cfg);
        gpu.setWorkload(0,
                        tinyWorkload(AccessPattern::PrivateStream));
        const RunResult r = gpu.run();
        EXPECT_TRUE(r.finishedWork) << topologyName(topo);
    }
}

TEST(System, MultiKernelRunsSequentially)
{
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 40000;
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, tinyWorkload(AccessPattern::Broadcast, 3));
    const RunResult r = gpu.run();
    EXPECT_TRUE(r.finishedWork);
    // 3 kernels x 32 CTAs x 4 warps x 40 mem instrs.
    EXPECT_GT(r.instructions, 3u * 32u * 4u * 40u);
}

TEST(System, ForcedPrivateModeEngagesNetworkGating)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::ForcePrivate;
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, tinyWorkload(AccessPattern::Broadcast));
    const RunResult r = gpu.run();
    EXPECT_TRUE(r.finishedWork);
    EXPECT_EQ(r.finalMode, LlcMode::Private);
    std::uint64_t gated = 0;
    for (const auto &ra : r.nocActivity.routers)
        gated += ra.gatedCycles;
    EXPECT_GT(gated, 0u);
}

TEST(System, SharedModeKeepsRoutersOn)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::ForceShared;
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, tinyWorkload(AccessPattern::Broadcast));
    const RunResult r = gpu.run();
    std::uint64_t gated = 0;
    for (const auto &ra : r.nocActivity.routers)
        gated += ra.gatedCycles;
    EXPECT_EQ(gated, 0u);
}

// -------------------------------------------------- adaptive controller

TEST(Adaptive, TransitionsToPrivateForBroadcastSharing)
{
    SimConfig cfg = smallConfig();
    cfg.bwMargin = 1.0;
    cfg.llcPolicy = LlcPolicy::Adaptive;
    cfg.maxCycles = 20000;
    GpuSystem gpu(cfg);
    gpu.setWorkload(
        0, tinyWorkload(AccessPattern::Broadcast, 1, 2000));
    const RunResult r = gpu.run();
    EXPECT_GE(r.llcCtrl.transitionsToPrivate, 1u);
    EXPECT_EQ(r.finalMode, LlcMode::Private);
    EXPECT_GT(r.llcCtrl.cyclesPrivate, r.cycles / 4);
}

TEST(Adaptive, StaysSharedForZipfCapacityWorkload)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::Adaptive;
    cfg.profileLen = 4000; // enough samples past warm-up noise
    cfg.maxCycles = 25000;
    GpuSystem gpu(cfg);
    std::vector<KernelInfo> wl;
    {
        TraceParams t;
        t.pattern = AccessPattern::ZipfShared;
        t.sharedLines = 100000; // far beyond LLC capacity
        t.zipfAlpha = 0.65;     // weak skew: capacity-bound reuse
        t.sharedFraction = 0.85;
        t.privateLinesPerCta = 2048;
        t.memInstrsPerWarp = 4000;
        t.computePerMem = 4;
        wl.push_back(makeSyntheticKernel("zipf", t, 32, 4));
    }
    gpu.setWorkload(0, std::move(wl));
    const RunResult r = gpu.run();
    EXPECT_EQ(r.finalMode, LlcMode::Shared);
    EXPECT_EQ(r.llcCtrl.transitionsToPrivate, 0u);
    EXPECT_GE(r.llcCtrl.decisionsShared, 1u);
}

TEST(Adaptive, Rule3RevertsOnKernelLaunch)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::Adaptive;
    cfg.maxCycles = 100000;
    cfg.bwMargin = 1.0; // bare paper rules for this FSM test
    GpuSystem gpu(cfg);
    // Three kernels of sharing-heavy work: each boundary must revert
    // to shared and re-profile (Rule #3).
    gpu.setWorkload(0,
                    tinyWorkload(AccessPattern::Broadcast, 3, 120));
    const RunResult r = gpu.run();
    EXPECT_TRUE(r.finishedWork);
    EXPECT_GE(r.llcCtrl.transitionsToPrivate, 2u);
    EXPECT_GE(r.llcCtrl.transitionsToShared, 1u);
    EXPECT_GE(r.llcCtrl.profileWindows, 2u);
}

TEST(Adaptive, EpochBoundaryReprofiles)
{
    SimConfig cfg = smallConfig();
    cfg.bwMargin = 1.0;
    cfg.llcPolicy = LlcPolicy::Adaptive;
    cfg.epochLen = 4000;
    cfg.profileLen = 800;
    cfg.maxCycles = 20000;
    GpuSystem gpu(cfg);
    gpu.setWorkload(
        0, tinyWorkload(AccessPattern::Broadcast, 1, 2000));
    const RunResult r = gpu.run();
    EXPECT_GE(r.llcCtrl.profileWindows, 3u);
}

TEST(Adaptive, ReconfigurationOverheadIsBounded)
{
    SimConfig cfg = smallConfig();
    cfg.bwMargin = 1.0;
    cfg.llcPolicy = LlcPolicy::Adaptive;
    cfg.maxCycles = 20000;
    GpuSystem gpu(cfg);
    gpu.setWorkload(
        0, tinyWorkload(AccessPattern::Broadcast, 1, 2000));
    const RunResult r = gpu.run();
    ASSERT_GE(r.llcCtrl.transitionsToPrivate, 1u);
    // Paper: hundreds of cycles, a couple thousand at most, per
    // transition.
    const double per_transition =
        static_cast<double>(r.llcCtrl.reconfigStallCycles) /
        static_cast<double>(r.llcCtrl.transitionsToPrivate +
                            r.llcCtrl.transitionsToShared);
    EXPECT_LT(per_transition, 3000.0);
    EXPECT_GT(per_transition, 30.0);
}

// -------------------------------------------------- class-level shapes

TEST(Classes, PrivateFriendlyGainsFromPrivateLlc)
{
    auto run = [](LlcPolicy policy) {
        SimConfig cfg = smallConfig();
        cfg.numSms = 32;
        cfg.numClusters = 4;
        cfg.maxResidentWarps = 24;
        cfg.llcPolicy = policy;
        cfg.maxCycles = 15000;
        GpuSystem gpu(cfg);
        // The class-template broadcast parameters (suite.cc
        // privateFriendlyTrace): near-pure lockstep broadcast, few
        // writes. The generic tinyWorkload mix leaves the class
        // signal inside the noise floor at this scale now that DRAM
        // writes/refresh carry their real cost.
        TraceParams t;
        t.pattern = AccessPattern::Broadcast;
        t.sharedLines = 2048;
        t.sharedFraction = 0.97;
        t.writeFraction = 0.02;
        t.hotLines = 768;
        t.hotFraction = 0.15;
        t.privateLinesPerCta = 128;
        t.memInstrsPerWarp = 4000;
        t.computePerMem = 3;
        t.seed = 11;
        t.privateBase = Addr{1} << 30;
        gpu.setWorkload(0, {makeSyntheticKernel("k0", t, 32, 4)});
        return gpu.run();
    };
    const RunResult shared = run(LlcPolicy::ForceShared);
    const RunResult priv = run(LlcPolicy::ForcePrivate);
    EXPECT_GT(priv.ipc, shared.ipc * 1.05);
    // Replication raises the response rate (Fig 12) and the miss
    // rate (replicated fetches).
    EXPECT_GT(priv.llcResponseRate, shared.llcResponseRate);
    EXPECT_GT(priv.llcReadMissRate, shared.llcReadMissRate);
}

TEST(Classes, NeutralIsInsensitive)
{
    auto run = [](LlcPolicy policy) {
        SimConfig cfg = smallConfig();
        cfg.llcPolicy = policy;
        cfg.maxCycles = 15000;
        GpuSystem gpu(cfg);
        gpu.setWorkload(
            0, tinyWorkload(AccessPattern::PrivateStream, 1, 2000));
        return gpu.run();
    };
    const RunResult shared = run(LlcPolicy::ForceShared);
    const RunResult priv = run(LlcPolicy::ForcePrivate);
    EXPECT_NEAR(priv.ipc / shared.ipc, 1.0, 0.15);
}

// -------------------------------------------------------- multiprogram

TEST(MultiProgram, PartitionSplitsClustersEvenly)
{
    SimConfig cfg = smallConfig();
    cfg.extraAppPolicies = {LlcPolicy::ForcePrivate};
    cfg.llcPolicy = LlcPolicy::ForceShared;
    GpuSystem gpu(cfg);
    const auto sms0 = gpu.smsOfApp(0);
    const auto sms1 = gpu.smsOfApp(1);
    EXPECT_EQ(sms0.size(), 8u);
    EXPECT_EQ(sms1.size(), 8u);
    // Each cluster contributes half its SMs to each app.
    for (ClusterId cl = 0; cl < cfg.numClusters; ++cl) {
        int in0 = 0;
        for (const SmId sm : sms0)
            in0 += sm / cfg.smsPerCluster() == cl;
        EXPECT_EQ(in0, 2);
    }
}

TEST(MultiProgram, BothAppsFinishWithMixedModes)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::ForceShared;
    cfg.extraAppPolicies = {LlcPolicy::ForcePrivate};
    cfg.maxCycles = 60000;
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, tinyWorkload(AccessPattern::ZipfShared));
    gpu.setWorkload(1, tinyWorkload(AccessPattern::Broadcast));
    const RunResult r = gpu.run();
    EXPECT_TRUE(r.finishedWork);
    EXPECT_GT(r.appInstructions[0], 0u);
    EXPECT_GT(r.appInstructions[1], 0u);
    // Mixed modes: MC-routers must stay on.
    std::uint64_t gated = 0;
    for (const auto &ra : r.nocActivity.routers)
        gated += ra.gatedCycles;
    EXPECT_EQ(gated, 0u);
}

TEST(MultiProgram, IsolatedAddressSpaces)
{
    SimConfig cfg = smallConfig();
    cfg.extraAppPolicies = {LlcPolicy::ForceShared};
    cfg.maxCycles = 40000;
    GpuSystem gpu(cfg);
    const auto &an = WorkloadSuite::byName("SN");
    gpu.setWorkload(0, WorkloadSuite::buildKernels(an, 1, 0));
    gpu.setWorkload(1, WorkloadSuite::buildKernels(an, 1, 1));
    const RunResult r = gpu.run();
    EXPECT_GT(r.appInstructions[0], 0u);
    EXPECT_GT(r.appInstructions[1], 0u);
}

// ------------------------------------------------------- sharing stats

TEST(SharingStats, BroadcastShowsInterClusterSharing)
{
    SimConfig cfg = smallConfig();
    cfg.trackSharing = true;
    cfg.maxCycles = 10000;
    GpuSystem gpu(cfg);
    std::vector<KernelInfo> wl;
    {
        // Sharing-dominated traffic (the paper's Fig 3b pattern).
        TraceParams t;
        t.pattern = AccessPattern::Broadcast;
        t.sharedLines = 2048;
        t.sharedFraction = 0.95;
        t.privateLinesPerCta = 64;
        t.memInstrsPerWarp = 2000;
        t.computePerMem = 3;
        t.seed = 11;
        wl.push_back(makeSyntheticKernel("bcast", t, 32, 4));
    }
    gpu.setWorkload(0, std::move(wl));
    gpu.run();
    gpu.llc().sharingTracker().flush(cfg.maxCycles);
    // Multi-cluster sharing must dominate relative to the streaming
    // baseline below (the full-scale Fig 3 shape is checked by the
    // expect block of scenarios/fig03_intercluster_locality.scn).
    const double multi =
        gpu.llc().sharingTracker().bucketFraction(1) +
        gpu.llc().sharingTracker().bucketFraction(2) +
        gpu.llc().sharingTracker().bucketFraction(3);
    EXPECT_GT(multi, 0.3);
}

TEST(SharingStats, PrivateStreamShowsNone)
{
    SimConfig cfg = smallConfig();
    cfg.trackSharing = true;
    cfg.maxCycles = 10000;
    GpuSystem gpu(cfg);
    gpu.setWorkload(
        0, tinyWorkload(AccessPattern::PrivateStream, 1, 2000));
    gpu.run();
    gpu.llc().sharingTracker().flush(cfg.maxCycles);
    EXPECT_GT(gpu.llc().sharingTracker().bucketFraction(0), 0.9);
}

// ---------------------------------------------------------- statistics

TEST(StatsDump, RegistersAndRenders)
{
    SimConfig cfg = smallConfig();
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, tinyWorkload(AccessPattern::PrivateStream));
    gpu.run();
    StatSet set("sim");
    gpu.registerStats(set);
    std::ostringstream os;
    set.dump(os);
    EXPECT_NE(os.str().find("noc.req_injected"), std::string::npos);
    EXPECT_NE(os.str().find("llc0.reads"), std::string::npos);
    EXPECT_NE(os.str().find("mc0.reads"), std::string::npos);
    EXPECT_NE(os.str().find("sm0.instructions"), std::string::npos);
}

} // namespace amsc
