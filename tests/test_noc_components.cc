/**
 * @file
 * Unit tests for NoC building blocks: arbiter, channel, endpoint
 * adapters, router.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/concentrator.hh"
#include "noc/endpoint.hh"
#include "noc/router.hh"

namespace amsc
{

// -------------------------------------------------------------- Arbiter

namespace
{

/** Grant among the set flags of @p req. */
std::uint32_t
grantFlags(RoundRobinArbiter &arb, const std::vector<bool> &req)
{
    return arb.grant([&](std::uint32_t i) { return bool(req[i]); });
}

} // namespace

TEST(Arbiter, GrantsOnlyRequesters)
{
    RoundRobinArbiter arb(4);
    std::vector<bool> req{false, true, false, false};
    EXPECT_EQ(grantFlags(arb, req), 1u);
    req[1] = false;
    EXPECT_EQ(grantFlags(arb, req), 4u); // none
}

TEST(Arbiter, RoundRobinIsFair)
{
    RoundRobinArbiter arb(3);
    std::vector<bool> req{true, true, true};
    std::vector<int> wins(3, 0);
    for (int i = 0; i < 300; ++i)
        ++wins[grantFlags(arb, req)];
    EXPECT_EQ(wins[0], 100);
    EXPECT_EQ(wins[1], 100);
    EXPECT_EQ(wins[2], 100);
}

TEST(Arbiter, PointerAdvancesPastWinner)
{
    RoundRobinArbiter arb(4);
    std::vector<bool> req{true, false, false, true};
    EXPECT_EQ(grantFlags(arb, req), 0u);
    // Pointer now at 1: next grant must pick 3 before 0.
    EXPECT_EQ(grantFlags(arb, req), 3u);
    EXPECT_EQ(arb.pointer(), 0u); // wrapped past the last input
    EXPECT_EQ(grantFlags(arb, req), 0u);
}

TEST(Arbiter, PointerHoldsWithoutGrant)
{
    RoundRobinArbiter arb(4);
    std::vector<bool> none{false, false, false, false};
    grantFlags(arb, none);
    EXPECT_EQ(arb.pointer(), 0u);
}

TEST(Arbiter, MatchesModuloScanOnRandomRequests)
{
    // Reference: the single `(pointer + i) % n` scan the two-segment
    // grant replaces. Winner and pointer must agree on every call.
    Rng rng(20261017);
    for (std::uint32_t n : {1u, 2u, 3u, 7u, 8u, 10u, 64u, 80u}) {
        RoundRobinArbiter arb(n);
        std::uint32_t ref_ptr = 0;
        for (int round = 0; round < 2000; ++round) {
            // Sparse, dense and empty request patterns.
            const double density = round % 3 == 0 ? 0.05
                : round % 3 == 1 ? 0.5 : 0.0;
            std::vector<bool> req(n);
            for (std::uint32_t i = 0; i < n; ++i)
                req[i] = rng.chance(density);
            std::uint32_t ref_win = n;
            for (std::uint32_t i = 0; i < n; ++i) {
                const std::uint32_t cand = (ref_ptr + i) % n;
                if (req[cand]) {
                    ref_win = cand;
                    ref_ptr = (cand + 1) % n;
                    break;
                }
            }
            ASSERT_EQ(grantFlags(arb, req), ref_win)
                << "n=" << n << " round=" << round;
            ASSERT_EQ(arb.pointer(), ref_ptr)
                << "n=" << n << " round=" << round;
        }
    }
}

// -------------------------------------------------------------- Channel

TEST(Channel, CreditsLimitInFlight)
{
    FlitChannel ch(2, 1, 2, 1.0, 32);
    EXPECT_TRUE(ch.canSend());
    ch.send(Flit{}, 0);
    ch.send(Flit{}, 0);
    EXPECT_FALSE(ch.canSend());
}

TEST(Channel, FlitArrivesAfterLatency)
{
    FlitChannel ch(3, 1, 4, 1.0, 32);
    Flit f;
    f.head = true;
    ch.send(f, 10);
    EXPECT_FALSE(ch.hasArrival(12));
    EXPECT_TRUE(ch.hasArrival(13));
    const Flit out = ch.receive(13);
    EXPECT_TRUE(out.head);
}

TEST(Channel, CreditReturnRestoresBudget)
{
    FlitChannel ch(1, 2, 1, 1.0, 32);
    ch.send(Flit{}, 0);
    EXPECT_FALSE(ch.canSend());
    ch.receive(1);
    ch.returnCredit(1); // arrives at sender at cycle 3
    ch.tickSender(2);
    EXPECT_FALSE(ch.canSend());
    ch.tickSender(3);
    EXPECT_TRUE(ch.canSend());
}

TEST(Channel, QuiescentTracksInFlight)
{
    FlitChannel ch(1, 1, 4, 1.0, 32);
    EXPECT_TRUE(ch.quiescent());
    ch.send(Flit{}, 0);
    EXPECT_FALSE(ch.quiescent());
    ch.receive(1);
    ch.returnCredit(1);
    EXPECT_FALSE(ch.quiescent()); // credit still in flight
    ch.tickSender(2);
    EXPECT_TRUE(ch.quiescent());
}

TEST(Channel, ActivityCountsTraversals)
{
    FlitChannel ch(1, 1, 8, 12.3, 32);
    ch.send(Flit{}, 0);
    ch.send(Flit{}, 1);
    EXPECT_EQ(ch.activity().flitTraversals, 2u);
    EXPECT_DOUBLE_EQ(ch.activity().lengthMm, 12.3);
}

// ------------------------------------------------------------ Endpoints

TEST(Endpoint, PacketizationFlitCounts)
{
    PacketFormat fmt;
    NocMessage m;
    m.kind = MsgKind::ReadReq;
    m.sizeBytes = fmt.sizeOf(MsgKind::ReadReq);
    EXPECT_EQ(m.numFlits(32), 1u);
    m.sizeBytes = fmt.sizeOf(MsgKind::ReadReply);
    EXPECT_EQ(m.numFlits(32), 5u); // 144 B / 32 B
    EXPECT_EQ(m.numFlits(16), 9u);
    EXPECT_EQ(m.numFlits(64), 3u);
}

TEST(Endpoint, InjectThenEjectRoundTrip)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 4);
    EjectionAdapter ej(&ch, 4);

    NocMessage m;
    m.kind = MsgKind::ReadReply;
    m.sizeBytes = 144; // 5 flits
    m.dst = 3;
    m.token = 99;
    inj.accept(m, 0);

    Cycle c = 0;
    while (!ej.hasMessage() && c < 50) {
        inj.tick(c);
        ej.tick(c);
        ++c;
    }
    ASSERT_TRUE(ej.hasMessage());
    const NocMessage out = ej.pop();
    EXPECT_EQ(out.token, 99u);
    EXPECT_EQ(out.dst, 3u);
    // 5 flits at 1 per cycle + wire latency.
    EXPECT_GE(c, 5u);
    EXPECT_TRUE(inj.drained());
    EXPECT_TRUE(ej.drained());
}

TEST(Endpoint, EjectionBackpressureStopsReceiving)
{
    FlitChannel ch(1, 1, 4, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 8);
    EjectionAdapter ej(&ch, 1); // single-message queue

    for (int i = 0; i < 3; ++i) {
        NocMessage m;
        m.sizeBytes = 16; // 1 flit
        m.token = static_cast<std::uint64_t>(i);
        inj.accept(m, 0);
    }
    for (Cycle c = 0; c < 30; ++c) {
        inj.tick(c);
        ej.tick(c);
    }
    // Only one message fits; the rest is stuck behind backpressure.
    EXPECT_TRUE(ej.hasMessage());
    EXPECT_EQ(ej.parked(), 1u);
    EXPECT_FALSE(inj.drained() && ch.quiescent());
    // Draining the consumer unblocks the pipeline.
    EXPECT_EQ(ej.pop().token, 0u);
    for (Cycle c = 30; c < 60; ++c) {
        inj.tick(c);
        ej.tick(c);
        if (ej.hasMessage() && ej.parked() == 1)
            ej.pop();
    }
    EXPECT_TRUE(inj.drained());
}

TEST(Endpoint, InjectionQueueCapacity)
{
    FlitChannel ch(1, 1, 4, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 2);
    NocMessage m;
    m.sizeBytes = 16;
    inj.accept(m, 0);
    inj.accept(m, 0);
    EXPECT_FALSE(inj.canAccept());
}

// --------------------------------------------------------- Concentrator

TEST(Concentrator, RoundRobinAmongSources)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    ConcentratorAdapter conc(&ch, 32, 2, 4);
    EjectionAdapter ej(&ch, 8);

    NocMessage m;
    m.sizeBytes = 16;
    m.token = 100;
    conc.accept(0, m, 0);
    m.token = 200;
    conc.accept(1, m, 0);
    m.token = 101;
    conc.accept(0, m, 0);

    std::vector<std::uint64_t> order;
    for (Cycle c = 0; c < 30; ++c) {
        conc.tick(c);
        ej.tick(c);
        while (ej.hasMessage())
            order.push_back(ej.pop().token);
    }
    ASSERT_EQ(order.size(), 3u);
    // Fair interleave: 100, 200, 101.
    EXPECT_EQ(order[0], 100u);
    EXPECT_EQ(order[1], 200u);
    EXPECT_EQ(order[2], 101u);
}

TEST(Concentrator, PacketsNeverInterleave)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    ConcentratorAdapter conc(&ch, 32, 2, 4);
    // Multi-flit packets from both sources.
    NocMessage m;
    m.sizeBytes = 144; // 5 flits
    m.token = 1;
    conc.accept(0, m, 0);
    m.token = 2;
    conc.accept(1, m, 0);

    // Drain raw flits and check head/tail bracketing.
    int in_packet = 0;
    int completed = 0;
    for (Cycle c = 0; c < 40; ++c) {
        conc.tick(c);
        while (ch.hasArrival(c)) {
            const Flit f = ch.receive(c);
            ch.returnCredit(c);
            if (f.head) {
                EXPECT_EQ(in_packet, 0);
                in_packet = 1;
            }
            if (f.tail) {
                EXPECT_EQ(in_packet, 1);
                in_packet = 0;
                ++completed;
            }
        }
    }
    EXPECT_EQ(completed, 2);
}

TEST(Distributor, RoutesToLocalQueues)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 8);
    DistributorAdapter dist(&ch, 2, 4,
                            [](std::uint32_t dst) { return dst % 2; });
    NocMessage m;
    m.sizeBytes = 16;
    m.dst = 5; // local 1
    inj.accept(m, 0);
    m.dst = 4; // local 0
    inj.accept(m, 0);
    for (Cycle c = 0; c < 20; ++c) {
        inj.tick(c);
        dist.tick(c);
    }
    ASSERT_TRUE(dist.hasMessage(0));
    ASSERT_TRUE(dist.hasMessage(1));
    EXPECT_EQ(dist.pop(1).dst, 5u);
    EXPECT_EQ(dist.pop(0).dst, 4u);
}

// ---------------------------------------------------------------- Router

namespace
{

/** 2x2 router harness with manual channels. */
struct RouterRig
{
    RouterParams rp;
    std::vector<FlitChannel> in;
    std::vector<FlitChannel> out;
    Router router;

    explicit RouterRig(std::uint32_t ports = 2, bool gateable = false)
        : rp(makeParams(ports, gateable)),
          in(ports, FlitChannel(1, 1, rp.vcDepthFlits, 1.0, 32)),
          out(ports, FlitChannel(1, 1, 8, 1.0, 32)),
          router(rp, identityRoute(ports))
    {
        for (std::uint32_t p = 0; p < ports; ++p) {
            router.connectInput(p, &in[p]);
            router.connectOutput(p, &out[p]);
        }
    }

    static std::vector<std::uint32_t>
    identityRoute(std::uint32_t ports)
    {
        std::vector<std::uint32_t> route(ports);
        for (std::uint32_t dst = 0; dst < ports; ++dst)
            route[dst] = dst;
        return route;
    }

    static RouterParams
    makeParams(std::uint32_t ports, bool gateable)
    {
        RouterParams rp;
        rp.numInPorts = ports;
        rp.numOutPorts = ports;
        rp.gateable = gateable;
        return rp;
    }

    void
    tickAll(Cycle c)
    {
        router.tick(c);
        for (auto &ch : in)
            ch.tickSender(c);
    }
};

Flit
headTail(std::uint32_t dst)
{
    Flit f;
    f.head = true;
    f.tail = true;
    f.msg.dst = dst;
    f.msg.sizeBytes = 16;
    return f;
}

} // namespace

TEST(Router, SingleFlitTraversalLatency)
{
    RouterRig rig;
    rig.in[0].send(headTail(1), 0);
    Cycle arrived = 0;
    for (Cycle c = 0; c < 20 && arrived == 0; ++c) {
        rig.tickAll(c);
        if (rig.out[1].hasArrival(c))
            arrived = c;
    }
    // wire(1) + pipeline(3) + ST grant + wire(1) ~= 6 cycles.
    EXPECT_GT(arrived, 3u);
    EXPECT_LE(arrived, 8u);
    EXPECT_EQ(rig.router.activity(arrived).xbarTraversals, 1u);
}

TEST(Router, OutputContentionSerializes)
{
    RouterRig rig;
    rig.in[0].send(headTail(0), 0);
    rig.in[1].send(headTail(0), 0);
    int delivered = 0;
    for (Cycle c = 0; c < 30; ++c) {
        rig.tickAll(c);
        while (rig.out[0].hasArrival(c)) {
            rig.out[0].receive(c);
            rig.out[0].returnCredit(c);
            ++delivered;
        }
    }
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(rig.router.activity(30).bufferWrites, 2u);
}

TEST(Router, WormholeHoldsOutputForWholePacket)
{
    RouterRig rig;
    // 3-flit packet from input 0 and a competing packet from input 1,
    // both to output 0.
    Flit h;
    h.head = true;
    h.msg.dst = 0;
    Flit b;
    Flit t;
    t.tail = true;
    rig.in[0].send(h, 0);
    rig.in[0].send(b, 1);
    rig.in[0].send(t, 2);
    rig.in[1].send(headTail(0), 0);

    std::vector<int> source_order;
    int seen = 0;
    for (Cycle c = 0; c < 40 && seen < 4; ++c) {
        rig.tickAll(c);
        while (rig.out[0].hasArrival(c)) {
            const Flit f = rig.out[0].receive(c);
            rig.out[0].returnCredit(c);
            // Identify source by head/tail pattern: competing packet
            // is the single head+tail flit.
            source_order.push_back(f.head && f.tail ? 1 : 0);
            ++seen;
        }
    }
    ASSERT_EQ(seen, 4);
    // The 3 flits of packet 0 must be contiguous.
    for (std::size_t i = 0; i < source_order.size(); ++i) {
        if (source_order[i] == 1) {
            EXPECT_TRUE(i == 0 || i == 3);
        }
    }
}

TEST(Router, BackpressureWhenNoCredit)
{
    RouterRig rig;
    // Stream 12 packets toward output 1 whose ejection never
    // returns credits (depth 8): at most 8 flits may cross.
    int sent = 0;
    for (Cycle c = 0; c < 60; ++c) {
        if (sent < 12 && rig.in[0].canSend()) {
            rig.in[0].send(headTail(1), c);
            ++sent;
        }
        rig.tickAll(c);
        // Return input-side credits so injection keeps flowing.
    }
    EXPECT_LE(rig.out[1].activity().flitTraversals, 8u);
    EXPECT_FALSE(rig.router.drained());
}

TEST(Router, BypassConnectsIToI)
{
    RouterRig rig(2, true);
    rig.router.setBypass(true, 0);
    // In bypass, routing is positional: flit at input 0 exits output
    // 0 even though its dst says 1.
    rig.in[0].send(headTail(1), 0);
    bool at0 = false;
    bool at1 = false;
    for (Cycle c = 0; c < 20; ++c) {
        rig.tickAll(c);
        at0 = at0 || rig.out[0].hasArrival(c);
        at1 = at1 || rig.out[1].hasArrival(c);
    }
    EXPECT_TRUE(at0);
    EXPECT_FALSE(at1);
    const RouterActivity act = rig.router.activity(20);
    EXPECT_EQ(act.bypassTraversals, 1u);
    EXPECT_EQ(act.xbarTraversals, 0u);
    // Every cycle of the 20-cycle run counts as gated under bypass.
    EXPECT_EQ(act.gatedCycles, 20u);
    EXPECT_EQ(act.activeCycles, 0u);
}

TEST(Router, BypassFasterThanPipeline)
{
    RouterRig normal(2, true);
    RouterRig gated(2, true);
    gated.router.setBypass(true, 0);

    normal.in[0].send(headTail(0), 0);
    gated.in[0].send(headTail(0), 0);
    Cycle t_normal = 0;
    Cycle t_gated = 0;
    for (Cycle c = 0; c < 20; ++c) {
        normal.tickAll(c);
        gated.tickAll(c);
        if (t_normal == 0 && normal.out[0].hasArrival(c))
            t_normal = c;
        if (t_gated == 0 && gated.out[0].hasArrival(c))
            t_gated = c;
    }
    EXPECT_LT(t_gated, t_normal);
}

// ------------------------------------------------------ Router port sets

namespace
{

/** A router's state as a full port scan sees it. */
struct RouterScan
{
    bool bypass = false;
    std::vector<std::vector<std::pair<Cycle, Flit>>> buffers;
    std::vector<std::uint32_t> currentOut;
    std::vector<std::uint32_t> lockedBy;
};

/** Decode every port of @p rig's router from its checkpoint at @p c. */
RouterScan
scanRouter(const RouterRig &rig, Cycle c)
{
    CkptWriter w;
    rig.router.saveCkpt(w, c);
    CkptReader r(w.buffer().data(), w.size());
    RouterScan scan;
    scan.bypass = r.b();
    for (std::uint32_t i = 0; i < rig.rp.numInPorts; ++i) {
        auto &buf = scan.buffers.emplace_back();
        for (std::uint64_t n = r.varint(); n > 0; --n) {
            const Cycle eligible = r.u64();
            Flit f;
            ckptValue(r, f);
            buf.emplace_back(eligible, f);
        }
        scan.currentOut.push_back(r.u32());
    }
    for (std::uint32_t o = 0; o < rig.rp.numOutPorts; ++o) {
        r.u32(); // arbiter pointer
        scan.lockedBy.push_back(r.u32());
    }
    return scan;
}

/**
 * Check busy(), drained() and nextEventCycle() against a scan of
 * every port and channel (identity routes, as RouterRig builds).
 */
void
expectMatchesFullScan(const RouterRig &rig, const char *when, Cycle c)
{
    const RouterScan scan = scanRouter(rig, c);
    std::size_t buffered = 0;
    bool on_wire = false;
    Cycle next = kNoCycle;
    for (const FlitChannel &ch : rig.in) {
        on_wire = on_wire || ch.flitsInFlight() != 0;
        next = std::min(next, ch.nextArrivalCycle());
    }
    for (const FlitChannel &ch : rig.out) {
        on_wire = on_wire || ch.creditsInFlight();
        next = std::min(next, ch.nextCreditCycle());
    }
    for (std::uint32_t i = 0; i < rig.rp.numInPorts; ++i) {
        const auto &buf = scan.buffers[i];
        buffered += buf.size();
        if (buf.empty())
            continue;
        const auto &[eligible, flit] = buf.front();
        std::uint32_t o;
        if (scan.bypass) {
            o = i;
        } else if (flit.head) {
            o = flit.msg.dst;
            if (scan.lockedBy[o] != kInvalidId)
                continue;
        } else {
            o = scan.currentOut[i];
        }
        const Cycle sendable = rig.out[o].nextSendableCycle();
        if (sendable != kNoCycle)
            next = std::min(next, std::max(eligible, sendable));
    }
    ASSERT_EQ(rig.router.drained(), buffered == 0)
        << when << " cycle " << c;
    ASSERT_EQ(rig.router.busy(), buffered != 0 || on_wire)
        << when << " cycle " << c;
    ASSERT_EQ(rig.router.nextEventCycle(), next) << when << " cycle " << c;
}

/** Save @p rig's channels and router, then restore them into a twin. */
std::unique_ptr<RouterRig>
restoreTwin(const RouterRig &rig, Cycle cycles)
{
    CkptWriter w;
    for (const FlitChannel &ch : rig.in)
        ch.saveCkpt(w);
    for (const FlitChannel &ch : rig.out)
        ch.saveCkpt(w);
    rig.router.saveCkpt(w, cycles);
    auto twin = std::make_unique<RouterRig>(rig.rp.numInPorts, true);
    CkptReader r(w.buffer().data(), w.size());
    for (FlitChannel &ch : twin->in)
        ch.loadCkpt(r);
    for (FlitChannel &ch : twin->out)
        ch.loadCkpt(r);
    twin->router.loadCkpt(r); // channels first, as the crossbar does
    EXPECT_TRUE(r.atEnd());
    return twin;
}

} // namespace

TEST(RouterPortSets, MatchFullScanAcrossBypassAndRestore)
{
    // 3 ports fit one set word; 70 ports span two (a `full` router
    // has 80 inputs).
    for (const std::uint32_t ports : {3u, 70u}) {
        SCOPED_TRACE(ports);
        auto rig = std::make_unique<RouterRig>(ports, true);
        Rng rng(ports);
        // Length of the packet each input streams, flits of it left,
        // and credits each output's consumer still owes.
        std::vector<std::uint32_t> len(ports, 0);
        std::vector<std::uint32_t> left(ports, 0);
        std::vector<std::uint32_t> owed(ports, 0);
        std::uint64_t delivered = 0;
        bool injecting = true;
        int toggles = 0;
        int restores = 0;
        Cycle c = 0;
        for (; c < 3000; ++c) {
            // Stop injecting every 400 cycles; once the router and its
            // inputs are empty (the reconfiguration protocol's drain),
            // toggle bypass and resume.
            if (c % 400 == 399)
                injecting = false;
            if (!injecting) {
                bool quiet = rig->router.drained();
                for (std::uint32_t i = 0; i < ports; ++i)
                    quiet = quiet && left[i] == 0 &&
                        rig->in[i].flitsInFlight() == 0;
                if (quiet) {
                    rig->router.setBypass(!rig->router.bypassed(), c);
                    ++toggles;
                    injecting = true;
                }
            }
            // Mid-traffic restores land with flits and credits on the
            // wire and flits buffered.
            if (c % 250 == 125) {
                rig = restoreTwin(*rig, c);
                ++restores;
                ASSERT_NO_FATAL_FAILURE(
                    expectMatchesFullScan(*rig, "restored", c));
            }
            for (std::uint32_t i = 0; i < ports; ++i) {
                if (left[i] == 0 && injecting && rng.chance(0.3))
                    left[i] = len[i] = rng.chance(0.5) ? 1 : 3;
                if (left[i] == 0 || !rig->in[i].canSend())
                    continue;
                Flit f;
                f.head = left[i] == len[i];
                f.tail = left[i] == 1;
                if (f.head)
                    f.msg.dst = static_cast<std::uint32_t>(
                        rng.below(ports));
                rig->in[i].send(f, c);
                --left[i];
            }
            ASSERT_NO_FATAL_FAILURE(
                expectMatchesFullScan(*rig, "before tick", c));
            if (rig->router.busy())
                rig->router.tick(c);
            ASSERT_NO_FATAL_FAILURE(
                expectMatchesFullScan(*rig, "after tick", c));
            for (FlitChannel &ch : rig->in)
                ch.tickSender(c);
            // Consumers take arrivals at once but return credits
            // lazily, so outputs run dry and credits sit on the wire.
            for (std::uint32_t o = 0; o < ports; ++o) {
                FlitChannel &ch = rig->out[o];
                while (ch.hasArrival(c)) {
                    ch.receive(c);
                    ++owed[o];
                    ++delivered;
                }
                if (owed[o] != 0 && rng.chance(0.4)) {
                    ch.returnCredit(c);
                    --owed[o];
                }
            }
        }
        const RouterActivity act = rig->router.activity(c);
        EXPECT_GE(toggles, 4);
        EXPECT_GE(restores, 10);
        EXPECT_GT(act.xbarTraversals, 100u);
        EXPECT_GT(act.bypassTraversals, 100u);
        EXPECT_LE(delivered, act.xbarTraversals + act.bypassTraversals);
        EXPECT_GT(delivered, 0u);
    }
}

} // namespace amsc
