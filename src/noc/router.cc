#include "noc/router.hh"

#include <algorithm>
#include <cassert>

#include "common/log.hh"

namespace amsc
{

Router::Router(const RouterParams &params,
               std::vector<std::uint32_t> route)
    : params_(params), route_(std::move(route))
{
    if (params_.numInPorts == 0 || params_.numOutPorts == 0)
        fatal("router '%s' needs ports", params_.name.c_str());
    for (std::size_t dst = 0; dst < route_.size(); ++dst) {
        if (route_[dst] >= params_.numOutPorts)
            fatal("router '%s': destination %zu routed to invalid "
                  "port %u",
                  params_.name.c_str(), dst, route_[dst]);
    }
    if (params_.numVcs != 1)
        fatal("router '%s': only 1 VC per port is modeled (Table 1)",
              params_.name.c_str());
    inputs_.resize(params_.numInPorts);
    for (InputPort &in : inputs_)
        in.buffer = RingFifo<std::pair<Cycle, Flit>>(inputBufferDepth());
    outputs_.resize(params_.numOutPorts);
    for (auto &o : outputs_)
        o.arb.resize(params_.numInPorts);
    arriving_.resize(params_.numInPorts);
    crediting_.resize(params_.numOutPorts);
    buffered_.resize(params_.numInPorts);
    requested_.resize(params_.numOutPorts);
    requestedOut_.assign(params_.numInPorts, kInvalidId);
    requesters_.reserve(params_.numInPorts);

    activity_.numInPorts = params_.numInPorts;
    activity_.numOutPorts = params_.numOutPorts;
    activity_.numVcs = params_.numVcs;
    activity_.vcDepthFlits = params_.vcDepthFlits;
    activity_.channelWidthBytes = params_.channelWidthBytes;
    activity_.gateable = params_.gateable;
}

void
Router::connectInput(std::uint32_t port, FlitChannel *channel)
{
    if (port >= params_.numInPorts)
        panic("router '%s': input port %u out of range",
              params_.name.c_str(), port);
    inputs_[port].in = channel;
    channel->bindReceiverPort(arriving_.bit(port));
}

void
Router::connectOutput(std::uint32_t port, FlitChannel *channel)
{
    if (port >= params_.numOutPorts)
        panic("router '%s': output port %u out of range",
              params_.name.c_str(), port);
    outputs_[port].out = channel;
    channel->bindSenderPort(crediting_.bit(port));
}

void
Router::bindActive(ActiveBit bit)
{
    for (InputPort &in : inputs_) {
        if (in.in != nullptr)
            in.in->bindReceiver(bit);
    }
    for (OutputPort &out : outputs_) {
        if (out.out != nullptr)
            out.out->bindSender(bit);
    }
}

void
Router::setBypass(bool enable, std::uint64_t cycles)
{
    if (enable == bypass_)
        return;
    if (enable) {
        if (!params_.gateable)
            panic("router '%s' is not gateable", params_.name.c_str());
        if (params_.numInPorts != params_.numOutPorts)
            panic("router '%s': bypass requires square radix",
                  params_.name.c_str());
        if (!drained())
            panic("router '%s': bypass toggled while not drained",
                  params_.name.c_str());
    }
    activity_ = activity(cycles);
    accountedTo_ = cycles;
    bypass_ = enable;
}

RouterActivity
Router::activity(std::uint64_t cycles) const
{
    RouterActivity a = activity_;
    (bypass_ ? a.gatedCycles : a.activeCycles) += cycles - accountedTo_;
    return a;
}

bool
Router::busy() const
{
    return bufferedFlits_ != 0 || arriving_.any() || crediting_.any();
}

Cycle
Router::nextEventCycle() const
{
    Cycle next = kNoCycle;
    arriving_.forEach([&](std::size_t i) {
        next = std::min(next, inputs_[i].in->nextArrivalCycle());
    });
    crediting_.forEach([&](std::size_t o) {
        next = std::min(next, outputs_[o].out->nextCreditCycle());
    });
    buffered_.forEach([&](std::size_t i) {
        const InputPort &in = inputs_[i];
        const auto &front = in.buffer.front();
        std::uint32_t out_port;
        if (bypass_) {
            // Bypass hard-wires input i to output i.
            out_port = static_cast<std::uint32_t>(i);
        } else if (front.second.head) {
            if (front.second.msg.dst >= route_.size()) {
                next = 0; // tick() will panic; force the live tick
                return;
            }
            out_port = route_[front.second.msg.dst];
            if (outputs_[out_port].lockedBy != kInvalidId)
                return; // unlock is the lock holder's event
        } else {
            out_port = in.currentOut;
            if (out_port == kInvalidId) {
                next = 0; // tick() will panic; force the live tick
                return;
            }
        }
        const OutputPort &out = outputs_[out_port];
        if (out.out == nullptr)
            return;
        const Cycle sendable = out.out->nextSendableCycle();
        if (sendable == kNoCycle)
            return; // credits reappear only after a downstream pop
        next = std::min(next, std::max(front.first, sendable));
    });
    return next;
}

void
Router::acceptArrivals(Cycle now)
{
    const Cycle eligible = now + (bypass_ ? 1 : params_.pipelineLatency);
    arriving_.walk([&](std::size_t i) {
        InputPort &in = inputs_[i];
        FlitChannel &ch = *in.in;
        while (ch.hasArrival(now)) {
            // Credit flow control guarantees buffer space.
            if (in.buffer.size() >= inputBufferDepth())
                panic("router '%s': input buffer overflow "
                      "(credit protocol violated)",
                      params_.name.c_str());
            in.buffer.push_back({eligible, ch.receive(now)});
            ++bufferedFlits_;
            if (!bypass_)
                ++activity_.bufferWrites;
            buffered_.assign(i, true);
        }
        return ch.flitsInFlight() != 0;
    });
}

void
Router::tickBypass(Cycle now)
{
    // Input i is hard-wired to output i; one flit per cycle, credit
    // checked on the downstream channel. No allocation, no switch.
    buffered_.walk([&](std::size_t i) {
        InputPort &in = inputs_[i];
        OutputPort &out = outputs_[i];
        if (in.buffer.front().first > now)
            return true;
        if (out.out == nullptr || !out.out->canSend())
            return true;
        Flit flit = std::move(in.buffer.front().second);
        in.buffer.pop_front();
        --bufferedFlits_;
        out.out->send(std::move(flit), now);
        if (in.in != nullptr)
            in.in->returnCredit(now);
        ++activity_.bypassTraversals;
        return !in.buffer.empty();
    });
}

void
Router::tickAllocate(Cycle now)
{
    // Request phase: each buffered input nominates its head-of-line
    // flit for exactly one output, so requestedOut_ fully encodes the
    // request matrix the separable allocator consumes.
    buffered_.forEach([&](std::size_t i) {
        InputPort &in = inputs_[i];
        if (in.buffer.front().first > now)
            return;
        const Flit &flit = in.buffer.front().second;

        std::uint32_t out_port;
        if (flit.head) {
            if (flit.msg.dst >= route_.size())
                panic("router '%s': no route to destination %u",
                      params_.name.c_str(), flit.msg.dst);
            out_port = route_[flit.msg.dst];
            // A head flit may only compete for an unlocked output.
            if (outputs_[out_port].lockedBy != kInvalidId)
                return;
        } else {
            // Body/tail flits follow the wormhole lock.
            out_port = in.currentOut;
            if (out_port == kInvalidId)
                panic("router '%s': body flit without route lock",
                      params_.name.c_str());
        }

        // Downstream credit must be available to compete this cycle.
        OutputPort &out = outputs_[out_port];
        if (out.out == nullptr || !out.out->canSend())
            return;

        requestedOut_[i] = out_port;
        requesters_.push_back(static_cast<std::uint32_t>(i));
        requested_.assign(out_port, true);
    });

    // Grant phase: per-output round-robin over the requested outputs.
    // Each input requests at most one output, so grants touch
    // disjoint inputs and skipping request-free outputs is exact.
    requested_.walk([&](std::size_t o) {
        OutputPort &out = outputs_[o];
        const std::uint32_t winner = out.arb.grant(
            [&](std::uint32_t i) { return requestedOut_[i] == o; });
        assert(winner < params_.numInPorts); // o has a requester
        ++activity_.allocRounds;

        InputPort &in = inputs_[winner];
        Flit flit = std::move(in.buffer.front().second);
        in.buffer.pop_front();
        --bufferedFlits_;
        ++activity_.bufferReads;
        ++activity_.xbarTraversals;
        if (in.buffer.empty())
            buffered_.assign(winner, false);

        if (flit.head) {
            out.lockedBy = winner;
            in.currentOut = static_cast<std::uint32_t>(o);
        }
        if (flit.tail) {
            out.lockedBy = kInvalidId;
            in.currentOut = kInvalidId;
        }

        out.out->send(std::move(flit), now);
        if (in.in != nullptr)
            in.in->returnCredit(now);
        return false; // the request is served
    });

    for (const std::uint32_t i : requesters_)
        requestedOut_[i] = kInvalidId;
    requesters_.clear();
}

void
Router::saveCkpt(CkptWriter &w, std::uint64_t cycles) const
{
    w.b(bypass_);
    for (const InputPort &in : inputs_) {
        w.varint(in.buffer.size());
        for (const auto &e : in.buffer) {
            w.u64(e.first);
            ckptValue(w, e.second);
        }
        w.u32(in.currentOut);
    }
    for (const OutputPort &out : outputs_) {
        out.arb.saveCkpt(w);
        w.u32(out.lockedBy);
    }
    ckptValue(w, activity(cycles));
}

void
Router::loadCkpt(CkptReader &r)
{
    bypass_ = r.b();
    bufferedFlits_ = 0;
    for (std::uint32_t i = 0; i < params_.numInPorts; ++i) {
        InputPort &in = inputs_[i];
        in.buffer.clear();
        const std::uint64_t n = r.varint();
        if (n > inputBufferDepth())
            r.fail("router input buffer overflow");
        for (std::uint64_t i = 0; i < n; ++i) {
            const Cycle eligible = r.u64();
            Flit flit{};
            ckptValue(r, flit);
            in.buffer.push_back({eligible, flit});
        }
        bufferedFlits_ += static_cast<std::uint32_t>(n);
        buffered_.assign(i, n != 0);
        // Channels are restored before routers.
        arriving_.assign(i, in.in != nullptr && in.in->flitsInFlight() != 0);
        in.currentOut = r.u32();
        if (in.currentOut != kInvalidId &&
            in.currentOut >= params_.numOutPorts)
            r.fail("router wormhole lock out of range");
    }
    for (std::uint32_t o = 0; o < params_.numOutPorts; ++o) {
        OutputPort &out = outputs_[o];
        crediting_.assign(o, out.out != nullptr && out.out->creditsInFlight());
        out.arb.loadCkpt(r);
        out.lockedBy = r.u32();
        if (out.lockedBy != kInvalidId &&
            out.lockedBy >= params_.numInPorts)
            r.fail("router output lock out of range");
    }
    ckptValue(r, activity_);
    accountedTo_ = 0;
}

void
Router::tick(Cycle now)
{
    // Absorb credit returns on the outputs with credits on the wire.
    crediting_.walk([&](std::size_t o) {
        FlitChannel &ch = *outputs_[o].out;
        ch.tickSender(now);
        return ch.creditsInFlight();
    });
    acceptArrivals(now);
    if (bufferedFlits_ == 0)
        return; // allocation (or the bypass walk) cannot move anything
    if (bypass_)
        tickBypass(now);
    else
        tickAllocate(now);
}

#ifndef NDEBUG
void
Router::checkPortSets() const
{
    std::uint32_t buffered = 0;
    for (std::uint32_t i = 0; i < params_.numInPorts; ++i) {
        const InputPort &in = inputs_[i];
        const bool on_wire = in.in != nullptr && in.in->flitsInFlight() != 0;
        if (arriving_.test(i) != on_wire)
            panic("router '%s': input %u flits-on-the-wire bit is %d, "
                  "a scan says %d",
                  params_.name.c_str(), i, arriving_.test(i), on_wire);
        if (buffered_.test(i) == in.buffer.empty())
            panic("router '%s': input %u buffered bit is %d, a scan "
                  "says %d",
                  params_.name.c_str(), i, buffered_.test(i),
                  !in.buffer.empty());
        if (requestedOut_[i] != kInvalidId)
            panic("router '%s': input %u request left behind",
                  params_.name.c_str(), i);
        buffered += static_cast<std::uint32_t>(in.buffer.size());
    }
    for (std::uint32_t o = 0; o < params_.numOutPorts; ++o) {
        const OutputPort &out = outputs_[o];
        const bool on_wire = out.out != nullptr && out.out->creditsInFlight();
        if (crediting_.test(o) != on_wire)
            panic("router '%s': output %u credits-on-the-wire bit is "
                  "%d, a scan says %d",
                  params_.name.c_str(), o, crediting_.test(o), on_wire);
    }
    if (buffered != bufferedFlits_)
        panic("router '%s': %u buffered flits counted, buffers hold %u",
              params_.name.c_str(), bufferedFlits_, buffered);
    if (requested_.any() || !requesters_.empty())
        panic("router '%s': switch requests left behind",
              params_.name.c_str());
}
#endif

} // namespace amsc
