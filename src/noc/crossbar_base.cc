#include "noc/crossbar_base.hh"

#include <algorithm>

#include "common/log.hh"

namespace amsc
{

CrossbarBase::CrossbarBase(const NocParams &params) : params_(params)
{
    if (params_.numSms == 0 || params_.numSlices() == 0)
        fatal("NoC requires SMs and slices");
}

FlitChannel *
CrossbarBase::makeChannel(Cycle flit_latency, std::uint32_t credits,
                          double length_mm)
{
    channels_.push_back(std::make_unique<FlitChannel>(
        flit_latency, params_.creditLatency, credits, length_mm,
        params_.channelWidthBytes));
    return channels_.back().get();
}

Router *
CrossbarBase::makeRouter(const RouterParams &rp,
                         std::vector<std::uint32_t> route)
{
    routers_.push_back(std::make_unique<Router>(rp, std::move(route)));
    return routers_.back().get();
}

void
CrossbarBase::bindComponents()
{
    activeSources_.resize(sources_.size());
    activeRouters_.resize(routers_.size());
    activeSinks_.resize(sinks_.size());
    for (std::size_t i = 0; i < sources_.size(); ++i)
        sources_[i]->bindActive(activeSources_.bit(i));
    for (std::size_t i = 0; i < routers_.size(); ++i)
        routers_[i]->bindActive(activeRouters_.bit(i));
    for (std::size_t i = 0; i < sinks_.size(); ++i)
        sinks_[i]->bindActive(activeSinks_.bit(i));
}

NocMessage
CrossbarBase::takeDelivery(NetworkStats &stats, const NocMessage &msg,
                           Cycle now)
{
    --parked_;
    Network::accountDelivery(stats, msg, now, params_.channelWidthBytes);
    return msg;
}

bool
CrossbarBase::canInjectRequest(SmId sm) const
{
    return reqInj_[sm]->canAccept();
}

void
CrossbarBase::injectRequest(NocMessage msg, Cycle now)
{
    ++reqStats_.messagesInjected;
    reqInj_[msg.src]->accept(msg, now);
}

bool
CrossbarBase::canInjectReply(SliceId slice) const
{
    return repInj_[slice]->canAccept();
}

void
CrossbarBase::injectReply(NocMessage msg, Cycle now)
{
    ++repStats_.messagesInjected;
    repInj_[msg.src]->accept(msg, now);
}

bool
CrossbarBase::hasRequestFor(SliceId slice) const
{
    return reqEj_[slice]->hasMessage();
}

NocMessage
CrossbarBase::popRequestFor(SliceId slice, Cycle now)
{
    return takeDelivery(reqStats_, reqEj_[slice]->pop(), now);
}

bool
CrossbarBase::hasReplyFor(SmId sm) const
{
    return repEj_[sm]->hasMessage();
}

NocMessage
CrossbarBase::popReplyFor(SmId sm, Cycle now)
{
    return takeDelivery(repStats_, repEj_[sm]->pop(), now);
}

void
CrossbarBase::tick(Cycle now)
{
    ++cycles_;
    activeSources_.walk([&](std::size_t i) {
        NocSource &src = *sources_[i];
        src.tick(now);
        return src.busy();
    });
    activeRouters_.walk([&](std::size_t i) {
        Router &r = *routers_[i];
        r.tick(now);
        return r.busy();
    });
    activeSinks_.walk([&](std::size_t i) {
        NocSink &sink = *sinks_[i];
        if (sink.tick(now)) {
            ++parked_;
            if (i >= firstRepSink_)
                repReady_.push_back(i);
            else
                wakeRequestConsumer(sink.lastCompleted().dst);
        }
        return sink.busy();
    });
    deliverReplies(now);
#ifndef NDEBUG
    checkActiveSets();
#endif
}

void
CrossbarBase::deliverReplies(Cycle now)
{
    // One flit per sink per tick completes at most one message per
    // sink, and every earlier reply was delivered on its own tick, so
    // draining just these sinks in index order is the full scan's
    // delivery order.
    if (replyHandler_) {
        for (const std::size_t i : repReady_) {
            NocSink &sink = *sinks_[i];
            while (sink.parked() != 0) {
                const NocMessage msg =
                    takeDelivery(repStats_, sink.popNext(), now);
                replyHandler_(msg, now);
            }
        }
    }
    repReady_.clear();
}

Cycle
CrossbarBase::nextEventCycle(Cycle now) const
{
    (void)now;
    Cycle next = kNoCycle;
    activeSources_.forEach([&](std::size_t i) {
        next = std::min(next, sources_[i]->nextEventCycle());
    });
    activeRouters_.forEach([&](std::size_t i) {
        next = std::min(next, routers_[i]->nextEventCycle());
    });
    activeSinks_.forEach([&](std::size_t i) {
        next = std::min(next, sinks_[i]->nextEventCycle());
    });
    return next;
}

void
CrossbarBase::advanceIdleCycles(Cycle n)
{
    cycles_ += n;
}

bool
CrossbarBase::drained() const
{
    return parked_ == 0 && !activeSources_.any() &&
        !activeRouters_.any() && !activeSinks_.any();
}

#ifndef NDEBUG
void
CrossbarBase::checkActiveSets() const
{
    Cycle next = kNoCycle;
    bool drained = true;
    std::size_t parked = 0;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        const NocSource &src = *sources_[i];
        if (activeSources_.test(i) != src.busy())
            panic("NoC source %zu: active bit disagrees with its work",
                  i);
        next = std::min(next, src.nextEventCycle());
        drained = drained && src.drained();
    }
    for (std::size_t i = 0; i < routers_.size(); ++i) {
        const Router &r = *routers_[i];
        r.checkPortSets();
        if (activeRouters_.test(i) != r.busy())
            panic("router '%s': active bit disagrees with its work",
                  r.params().name.c_str());
        next = std::min(next, r.nextEventCycle());
        drained = drained && r.drained();
    }
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
        const NocSink &sink = *sinks_[i];
        if (activeSinks_.test(i) != sink.busy())
            panic("NoC sink %zu: active bit disagrees with its work", i);
        next = std::min(next, sink.nextEventCycle());
        drained = drained && sink.drained();
        parked += sink.parked();
    }
    for (const auto &ch : channels_) {
        next = std::min({next, ch->nextArrivalCycle(),
                         ch->nextCreditCycle()});
        drained = drained && ch->quiescent();
    }
    if (parked != parked_)
        panic("NoC parked-message count %zu, sinks hold %zu", parked_,
              parked);
    if (drained != this->drained())
        panic("NoC drained() disagrees with a full scan");
    if (next != nextEventCycle(0))
        panic("NoC nextEventCycle() disagrees with a full scan");
}
#endif

void
CrossbarBase::saveCkpt(CkptWriter &w) const
{
    saveStatsCkpt(w);
    // Channel/router/adapter counts and wiring are fully determined
    // by the topology constructor, so per-element state is written in
    // construction order; the counts guard against topology drift.
    w.varint(channels_.size());
    for (const auto &ch : channels_)
        ch->saveCkpt(w);
    w.varint(routers_.size());
    for (const auto &r : routers_)
        r->saveCkpt(w, cycles_);
    for (std::size_t i = 0; i < firstRepSource_; ++i)
        sources_[i]->saveCkpt(w);
    for (std::size_t i = 0; i < firstRepSink_; ++i)
        sinks_[i]->saveCkpt(w);
    for (std::size_t i = firstRepSource_; i < sources_.size(); ++i)
        sources_[i]->saveCkpt(w);
    for (std::size_t i = firstRepSink_; i < sinks_.size(); ++i)
        sinks_[i]->saveCkpt(w);
}

void
CrossbarBase::loadCkpt(CkptReader &r)
{
    loadStatsCkpt(r);
    if (r.varint() != channels_.size())
        r.fail("NoC channel count mismatch");
    for (auto &ch : channels_)
        ch->loadCkpt(r);
    if (r.varint() != routers_.size())
        r.fail("NoC router count mismatch");
    for (auto &rt : routers_)
        rt->loadCkpt(r);
    for (std::size_t i = 0; i < firstRepSource_; ++i)
        sources_[i]->loadCkpt(r);
    for (std::size_t i = 0; i < firstRepSink_; ++i)
        sinks_[i]->loadCkpt(r);
    for (std::size_t i = firstRepSource_; i < sources_.size(); ++i)
        sources_[i]->loadCkpt(r);
    for (std::size_t i = firstRepSink_; i < sinks_.size(); ++i)
        sinks_[i]->loadCkpt(r);
    cycles_ = 0;
    // Bits follow the restored state exactly: drained() reads them,
    // and the LLC may poll it before the next tick.
    parked_ = 0;
    repReady_.clear();
    for (std::size_t i = 0; i < sources_.size(); ++i)
        activeSources_.assign(i, sources_[i]->busy());
    for (std::size_t i = 0; i < routers_.size(); ++i)
        activeRouters_.assign(i, routers_[i]->busy());
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
        activeSinks_.assign(i, sinks_[i]->busy());
        const std::size_t parked = sinks_[i]->parked();
        parked_ += parked;
        if (i >= firstRepSink_ && parked != 0)
            repReady_.push_back(i);
    }
}

NocActivity
CrossbarBase::activity() const
{
    NocActivity act;
    act.routers.reserve(routers_.size());
    for (const auto &r : routers_)
        act.routers.push_back(r->activity(cycles_));
    act.links.reserve(channels_.size());
    for (const auto &ch : channels_)
        act.links.push_back(ch->activity());
    return act;
}

} // namespace amsc
