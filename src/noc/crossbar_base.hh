/**
 * @file
 * Shared machinery for crossbar-style networks.
 *
 * Owns the channels, routers and endpoint adapters; provides the
 * default Network implementation for topologies with one injection
 * adapter per SM and one ejection adapter per slice (full crossbar and
 * hierarchical crossbar). The concentrated crossbar overrides the
 * endpoint methods to route through concentrators/distributors.
 *
 * Only components with work in flight are ticked. Three ordered
 * active sets -- sources, routers, sinks -- hold one bit per
 * component, set while it has anything queued, buffered or in flight
 * on its channels (see common/active_set.hh). tick(), nextEventCycle()
 * and drained() read those sets instead of scanning every component.
 */

#ifndef AMSC_NOC_CROSSBAR_BASE_HH
#define AMSC_NOC_CROSSBAR_BASE_HH

#include <memory>
#include <vector>

#include "common/active_set.hh"
#include "noc/channel.hh"
#include "noc/endpoint.hh"
#include "noc/network.hh"
#include "noc/noc_params.hh"
#include "noc/router.hh"

namespace amsc
{

/** Base class for the crossbar topologies. */
class CrossbarBase : public Network
{
  public:
    explicit CrossbarBase(const NocParams &params);

    bool canInjectRequest(SmId sm) const override;
    void injectRequest(NocMessage msg, Cycle now) override;
    bool canInjectReply(SliceId slice) const override;
    void injectReply(NocMessage msg, Cycle now) override;
    bool hasRequestFor(SliceId slice) const override;
    NocMessage popRequestFor(SliceId slice, Cycle now) override;
    bool hasReplyFor(SmId sm) const override;
    NocMessage popReplyFor(SmId sm, Cycle now) override;

    /**
     * Tick the active sources, then routers, then sinks, each set in
     * index order -- the order of a full scan -- and deliver the
     * replies completed this tick.
     */
    void tick(Cycle now) override;

    /** No component active and no message parked in a sink. */
    bool drained() const override;

    /**
     * Exact event advertisement: the min over the active components'
     * own events -- sources (earliest sendable cycle while a message
     * is queued), routers (earliest movable head-of-line flit) and
     * the flit and credit fronts of the channels they own (arrivals
     * on a component's inputs, credit returns on its outputs). Every
     * channel has one sender and one receiver, and whatever is in
     * flight on it keeps one of them active, so skipping the inactive
     * components loses nothing. Messages already reassembled in a
     * sink are the consumer's event (the LLC/SM advertises `now`
     * while input is pending).
     */
    Cycle nextEventCycle(Cycle now) const override;
    void advanceIdleCycles(Cycle n) override;
    NocActivity activity() const override;
    void saveCkpt(CkptWriter &w) const override;
    void loadCkpt(CkptReader &r) override;

  protected:
    /** Route table mapping every destination below @p n to fn(dst). */
    template <class F>
    static std::vector<std::uint32_t>
    routeTable(std::uint32_t n, F fn)
    {
        std::vector<std::uint32_t> table(n);
        for (std::uint32_t dst = 0; dst < n; ++dst)
            table[dst] = fn(dst);
        return table;
    }

    /** Allocate and register a channel. */
    FlitChannel *makeChannel(Cycle flit_latency, std::uint32_t credits,
                             double length_mm);

    /** Allocate and register a router. */
    Router *makeRouter(const RouterParams &rp,
                       std::vector<std::uint32_t> route);

    /**
     * Register the endpoint adapters in tick and checkpoint order
     * (request sources, reply sources; request sinks, reply sinks)
     * and bind every component's active-set bit. Each topology
     * constructor calls this once, after building everything.
     */
    template <class Src, class Snk>
    void
    bindActiveSets(const std::vector<std::unique_ptr<Src>> &req_src,
                   const std::vector<std::unique_ptr<Src>> &rep_src,
                   const std::vector<std::unique_ptr<Snk>> &req_snk,
                   const std::vector<std::unique_ptr<Snk>> &rep_snk)
    {
        for (const auto &s : req_src)
            sources_.push_back(s.get());
        for (const auto &s : rep_src)
            sources_.push_back(s.get());
        for (const auto &s : req_snk)
            sinks_.push_back(s.get());
        for (const auto &s : rep_snk)
            sinks_.push_back(s.get());
        firstRepSource_ = req_src.size();
        firstRepSink_ = req_snk.size();
        bindComponents();
    }

    /**
     * Account a message taken out of a sink for its consumer in
     * @p stats. @return @p msg.
     */
    NocMessage takeDelivery(NetworkStats &stats, const NocMessage &msg,
                            Cycle now);

    NocParams params_;
    std::vector<std::unique_ptr<FlitChannel>> channels_;
    std::vector<std::unique_ptr<Router>> routers_;
    /** Per-SM request sources (may be empty for C-Xbar). */
    std::vector<std::unique_ptr<InjectionAdapter>> reqInj_;
    /** Per-slice request sinks (may be empty for C-Xbar). */
    std::vector<std::unique_ptr<EjectionAdapter>> reqEj_;
    /** Per-slice reply sources (may be empty for C-Xbar). */
    std::vector<std::unique_ptr<InjectionAdapter>> repInj_;
    /** Per-SM reply sinks (may be empty for C-Xbar). */
    std::vector<std::unique_ptr<EjectionAdapter>> repEj_;
    /**
     * Network cycles elapsed (ticked or skipped) since construction
     * or restore; routers account their active/gated cycles from it.
     */
    std::uint64_t cycles_ = 0;

  private:
    void bindComponents();
    /** Push the replies completed this tick into the handler. */
    void deliverReplies(Cycle now);

#ifndef NDEBUG
    /**
     * Debug reference: panics unless every router's port sets equal
     * a full port scan (Router::checkPortSets), every bit matches its
     * component's busy() state, the parked count matches the sinks,
     * and drained()/nextEventCycle() equal a scan of every component
     * and channel.
     */
    void checkActiveSets() const;
#endif

    /** All sources, then all sinks, in tick order. */
    std::vector<NocSource *> sources_;
    std::vector<NocSink *> sinks_;
    std::size_t firstRepSource_ = 0;
    std::size_t firstRepSink_ = 0;
    ActiveSet activeSources_;
    ActiveSet activeRouters_;
    ActiveSet activeSinks_;
    /** Complete messages waiting in sinks for their consumer. */
    std::size_t parked_ = 0;
    /** Reply sinks that completed a message this tick, in order. */
    std::vector<std::size_t> repReady_;
};

} // namespace amsc

#endif // AMSC_NOC_CROSSBAR_BASE_HH
