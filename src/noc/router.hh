/**
 * @file
 * Input-queued wormhole router with credit flow control.
 *
 * Models the paper's 4-stage router pipeline (route computation,
 * VC allocation, switch allocation, switch traversal): a flit written
 * into an input buffer becomes eligible for switch allocation after
 * `pipelineLatency` cycles and traverses the switch in the grant
 * cycle. Allocation is a single-iteration separable (iSLIP-style)
 * allocator with per-output round-robin grant pointers that advance
 * only on grant.
 *
 * Wormhole semantics: a head flit locks its output port for the
 * packet; body flits follow on the same route; the tail flit releases
 * the lock. With one VC per port (Table 1) an input port serves one
 * packet at a time.
 *
 * Reconfigurable bypass (paper Fig 10): when `bypass` is enabled on a
 * square router, input i forwards directly to output i with a one
 * cycle latch delay, skipping buffering*, allocation and the switch;
 * the router is considered power-gated and traffic is accounted as
 * bypass traversals. (*Structurally flits still pass through the
 * input FIFO object, but no buffer energy is charged.)
 *
 * Routing is a table indexed by the head flit's `msg.dst`: every
 * shipped topology routes as a pure function of the destination, so
 * the table is built and port-checked once by the topology.
 *
 * Active and gated cycles are accounted lazily against the owning
 * network's cycle count: the router is ticked only while it has work,
 * yet every network cycle counts as active, or as gated under bypass.
 *
 * Inside a tick the router visits only the ports with work. Three
 * port sets (common/active_set.hh) hold inputs with flits on the
 * wire, outputs with credits on the wire and inputs with buffered
 * flits; the channels set the first two as they send flits and return
 * credits, and the router sets the third as it buffers a flit. Each
 * bit is cleared only by the router's own tick, when the port drains.
 * Switch allocation records which outputs were requested, and by
 * which inputs, and grants only those outputs.
 */

#ifndef AMSC_NOC_ROUTER_HH
#define AMSC_NOC_ROUTER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/active_set.hh"
#include "common/ckpt.hh"
#include "common/ring_fifo.hh"
#include "common/types.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/message.hh"

namespace amsc
{

/** Router structural parameters. */
struct RouterParams
{
    std::string name = "router";
    std::uint32_t numInPorts = 0;
    std::uint32_t numOutPorts = 0;
    /** Virtual channels per input port (Table 1: 1). */
    std::uint32_t numVcs = 1;
    /** Input buffer depth in flits per VC (Table 1: 8). */
    std::uint32_t vcDepthFlits = 8;
    /** Cycles between buffer write and SA eligibility (4-stage: 3). */
    std::uint32_t pipelineLatency = 3;
    /** Channel width (power model bookkeeping). */
    std::uint32_t channelWidthBytes = 32;
    /** True for MC-routers that support bypass + power gating. */
    bool gateable = false;
};

/** Input-queued wormhole router. */
class Router
{
  public:
    /**
     * @param route output port per head-flit `msg.dst`; every entry
     *              must name an existing output port.
     */
    Router(const RouterParams &params, std::vector<std::uint32_t> route);

    /**
     * Attach the upstream channel feeding input @p port; a flit sent
     * on it marks the port in the inputs-with-flits-on-the-wire set.
     */
    void connectInput(std::uint32_t port, FlitChannel *channel);

    /**
     * Attach the downstream channel driven by output @p port; a
     * credit returned on it marks the port in the
     * outputs-with-credits-on-the-wire set.
     */
    void connectOutput(std::uint32_t port, FlitChannel *channel);

    /**
     * Bind the owning crossbar's active-set bit: a flit sent on an
     * input channel and a credit returned on an output channel set it.
     */
    void bindActive(ActiveBit bit);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Enable/disable the bypass path. The active/gated cycles up to
     * network cycle count @p cycles are accounted to the old mode.
     *
     * @pre router is square (numInPorts == numOutPorts) and gateable.
     * @pre drained() -- the reconfiguration protocol drains first.
     */
    void setBypass(bool enable, std::uint64_t cycles);

    bool bypassed() const { return bypass_; }

    /** True when all input buffers are empty. */
    bool drained() const { return bufferedFlits_ == 0; }

    /**
     * Work for tick(): a buffered flit, a flit in flight on an input
     * channel or a credit in flight back on an output channel. When
     * false, tick() is a no-op.
     */
    bool busy() const;

    /**
     * Earliest cycle a tick() could change state; kNoCycle when
     * nothing can happen without an external event first. Covers the
     * router's channel fronts -- flit arrivals on its inputs and
     * credit returns on its outputs -- and its head-of-line flits.
     * Exact per input: a head-of-line flit moves at max(pipeline
     * eligibility, downstream sendable cycle). Inputs whose movement
     * is gated on someone else's event are skipped soundly:
     *  - a head flit facing a locked output (the lock releases only
     *    when the holder's tail traverses -- that input's own event --
     *    and the request phase sees the lock before the grant phase
     *    clears it, so same-cycle unlock-and-move cannot happen);
     *  - an output with zero banked credits and none in flight
     *    (credits reappear only after a downstream buffer pop).
     */
    Cycle nextEventCycle() const;

    /** Buffer depth seen by upstream credit counters. */
    std::uint32_t
    inputBufferDepth() const
    {
        return params_.vcDepthFlits * params_.numVcs;
    }

    const RouterParams &params() const { return params_; }

    /**
     * Activity counters with every network cycle up to the count
     * @p cycles accounted as active, or gated under bypass.
     */
    RouterActivity activity(std::uint64_t cycles) const;

    /**
     * Serialize input buffers, wormhole locks, arbiter pointers, the
     * bypass flag and activity(@p cycles) (geometry is structural).
     */
    void saveCkpt(CkptWriter &w, std::uint64_t cycles) const;

    /**
     * Restore state written by saveCkpt(); the owning network's cycle
     * count restarts from zero.
     */
    void loadCkpt(CkptReader &r);

#ifndef NDEBUG
    /**
     * Debug reference: panics unless each port set and the buffered
     * flit count equal a full scan of the ports and their channels.
     */
    void checkPortSets() const;
#endif

  private:
    struct InputPort
    {
        FlitChannel *in = nullptr;
        /**
         * (eligibleAt, flit) FIFO; single VC per Table 1, bounded by
         * the buffer depth.
         */
        RingFifo<std::pair<Cycle, Flit>> buffer;
        /** Output locked by the in-flight packet (wormhole). */
        std::uint32_t currentOut = kInvalidId;
    };

    struct OutputPort
    {
        FlitChannel *out = nullptr;
        RoundRobinArbiter arb;
        /** Input index holding the wormhole lock, or kInvalidId. */
        std::uint32_t lockedBy = kInvalidId;
    };

    void acceptArrivals(Cycle now);
    void tickBypass(Cycle now);
    void tickAllocate(Cycle now);

    RouterParams params_;
    std::vector<std::uint32_t> route_;
    std::vector<InputPort> inputs_;
    std::vector<OutputPort> outputs_;
    bool bypass_ = false;
    RouterActivity activity_;
    /** Network cycle count activity_'s active/gated cycles cover. */
    std::uint64_t accountedTo_ = 0;
    /**
     * Flits across all input buffers. Gates the allocation scan: with
     * zero buffered flits, request/grant phases are provable no-ops
     * (the arbiter pointer only moves on grant), so tick() returns
     * right after absorbing credits and arrivals.
     */
    std::uint32_t bufferedFlits_ = 0;
    /** Inputs with flits on the wire (set by FlitChannel::send). */
    ActiveSet arriving_;
    /** Outputs with credits on the wire (set by returnCredit). */
    ActiveSet crediting_;
    /** Inputs with buffered flits. */
    ActiveSet buffered_;
    // Switch-allocation scratch, empty outside tickAllocate(): the
    // outputs requested this cycle, the output each input requested
    // (kInvalidId = none) and the requesting inputs.
    ActiveSet requested_;
    std::vector<std::uint32_t> requestedOut_;
    std::vector<std::uint32_t> requesters_;
};

} // namespace amsc

#endif // AMSC_NOC_ROUTER_HH
