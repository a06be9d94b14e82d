/**
 * @file
 * Endpoint adapters: packetization at injection, reassembly at
 * ejection.
 *
 * An InjectionAdapter owns the first hop channel into the network: it
 * queues whole messages, splits them into flits and transmits one flit
 * per cycle as credits allow.
 *
 * An EjectionAdapter owns the last hop channel out of the network: it
 * reassembles arriving flits into messages and exposes a bounded
 * message queue to the consumer (LLC slice input queue / SM reply
 * queue). When the consumer queue is full the adapter stops receiving
 * flits, which exhausts upstream credits and exerts backpressure into
 * the network -- this is exactly how "requests queue up in front of
 * the LLC slice" in the paper's shared-LLC bottleneck.
 *
 * NocSource and NocSink are what a crossbar sees of either kind of
 * endpoint (these adapters, or the concentrated crossbar's
 * concentrators and distributors): a tick, whether the adapter still
 * has work for its tick (the active-set invariant), its next event
 * and its checkpoint state.
 */

#ifndef AMSC_NOC_ENDPOINT_HH
#define AMSC_NOC_ENDPOINT_HH

#include <cstdint>

#include "common/active_set.hh"
#include "common/ckpt.hh"
#include "common/log.hh"
#include "common/ring_fifo.hh"
#include "common/types.hh"
#include "noc/channel.hh"
#include "noc/message.hh"

namespace amsc
{

/** A message source feeding one channel into a crossbar. */
class NocSource
{
  public:
    explicit NocSource(FlitChannel *out) : out_(out) {}
    virtual ~NocSource() = default;

    /** Transmit up to one flit. */
    virtual void tick(Cycle now) = 0;

    /** True when nothing is queued or partially sent. */
    virtual bool drained() const = 0;

    virtual void saveCkpt(CkptWriter &w) const = 0;
    virtual void loadCkpt(CkptReader &r) = 0;

    /**
     * Bind the crossbar's active-set bit: accepting a message and a
     * credit returned on the output channel both set it.
     */
    void
    bindActive(ActiveBit bit)
    {
        self_ = bit;
        out_->bindSender(bit);
    }

    /** Work for tick(): a queued message or a credit on its way back. */
    bool busy() const { return !drained() || out_->creditsInFlight(); }

    /**
     * Earliest cycle tick() could change state. While a message is
     * queued that is the channel's next sendable cycle: credits
     * appear only through a returned credit (whose front it is) or a
     * downstream pop (the downstream component's own event). Idle, it
     * is the credit front alone, whose absorption still mutates
     * checkpointed channel state.
     */
    Cycle
    nextEventCycle() const
    {
        return drained() ? out_->nextCreditCycle()
                         : out_->nextSendableCycle();
    }

  protected:
    FlitChannel *out_;
    /** Set on accept(); a queued message is work for tick(). */
    ActiveBit self_;
};

/** A message sink draining one channel out of a crossbar. */
class NocSink
{
  public:
    explicit NocSink(FlitChannel *in) : in_(in) {}
    virtual ~NocSink() = default;

    /** Receive up to one flit. @return true if it completed a message. */
    virtual bool tick(Cycle now) = 0;

    /** True when no partial or complete message is held. */
    virtual bool drained() const = 0;

    /** Complete messages waiting for their consumer. */
    virtual std::size_t parked() const = 0;

    /**
     * Take the oldest message of the lowest-numbered endpoint holding
     * one. @pre parked() > 0.
     */
    virtual NocMessage popNext() = 0;

    /**
     * The message the last tick() completed (its reassembly latch).
     * @pre the last tick() returned true.
     */
    virtual const NocMessage &lastCompleted() const = 0;

    virtual void saveCkpt(CkptWriter &w) const = 0;
    virtual void loadCkpt(CkptReader &r) = 0;

    /** Bind the crossbar's active-set bit: a sent flit sets it. */
    void bindActive(ActiveBit bit) { in_->bindReceiver(bit); }

    /**
     * Work for tick(): a flit in flight on the input channel. Parked
     * messages are the consumer's event, not the sink's.
     */
    bool busy() const { return in_->flitsInFlight() != 0; }

    /** The input channel's arrival front. */
    Cycle nextEventCycle() const { return in_->nextArrivalCycle(); }

  protected:
    FlitChannel *in_;
};

/** Message source: packetizes and feeds one channel. */
class InjectionAdapter final : public NocSource
{
  public:
    /**
     * @param out        first-hop channel (owned elsewhere).
     * @param width_bytes channel width for flitization.
     * @param queue_cap  message queue capacity.
     */
    InjectionAdapter(FlitChannel *out, std::uint32_t width_bytes,
                     std::size_t queue_cap)
        : NocSource(out), widthBytes_(width_bytes), queueCap_(queue_cap),
          queue_(queue_cap)
    {}

    /** @return true if another message can be queued. */
    bool canAccept() const { return queue_.size() < queueCap_; }

    /** Queue a message for transmission. @pre canAccept(). */
    void
    accept(NocMessage msg, Cycle now)
    {
        if (!canAccept())
            panic("injection queue overflow");
        msg.injectCycle = now;
        queue_.push_back(msg);
        self_.set();
    }

    /** Transmit up to one flit. */
    void
    tick(Cycle now) override
    {
        out_->tickSender(now);
        if (queue_.empty() || !out_->canSend())
            return;
        const NocMessage &msg = queue_.front();
        const std::uint32_t total = msg.numFlits(widthBytes_);
        Flit flit;
        flit.head = flitsSent_ == 0;
        flit.tail = flitsSent_ + 1 == total;
        if (flit.head)
            flit.msg = msg;
        out_->send(std::move(flit), now);
        ++flitsSent_;
        if (flitsSent_ == total) {
            queue_.pop_front();
            flitsSent_ = 0;
        }
    }

    bool drained() const override { return queue_.empty(); }

    /** Serialize queued messages and the partial-packet cursor. */
    void
    saveCkpt(CkptWriter &w) const override
    {
        w.varint(queue_.size());
        for (const NocMessage &m : queue_)
            ckptValue(w, m);
        w.u32(flitsSent_);
    }

    /** Restore state written by saveCkpt(). */
    void
    loadCkpt(CkptReader &r) override
    {
        queue_.clear();
        const std::uint64_t n = r.varint();
        if (n > queueCap_)
            r.fail("injection queue overflow");
        for (std::uint64_t i = 0; i < n; ++i) {
            NocMessage m{};
            ckptValue(r, m);
            queue_.push_back(m);
        }
        flitsSent_ = r.u32();
    }

  private:
    std::uint32_t widthBytes_;
    std::size_t queueCap_;
    RingFifo<NocMessage> queue_;
    std::uint32_t flitsSent_ = 0;
};

/** Message sink: reassembles flits from one channel. */
class EjectionAdapter final : public NocSink
{
  public:
    /**
     * @param in         last-hop channel (owned elsewhere).
     * @param queue_cap  reassembled-message queue capacity.
     */
    EjectionAdapter(FlitChannel *in, std::size_t queue_cap)
        : NocSink(in), queueCap_(queue_cap), msgs_(queue_cap)
    {}

    /** Receive up to one flit (stalls when the queue is full). */
    bool
    tick(Cycle now) override
    {
        if (msgs_.size() >= queueCap_)
            return false; // backpressure: stop receiving, credits dry up
        if (!in_->hasArrival(now))
            return false;
        Flit flit = in_->receive(now);
        in_->returnCredit(now);
        if (flit.head)
            pending_ = flit.msg;
        if (flit.tail)
            msgs_.push_back(pending_);
        return flit.tail;
    }

    /** @return true if a complete message is available. */
    bool hasMessage() const { return !msgs_.empty(); }

    /** Peek the oldest delivered message. @pre hasMessage(). */
    const NocMessage &front() const { return msgs_.front(); }

    /** Take the oldest delivered message. @pre hasMessage(). */
    NocMessage
    pop()
    {
        NocMessage m = msgs_.front();
        msgs_.pop_front();
        return m;
    }

    NocMessage popNext() override { return pop(); }

    const NocMessage &lastCompleted() const override { return pending_; }

    bool drained() const override { return msgs_.empty(); }

    std::size_t parked() const override { return msgs_.size(); }

    /** Serialize delivered messages and the reassembly latch. */
    void
    saveCkpt(CkptWriter &w) const override
    {
        w.varint(msgs_.size());
        for (const NocMessage &m : msgs_)
            ckptValue(w, m);
        ckptValue(w, pending_);
    }

    /** Restore state written by saveCkpt(). */
    void
    loadCkpt(CkptReader &r) override
    {
        msgs_.clear();
        const std::uint64_t n = r.varint();
        if (n > queueCap_)
            r.fail("ejection queue overflow");
        for (std::uint64_t i = 0; i < n; ++i) {
            NocMessage m{};
            ckptValue(r, m);
            msgs_.push_back(m);
        }
        ckptValue(r, pending_);
    }

  private:
    std::size_t queueCap_;
    RingFifo<NocMessage> msgs_;
    NocMessage pending_{};
};

} // namespace amsc

#endif // AMSC_NOC_ENDPOINT_HH
