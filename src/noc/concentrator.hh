/**
 * @file
 * Concentrator / distributor adapters for the concentrated crossbar
 * (paper Fig 5).
 *
 * A concentrator lets `c` SMs share one network injection port: each
 * SM keeps its own message queue and a round-robin arbiter picks which
 * queue streams its next packet (packets are never interleaved on the
 * shared port -- wormhole). A distributor is the mirror image on the
 * ejection side: one network port fans out to `c` endpoints, with
 * head-of-line blocking when the target endpoint queue is full. Port
 * contention in these adapters is exactly why C-Xbar loses performance
 * at high concentration in Figure 7a.
 */

#ifndef AMSC_NOC_CONCENTRATOR_HH
#define AMSC_NOC_CONCENTRATOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ckpt.hh"
#include "common/log.hh"
#include "common/ring_fifo.hh"
#include "common/types.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/endpoint.hh"
#include "noc/message.hh"

namespace amsc
{

/** c-to-1 injection concentrator with per-source queues. */
class ConcentratorAdapter final : public NocSource
{
  public:
    ConcentratorAdapter(FlitChannel *out, std::uint32_t width_bytes,
                        std::uint32_t num_srcs, std::size_t queue_cap)
        : NocSource(out), widthBytes_(width_bytes), queueCap_(queue_cap),
          queues_(num_srcs, RingFifo<NocMessage>(queue_cap)),
          arb_(num_srcs)
    {}

    bool
    canAccept(std::uint32_t local_src) const
    {
        return queues_[local_src].size() < queueCap_;
    }

    void
    accept(std::uint32_t local_src, NocMessage msg, Cycle now)
    {
        if (!canAccept(local_src))
            panic("concentrator queue overflow");
        msg.injectCycle = now;
        queues_[local_src].push_back(msg);
        self_.set();
    }

    /** Stream one flit of the current packet, or arbitrate a new one. */
    void
    tick(Cycle now) override
    {
        out_->tickSender(now);
        if (!out_->canSend())
            return;

        if (current_ == kInvalidId) {
            // Pick the next non-empty source queue round-robin.
            const std::uint32_t pick = arb_.grant(
                [&](std::uint32_t i) { return !queues_[i].empty(); });
            if (pick == queues_.size())
                return;
            current_ = pick;
            flitsSent_ = 0;
        }

        const NocMessage &msg = queues_[current_].front();
        const std::uint32_t total = msg.numFlits(widthBytes_);
        Flit flit;
        flit.head = flitsSent_ == 0;
        flit.tail = flitsSent_ + 1 == total;
        if (flit.head)
            flit.msg = msg;
        out_->send(std::move(flit), now);
        ++flitsSent_;
        if (flitsSent_ == total) {
            queues_[current_].pop_front();
            current_ = kInvalidId;
        }
    }

    /**
     * True when every source queue is empty (a mid-packet cursor
     * implies a non-empty queue).
     */
    bool
    drained() const override
    {
        for (const auto &q : queues_) {
            if (!q.empty())
                return false;
        }
        return true;
    }

    /** Serialize per-source queues, arbiter and streaming cursor. */
    void
    saveCkpt(CkptWriter &w) const override
    {
        for (const auto &q : queues_) {
            w.varint(q.size());
            for (const NocMessage &m : q)
                ckptValue(w, m);
        }
        arb_.saveCkpt(w);
        w.u32(current_);
        w.u32(flitsSent_);
    }

    /** Restore state written by saveCkpt(). */
    void
    loadCkpt(CkptReader &r) override
    {
        for (auto &q : queues_) {
            q.clear();
            const std::uint64_t n = r.varint();
            if (n > queueCap_)
                r.fail("concentrator queue overflow");
            for (std::uint64_t i = 0; i < n; ++i) {
                NocMessage m{};
                ckptValue(r, m);
                q.push_back(m);
            }
        }
        arb_.loadCkpt(r);
        current_ = r.u32();
        flitsSent_ = r.u32();
        if (current_ != kInvalidId && current_ >= queues_.size())
            r.fail("concentrator cursor out of range");
    }

  private:
    std::uint32_t widthBytes_;
    std::size_t queueCap_;
    std::vector<RingFifo<NocMessage>> queues_;
    RoundRobinArbiter arb_;
    std::uint32_t current_ = kInvalidId;
    std::uint32_t flitsSent_ = 0;
};

/** 1-to-c ejection distributor with per-destination queues. */
class DistributorAdapter final : public NocSink
{
  public:
    /** Maps msg.dst to a local endpoint index. */
    using LocalFn = std::function<std::uint32_t(std::uint32_t)>;

    /**
     * @param in        last-hop channel.
     * @param num_dsts  endpoints sharing this port.
     * @param queue_cap per-endpoint message queue capacity.
     * @param local_of  maps msg.dst to a local endpoint index.
     */
    DistributorAdapter(FlitChannel *in, std::uint32_t num_dsts,
                       std::size_t queue_cap, LocalFn local_of)
        : NocSink(in), queueCap_(queue_cap),
          queues_(num_dsts, RingFifo<NocMessage>(queue_cap)),
          localOf_(std::move(local_of))
    {}

    /**
     * Receive up to one flit. The head flit's destination decides the
     * local queue; a full target queue blocks the whole port
     * (head-of-line blocking by design).
     */
    bool
    tick(Cycle now) override
    {
        if (!in_->hasArrival(now))
            return false;
        if (havePending_) {
            // Mid-packet: stall on the known target queue.
            if (queues_[pendingLocal_].size() >= queueCap_)
                return false; // HoL block
        } else {
            // The next flit could be a head for any destination; the
            // port stalls if any local queue is full (conservative
            // head-of-line blocking, as in a real 1:c demux latch).
            for (const auto &q : queues_) {
                if (q.size() >= queueCap_)
                    return false;
            }
        }
        Flit flit = in_->receive(now);
        in_->returnCredit(now);
        if (flit.head) {
            pending_ = flit.msg;
            pendingLocal_ = localOf_(flit.msg.dst);
            if (pendingLocal_ >= queues_.size())
                panic("distributor: local index %u out of range",
                      pendingLocal_);
            havePending_ = true;
        }
        if (flit.tail) {
            queues_[pendingLocal_].push_back(pending_);
            havePending_ = false;
        }
        return flit.tail;
    }

    bool
    hasMessage(std::uint32_t local_dst) const
    {
        return !queues_[local_dst].empty();
    }

    NocMessage
    pop(std::uint32_t local_dst)
    {
        NocMessage m = queues_[local_dst].front();
        queues_[local_dst].pop_front();
        return m;
    }

    NocMessage
    popNext() override
    {
        std::uint32_t local = 0;
        while (queues_[local].empty())
            ++local;
        return pop(local);
    }

    const NocMessage &lastCompleted() const override { return pending_; }

    bool
    drained() const override
    {
        return !havePending_ && parked() == 0;
    }

    std::size_t
    parked() const override
    {
        std::size_t n = 0;
        for (const auto &q : queues_)
            n += q.size();
        return n;
    }

    /** Serialize per-destination queues and the reassembly latch. */
    void
    saveCkpt(CkptWriter &w) const override
    {
        for (const auto &q : queues_) {
            w.varint(q.size());
            for (const NocMessage &m : q)
                ckptValue(w, m);
        }
        ckptValue(w, pending_);
        w.u32(pendingLocal_);
        w.b(havePending_);
    }

    /** Restore state written by saveCkpt(). */
    void
    loadCkpt(CkptReader &r) override
    {
        for (auto &q : queues_) {
            q.clear();
            const std::uint64_t n = r.varint();
            if (n > queueCap_)
                r.fail("distributor queue overflow");
            for (std::uint64_t i = 0; i < n; ++i) {
                NocMessage m{};
                ckptValue(r, m);
                q.push_back(m);
            }
        }
        ckptValue(r, pending_);
        pendingLocal_ = r.u32();
        havePending_ = r.b();
        if (havePending_ && pendingLocal_ >= queues_.size())
            r.fail("distributor latch out of range");
    }

  private:
    std::size_t queueCap_;
    std::vector<RingFifo<NocMessage>> queues_;
    LocalFn localOf_;
    NocMessage pending_{};
    std::uint32_t pendingLocal_ = 0;
    bool havePending_ = false;
};

} // namespace amsc

#endif // AMSC_NOC_CONCENTRATOR_HH
