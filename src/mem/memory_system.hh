/**
 * @file
 * The DRAM subsystem: all memory controllers plus the address mapping.
 *
 * LLC slices hand line addresses to the memory system; it decodes the
 * DRAM coordinates, routes the request to the owning controller and
 * reports read completions back through a single callback carrying the
 * requester token.
 */

#ifndef AMSC_MEM_MEMORY_SYSTEM_HH
#define AMSC_MEM_MEMORY_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_mapping.hh"
#include "mem/memory_controller.hh"

namespace amsc
{

/** All memory partitions of the GPU. */
class MemorySystem
{
  public:
    using ReadCallback =
        std::function<void(Addr line_addr, std::uint64_t token,
                           Cycle now)>;

    /**
     * @param num_mcs  number of memory controllers.
     * @param dram     per-MC structural/timing parameters.
     * @param mapping  shared address mapping (owned by caller).
     * @param sched    per-MC scheduling policy (default FR-FCFS).
     */
    MemorySystem(std::uint32_t num_mcs, const DramParams &dram,
                 const AddressMapping &mapping,
                 MemSched sched = MemSched::FrFcfs);

    /** Set the read completion callback. */
    void setReadCallback(ReadCallback cb);

    /**
     * Install @p obs as the command observer of every controller,
     * fanning the per-MC McCommand streams into one callback tagged
     * with the owning MC id (obs/recorder.hh, test_mem_policy.cc
     * observes single controllers directly). Pass nullptr to clear.
     * Observer-only: attaching it does not change scheduling.
     */
    void
    setCommandObserver(std::function<void(McId, const McCommand &)> obs);

    /**
     * @return true if the owning MC of @p line_addr can accept.
     *
     * A refusal is counted in the owning controller's
     * queueFullRejects: the callers (LlcSlice miss/write-back issue)
     * retry every cycle, so the stat measures DRAM backpressure as
     * refused asks rather than a panic path that never survives.
     */
    bool canAccept(Addr line_addr);

    /**
     * Enqueue an access.
     * @pre canAccept(line_addr).
     */
    void access(Addr line_addr, bool is_write, std::uint64_t token,
                Cycle now);

    /** Advance all controllers one cycle. */
    void tick(Cycle now);

    /** True when all controllers are empty. */
    bool drained() const;

    /** True when some controller has a request waiting to issue. */
    bool anyQueued() const;

    /**
     * Earliest cycle >= @p now at which any controller's tick() is
     * not a no-op; kNoCycle when all are drained. Each controller's
     * advertisement is exact (MemoryController::nextEventCycle): a
     * queued request whose bank is still busy does not pin it to
     * `now`.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        Cycle e = kNoCycle;
        for (const auto &mc : mcs_) {
            const Cycle me = mc->nextEventCycle(now);
            if (me <= now)
                return now;
            if (me < e)
                e = me;
        }
        return e;
    }

    std::uint32_t numMcs() const
    {
        return static_cast<std::uint32_t>(mcs_.size());
    }
    MemoryController &mc(McId id) { return *mcs_[id]; }
    const MemoryController &mc(McId id) const { return *mcs_[id]; }
    const AddressMapping &mapping() const { return mapping_; }

    /** Aggregate DRAM accesses (reads + writes) across all MCs. */
    std::uint64_t totalAccesses() const;

    /** Field-wise sum of every controller's statistics. */
    McStats aggregateStats() const;

    /** Register all controller statistics in @p set. */
    void registerStats(StatSet &set) const;

    /** Serialize every controller, in MC order. */
    void saveCkpt(CkptWriter &w) const;

    /** Restore state written by saveCkpt(). */
    void loadCkpt(CkptReader &r);

#ifndef NDEBUG
    /** Run every controller's MemoryController::checkPickGate. */
    void checkPickGates(Cycle now) const;
#endif

  private:
    const AddressMapping &mapping_;
    std::vector<std::unique_ptr<MemoryController>> mcs_;
    ReadCallback readCb_;
};

} // namespace amsc

#endif // AMSC_MEM_MEMORY_SYSTEM_HH
