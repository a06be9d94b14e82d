/**
 * @file
 * Single DRAM bank state machine.
 *
 * Tracks the open row and the earliest cycles at which the next
 * activate / column command / precharge may legally issue given the
 * bank-local timing constraints (tRC, tRAS, tRP, tRCD, tCCD, tWR).
 * Constraints that live at controller scope -- tRRD/tFAW activation
 * windows, write-to-read turnaround, bank-group column spacing --
 * are passed in as lower bounds (BankIssueConstraints) so the bank
 * folds them into the same PRE/ACT/column schedule. The controller
 * commits a request with service(); columnReadyAt() is the
 * state-free preview of the same schedule (pinned preview ==
 * service in tests/test_mem.cc).
 *
 * Write recovery (tWR) gates *precharge*, not the next column
 * command: after a write, the bank accepts further column commands
 * tCCD later, but cannot close the row before the write data has
 * been restored (noteWriteRecovery()).
 */

#ifndef AMSC_MEM_DRAM_BANK_HH
#define AMSC_MEM_DRAM_BANK_HH

#include <cstdint>

#include "common/ckpt.hh"
#include "common/types.hh"
#include "mem/dram_timing.hh"

namespace amsc
{

/**
 * Controller-scope lower bounds folded into one bank service
 * decision. Zero means "does not bind".
 */
struct BankIssueConstraints
{
    /** Earliest cycle an ACT may issue (tRRD/tFAW/refresh window). */
    Cycle actEarliest = 0;
    /** Earliest cycle the column command may issue (tWTR, tCCD_L/S). */
    Cycle colEarliest = 0;
};

/** One DRAM bank with open-row policy. */
class DramBank
{
  public:
    explicit DramBank(const DramTimings &timings)
        : timings_(timings)
    {}

    /** @return true if @p row is currently open. */
    bool
    rowHit(std::uint64_t row) const
    {
        return rowOpen_ && openRow_ == row;
    }

    /** @return true once prior service completed by cycle @p now. */
    bool idleAt(Cycle now) const { return busyUntil_ <= now; }

    /** Earliest cycle the bank can begin serving a new request. */
    Cycle readyAt() const { return busyUntil_; }

    /**
     * Cycles from @p now until the *column command* for @p row could
     * issue, including any needed precharge/activate: the state-free
     * preview of service(). The shipped schedulers rank via
     * idleAt()/rowHit() only; this exists for ready-time-aware
     * policies and the unit tests that pin preview == service.
     */
    Cycle columnReadyAt(std::uint64_t row, Cycle now,
                        const BankIssueConstraints &c = {}) const;

    /**
     * Begin servicing an access to @p row at cycle @p now.
     *
     * Advances the bank through (PRE,) (ACT,) RD/WR as needed and
     * returns the cycle the column command issues. The caller adds
     * tCL/tCWL and burst cycles for data timing, enforces bus
     * contention, and reports the write-data completion back through
     * noteWriteRecovery() so tWR can gate the next precharge.
     *
     * @param row      target row.
     * @param is_write write access.
     * @param now      current cycle; must satisfy idleAt(now).
     * @param rowhit   out: whether this was a row-buffer hit.
     * @param c        controller-scope ACT/column lower bounds.
     * @param act_at   out: cycle the ACT issued, kNoCycle if none.
     */
    Cycle service(std::uint64_t row, bool is_write, Cycle now,
                  bool &rowhit, const BankIssueConstraints &c,
                  Cycle &act_at);

    /** service() without controller-scope constraints (unit tests). */
    Cycle
    service(std::uint64_t row, bool is_write, Cycle now, bool &rowhit)
    {
        Cycle act_at = kNoCycle;
        return service(row, is_write, now, rowhit, {}, act_at);
    }

    /**
     * Record that a write burst to this bank finishes restoring at
     * @p wdata_end: the row cannot be precharged before
     * wdata_end + tWR.
     */
    void
    noteWriteRecovery(Cycle wdata_end)
    {
        const Cycle until = wdata_end + timings_.tWR;
        if (until > preReadyAt_)
            preReadyAt_ = until;
    }

    /**
     * True when a refresh may start at @p now: no column command
     * outstanding, and -- if a row is open -- its implicit precharge
     * is legal (tRAS satisfied, write recovery complete).
     */
    bool
    refreshReady(Cycle now) const
    {
        if (!idleAt(now))
            return false;
        return !rowOpen_ ||
            (lastActivate_ + timings_.tRAS <= now &&
             preReadyAt_ <= now);
    }

    /**
     * All-bank refresh participation starting at @p now: the open row
     * is closed and the bank is blocked for tRFC.
     * @pre refreshReady(now).
     */
    void
    refresh(Cycle now)
    {
        rowOpen_ = false;
        const Cycle until = now + timings_.tRFC;
        if (until > busyUntil_)
            busyUntil_ = until;
    }

    /** Serialize the bank state machine (timings are structural). */
    void
    saveCkpt(CkptWriter &w) const
    {
        w.b(rowOpen_);
        w.u64(openRow_);
        w.u64(busyUntil_);
        w.u64(lastActivate_);
        w.u64(preReadyAt_);
    }

    /** Restore state written by saveCkpt(). */
    void
    loadCkpt(CkptReader &r)
    {
        rowOpen_ = r.b();
        openRow_ = r.u64();
        busyUntil_ = r.u64();
        lastActivate_ = r.u64();
        preReadyAt_ = r.u64();
    }

  private:
    /** Earliest precharge honouring tRAS and write recovery. */
    Cycle
    prechargeReadyAt(Cycle t) const
    {
        Cycle pre = lastActivate_ + timings_.tRAS;
        if (preReadyAt_ > pre)
            pre = preReadyAt_;
        return pre > t ? pre : t;
    }

    const DramTimings &timings_;
    bool rowOpen_ = false;
    std::uint64_t openRow_ = 0;
    /** Bank cannot accept a new column command before this cycle. */
    Cycle busyUntil_ = 0;
    /** Cycle of the most recent ACT command. */
    Cycle lastActivate_ = 0;
    /** Precharge blocked until this cycle (write recovery, tWR). */
    Cycle preReadyAt_ = 0;
};

} // namespace amsc

#endif // AMSC_MEM_DRAM_BANK_HH
