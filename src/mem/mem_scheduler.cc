#include "mem/mem_scheduler.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

MemSched
parseMemSched(const std::string &name)
{
    if (name == "fr_fcfs")
        return MemSched::FrFcfs;
    if (name == "fcfs")
        return MemSched::Fcfs;
    if (name == "write_drain")
        return MemSched::WriteDrain;
    throw ConfigError(
        strfmt("unknown memory scheduler '%s' (fr_fcfs|fcfs|write_drain)",
               name.c_str()));
}

std::string
memSchedName(MemSched s)
{
    switch (s) {
      case MemSched::FrFcfs:
        return "fr_fcfs";
      case MemSched::Fcfs:
        return "fcfs";
      case MemSched::WriteDrain:
        return "write_drain";
    }
    return "?";
}

namespace
{

/** Request filter for the shared FR-FCFS scan. */
enum class Want
{
    Any,
    Reads,
    Writes,
};

bool
wanted(const DramRequest &r, Want want)
{
    switch (want) {
      case Want::Any:
        return true;
      case Want::Reads:
        return !r.isWrite;
      case Want::Writes:
        return r.isWrite;
    }
    return true;
}

/**
 * FR-FCFS over the subset selected by @p want: the oldest row hit on
 * an idle bank, else the oldest request on an idle bank. One pass
 * returns the first idle row hit outright and otherwise remembers the
 * first idle request -- the same index as the pre-framework two-pass
 * loop (row hits, then any idle bank) when want == Any.
 */
std::size_t
frFcfsScan(const McPickView &view, Want want)
{
    std::size_t oldest_idle = MemSchedulerPolicy::kNoPick;
    const std::vector<DramRequest> &queue = view.queue;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const DramRequest &r = queue[i];
        if (!wanted(r, want))
            continue;
        const DramBank &bank = view.banks[r.bank];
        if (!bank.idleAt(view.now))
            continue;
        if (bank.rowHit(r.row))
            return i;
        if (oldest_idle == MemSchedulerPolicy::kNoPick)
            oldest_idle = i;
    }
    return oldest_idle;
}

} // namespace

std::size_t
FrFcfsSched::pick(const McPickView &view)
{
    return frFcfsScan(view, Want::Any);
}

std::size_t
FcfsSched::pick(const McPickView &view)
{
    if (view.queue.empty())
        return kNoPick;
    const DramRequest &head = view.queue.front();
    return view.banks[head.bank].idleAt(view.now) ? 0 : kNoPick;
}

WriteDrainSched::WriteDrainSched(std::uint32_t queue_capacity)
    : high_(std::max<std::uint32_t>(1, queue_capacity / 2)),
      low_(queue_capacity / 8)
{
}

std::size_t
WriteDrainSched::pick(const McPickView &view)
{
    std::uint32_t writes = 0;
    for (const DramRequest &r : view.queue)
        writes += r.isWrite ? 1 : 0;

    if (!draining_ && writes >= high_) {
        draining_ = true;
        ++entries_;
    } else if (draining_ && writes <= low_) {
        draining_ = false;
    }

    if (draining_)
        return frFcfsScan(view, Want::Writes);

    const std::size_t read = frFcfsScan(view, Want::Reads);
    if (read != kNoPick)
        return read;
    // No read can issue: let a write through so the queue keeps
    // moving (and drained() stays reachable below the watermark).
    return frFcfsScan(view, Want::Writes);
}

std::unique_ptr<MemSchedulerPolicy>
MemSchedulerPolicy::create(MemSched kind, std::uint32_t queue_capacity)
{
    switch (kind) {
      case MemSched::FrFcfs:
        return std::make_unique<FrFcfsSched>();
      case MemSched::Fcfs:
        return std::make_unique<FcfsSched>();
      case MemSched::WriteDrain:
        return std::make_unique<WriteDrainSched>(queue_capacity);
    }
    panic("unknown memory scheduler kind");
}

} // namespace amsc
