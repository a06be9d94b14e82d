/**
 * @file
 * Miss Status Holding Registers with request merging.
 *
 * An MshrFile tracks outstanding misses per line address. Secondary
 * misses to an in-flight line merge as additional targets instead of
 * issuing duplicate fills -- on a GPU this merging is a first-order
 * effect because many warps touch the same shared line back to back.
 *
 * The target payload is templated so the L1 (warp bookkeeping) and the
 * LLC slice (NoC reply bookkeeping) can reuse the same structure.
 */

#ifndef AMSC_CACHE_MSHR_HH
#define AMSC_CACHE_MSHR_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ckpt.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace amsc
{

/** Outcome of attempting to register a miss. */
enum class MshrAllocResult
{
    NewEntry,    ///< primary miss: a fill must be issued
    Merged,      ///< secondary miss: merged into an existing entry
    NoFreeEntry, ///< structural stall: all MSHRs busy
    NoFreeTarget ///< structural stall: per-entry target list full
};

/**
 * MSHR file tracking misses for up to E lines with T targets each.
 *
 * @tparam Target per-requester payload returned when the fill arrives.
 */
template <typename Target>
class MshrFile
{
  public:
    /**
     * @param num_entries        maximum outstanding distinct lines.
     * @param targets_per_entry  maximum merged requests per line.
     */
    MshrFile(std::uint32_t num_entries, std::uint32_t targets_per_entry)
        : numEntries_(num_entries), targetsPerEntry_(targets_per_entry)
    {
        if (num_entries == 0 || targets_per_entry == 0)
            fatal("MshrFile requires non-zero entries and targets");
        entries_.reserve(num_entries);
    }

    /** @return true if a new line entry can be allocated. */
    bool hasFreeEntry() const { return entries_.size() < numEntries_; }

    /** @return true if @p line_addr has an outstanding miss. */
    bool
    contains(Addr line_addr) const
    {
        return entries_.count(line_addr) != 0;
    }

    /**
     * @return true if allocate(line_addr, ...) would succeed: either
     * a mergeable entry with target space, or a free entry.
     */
    bool
    canAllocate(Addr line_addr) const
    {
        const auto it = entries_.find(line_addr);
        if (it != entries_.end())
            return it->second.size() < targetsPerEntry_;
        return hasFreeEntry();
    }

    /** Number of outstanding line entries. */
    std::size_t numActiveEntries() const { return entries_.size(); }

    /**
     * Register a miss on @p line_addr for @p target.
     *
     * On NewEntry the caller must issue a fill request to the next
     * level; on Merged no request is needed; on NoFree* the caller must
     * stall and retry.
     */
    MshrAllocResult
    allocate(Addr line_addr, Target target)
    {
        auto it = entries_.find(line_addr);
        if (it != entries_.end()) {
            if (it->second.size() >= targetsPerEntry_)
                return MshrAllocResult::NoFreeTarget;
            it->second.push_back(std::move(target));
            return MshrAllocResult::Merged;
        }
        if (!hasFreeEntry())
            return MshrAllocResult::NoFreeEntry;
        entries_[line_addr].push_back(std::move(target));
        return MshrAllocResult::NewEntry;
    }

    /**
     * Complete the miss on @p line_addr.
     *
     * @return all merged targets, in arrival order; the entry is freed.
     */
    std::vector<Target>
    complete(Addr line_addr)
    {
        auto it = entries_.find(line_addr);
        if (it == entries_.end())
            panic("MSHR complete for unknown line 0x%llx",
                  static_cast<unsigned long long>(line_addr));
        std::vector<Target> targets = std::move(it->second);
        entries_.erase(it);
        return targets;
    }

    /** Drop all entries (used on flush); targets are discarded. */
    void clear() { entries_.clear(); }

    /** Total outstanding merged targets across all entries. */
    std::size_t
    numActiveTargets() const
    {
        std::size_t n = 0;
        for (const auto &[addr, targets] : entries_)
            n += targets.size();
        return n;
    }

    /**
     * Serialize entries sorted by line address (deterministic bytes;
     * no simulator behavior depends on the hash-map's bucket order).
     */
    void
    saveCkpt(CkptWriter &w) const
    {
        std::vector<Addr> keys;
        keys.reserve(entries_.size());
        for (const auto &[addr, targets] : entries_)
            keys.push_back(addr);
        std::sort(keys.begin(), keys.end());
        w.varint(keys.size());
        for (const Addr addr : keys) {
            w.u64(addr);
            const auto &targets = entries_.at(addr);
            w.varint(targets.size());
            for (const Target &t : targets)
                ckptValue(w, t);
        }
    }

    /** Restore entries written by saveCkpt(). */
    void
    loadCkpt(CkptReader &r)
    {
        entries_.clear();
        const std::uint64_t n = r.varint();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr addr = r.u64();
            const std::uint64_t m = r.varint();
            auto &targets = entries_[addr];
            targets.reserve(static_cast<std::size_t>(m));
            for (std::uint64_t j = 0; j < m; ++j) {
                Target t{};
                ckptValue(r, t);
                targets.push_back(std::move(t));
            }
        }
    }

  private:
    std::uint32_t numEntries_;
    std::uint32_t targetsPerEntry_;
    std::unordered_map<Addr, std::vector<Target>> entries_;
};

} // namespace amsc

#endif // AMSC_CACHE_MSHR_HH
