/**
 * @file
 * Functional cache model of the SM's L1: tag array + statistics.
 *
 * The L1 is write-through and no-write-allocate (Table 1), and its
 * timed wrapper (gpu/sm.hh) drives it with the miss-fill split
 * typical of detailed simulators:
 *
 *   lookup() classifies an access without installing anything;
 *   fill()   installs a read-missed line when the LLC reply arrives.
 *
 * Every store is forwarded to the LLC, and a store miss installs
 * nothing, so L1 lines are never dirty. The LLC slices do not use this
 * class: they drive a TagArray and an MshrFile directly
 * (llc/llc_slice.hh).
 */

#ifndef AMSC_CACHE_CACHE_MODEL_HH
#define AMSC_CACHE_CACHE_MODEL_HH

#include <cstdint>
#include <string>

#include "cache/cache_types.hh"
#include "cache/tag_array.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace amsc
{

/** Geometry and replacement parameters of a cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 48 * 1024;
    std::uint32_t assoc = 6;
    std::uint32_t lineBytes = 128;
    ReplPolicy repl = ReplPolicy::Lru;
    std::uint64_t seed = 1;

    /** @return number of sets implied by size/assoc/line. */
    std::uint32_t numSets() const;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    /** Always 0 (no dirty lines); kept for the checkpoint layout. */
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t writeThroughForwards = 0; ///< every store
    std::uint64_t invalidations = 0;

    std::uint64_t accesses() const
    {
        return readHits + readMisses + writeHits + writeMisses;
    }
    std::uint64_t hits() const { return readHits + writeHits; }
    std::uint64_t misses() const { return readMisses + writeMisses; }
    double
    missRate() const
    {
        const std::uint64_t a = accesses();
        return a == 0 ? 0.0
                      : static_cast<double>(misses()) /
                static_cast<double>(a);
    }
};

/** Functional set-associative write-through, no-allocate cache. */
class CacheModel
{
  public:
    explicit CacheModel(const CacheParams &params);

    /**
     * Classify an access to line address @p line_addr; @return hit.
     *
     * A hit updates replacement and accessor state. A miss leaves the
     * array unchanged: a read miss is installed by fill() later, a
     * write miss never.
     *
     * @param line_addr line-granular address.
     * @param is_write  write access (always forwarded downstream).
     * @param accessor  cluster/router id recorded on the line.
     * @param now       current cycle.
     */
    bool lookup(Addr line_addr, bool is_write, std::uint32_t accessor,
                Cycle now);

    /** Install read-missed @p line_addr once the next level replied. */
    void fill(Addr line_addr, std::uint32_t accessor, Cycle now);

    /** Probe without side effects. */
    bool contains(Addr line_addr) const;

    /** Invalidate everything. */
    void invalidateAll();

    const CacheParams &params() const { return params_; }
    const CacheStats &stats() const { return stats_; }

    TagArray &tags() { return tags_; }
    const TagArray &tags() const { return tags_; }

    /** Register this cache's statistics in @p set. */
    void registerStats(StatSet &set) const;

    /** Serialize tags + statistics. */
    void saveCkpt(CkptWriter &w) const;

    /** Restore state written by saveCkpt(); geometry must match. */
    void loadCkpt(CkptReader &r);

  private:
    CacheParams params_;
    TagArray tags_;
    CacheStats stats_;
};

} // namespace amsc

#endif // AMSC_CACHE_CACHE_MODEL_HH
