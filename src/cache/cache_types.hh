/**
 * @file
 * Shared type definitions for the cache substrate.
 */

#ifndef AMSC_CACHE_CACHE_TYPES_HH
#define AMSC_CACHE_CACHE_TYPES_HH

#include <cstdint>

#include "common/ckpt.hh"
#include "common/types.hh"

namespace amsc
{

/**
 * Replacement policy selector.
 *
 * Lru/Fifo/Random are the seed policies (Table 1 uses LRU
 * everywhere); the RRIP family and set-dueling DRRIP exist to probe
 * how sensitive the paper's conclusions are to the replacement
 * choice (docs/DESIGN.md, "Replacement & bypass policies").
 */
enum class ReplPolicy
{
    Lru,
    Fifo,
    Random,
    Srrip, ///< static re-reference interval prediction (2-bit RRPV)
    Brrip, ///< bimodal RRIP: distant insert, 1/32 long inserts
    Drrip, ///< set-dueling between SRRIP and BRRIP (PSEL)
};

/** LLC fill-bypass policy selector. */
enum class BypassPolicy
{
    None,   ///< every fill installs (baseline)
    Stream, ///< no-allocate fills from sources with no observed reuse
};

/** State of one cache line (tag entry). */
struct CacheLine
{
    /** Line-aligned address this entry caches; kNoAddr if invalid. */
    Addr lineAddr = kNoAddr;
    /** Valid bit. */
    bool valid = false;
    /** Dirty bit (write-back caches only). */
    bool dirty = false;
    /** Replacement-policy timestamp (LRU recency / FIFO insertion). */
    std::uint64_t replState = 0;
    /** Cycle the line was installed. */
    Cycle insertCycle = 0;
    /**
     * Bitmask of SM clusters that accessed the line since installation
     * or since the sharing tracker last cleared it (Figure 3 profiling
     * and the ATD's last-accessor field reuse this storage).
     */
    std::uint32_t accessorMask = 0;
    /** Last accessing cluster / SM-router (for the ATD estimator). */
    std::uint32_t lastAccessor = kInvalidId;
    /** Source (SM) whose miss installed the line (bypass predictor). */
    std::uint32_t fillSrc = kInvalidId;
    /** True once the line was hit after its install (reuse signal). */
    bool reused = false;
};

/*
 * CacheLine has padding holes, so raw pod() serialization would leak
 * indeterminate bytes into checkpoints; encode field-wise.
 */
inline void
ckptValue(CkptWriter &w, const CacheLine &l)
{
    ckptFields(w, l.lineAddr, l.valid, l.dirty, l.replState,
               l.insertCycle, l.accessorMask, l.lastAccessor,
               l.fillSrc, l.reused);
}

inline void
ckptValue(CkptReader &r, CacheLine &l)
{
    ckptFields(r, l.lineAddr, l.valid, l.dirty, l.replState,
               l.insertCycle, l.accessorMask, l.lastAccessor,
               l.fillSrc, l.reused);
}

} // namespace amsc

#endif // AMSC_CACHE_CACHE_TYPES_HH
