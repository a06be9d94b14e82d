#include "cache/cache_model.hh"

#include "common/bitutils.hh"
#include "common/log.hh"

namespace amsc
{

std::uint32_t
CacheParams::numSets() const
{
    if (sizeBytes == 0 || assoc == 0 || lineBytes == 0)
        fatal("cache '%s': zero geometry parameter", name.c_str());
    const std::uint64_t lines = sizeBytes / lineBytes;
    if (lines == 0 || lines % assoc != 0)
        fatal("cache '%s': size %llu not divisible into %u-way sets of "
              "%u B lines",
              name.c_str(),
              static_cast<unsigned long long>(sizeBytes), assoc,
              lineBytes);
    return static_cast<std::uint32_t>(lines / assoc);
}

CacheModel::CacheModel(const CacheParams &params)
    : params_(params),
      tags_(params.numSets(), params.assoc, params.repl, params.seed)
{
}

bool
CacheModel::lookup(Addr line_addr, bool is_write,
                   std::uint32_t accessor, Cycle now)
{
    CacheLine *line = tags_.access(line_addr, now, accessor);
    if (is_write)
        ++stats_.writeThroughForwards;
    if (line == nullptr) {
        ++(is_write ? stats_.writeMisses : stats_.readMisses);
        return false;
    }
    line->accessorMask |= accessor < 32 ? (std::uint32_t{1} << accessor)
                                        : 0;
    line->lastAccessor = accessor;
    ++(is_write ? stats_.writeHits : stats_.readHits);
    return true;
}

void
CacheModel::fill(Addr line_addr, std::uint32_t accessor, Cycle now)
{
    // A concurrent fill (merged miss) may have installed the line.
    if (tags_.probe(line_addr) != nullptr)
        return;

    Eviction ev;
    CacheLine *line = tags_.insert(line_addr, now, ev, accessor);
    ++stats_.fills;
    if (ev.valid)
        ++stats_.evictions;
    line->accessorMask = accessor < 32
        ? (std::uint32_t{1} << accessor)
        : 0;
    line->lastAccessor = accessor;
}

bool
CacheModel::contains(Addr line_addr) const
{
    return tags_.probe(line_addr) != nullptr;
}

void
CacheModel::invalidateAll()
{
    stats_.invalidations += tags_.numValidLines();
    tags_.invalidateAll();
}

void
CacheModel::registerStats(StatSet &set) const
{
    set.addCounter(params_.name + ".read_hits", "read hits",
                   stats_.readHits);
    set.addCounter(params_.name + ".read_misses", "read misses",
                   stats_.readMisses);
    set.addCounter(params_.name + ".write_hits", "write hits",
                   stats_.writeHits);
    set.addCounter(params_.name + ".write_misses", "write misses",
                   stats_.writeMisses);
    set.addCounter(params_.name + ".fills", "line fills", stats_.fills);
    set.addCounter(params_.name + ".evictions", "evictions",
                   stats_.evictions);
    const CacheStats *s = &stats_;
    set.add(params_.name + ".miss_rate", "miss rate",
            [s]() { return s->missRate(); });
}


void
CacheModel::saveCkpt(CkptWriter &w) const
{
    tags_.saveCkpt(w);
    w.pod(stats_);
}

void
CacheModel::loadCkpt(CkptReader &r)
{
    tags_.loadCkpt(r);
    r.pod(stats_);
}

} // namespace amsc
