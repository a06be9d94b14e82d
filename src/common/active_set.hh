/**
 * @file
 * Active sets: tick and advertise only the components with work.
 *
 * A component class (crossbar sources, routers and sinks; SMs; LLC
 * slices) keeps one ordered bitmask with a bit per component. The bit
 * is set while the component has work for its tick -- anything
 * queued, buffered or in flight -- so a walk visits only the set bits
 * and skipping a clear one is provably a no-op. Bits are set by the
 * events that create work (a flit sent on a channel wakes its
 * receiver, a delivered reply wakes its SM, an arriving request wakes
 * its slice) and cleared only by the owning component's own tick,
 * the one place work can drain.
 */

#ifndef AMSC_COMMON_ACTIVE_SET_HH
#define AMSC_COMMON_ACTIVE_SET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace amsc
{

/** Handle on one component's bit; a default handle is a no-op. */
class ActiveBit
{
  public:
    ActiveBit() = default;
    ActiveBit(std::uint64_t *word, std::uint64_t mask)
        : word_(word), mask_(mask)
    {}

    /** Mark the component active. */
    void
    set() const
    {
        if (word_ != nullptr)
            *word_ |= mask_;
    }

  private:
    std::uint64_t *word_ = nullptr;
    std::uint64_t mask_ = 0;
};

/** Ordered bitmask over the components of one class. */
class ActiveSet
{
  public:
    /**
     * Size for @p n components, all inactive. Handles from bit()
     * point into the set, so it is sized once, before any handle is
     * taken.
     */
    void resize(std::size_t n) { words_.assign((n + 63) / 64, 0); }

    ActiveBit
    bit(std::size_t i)
    {
        return ActiveBit(&words_[i / 64], std::uint64_t{1} << (i % 64));
    }

    bool
    test(std::size_t i) const
    {
        return (words_[i / 64] >> (i % 64)) & 1;
    }

    void
    assign(std::size_t i, bool active)
    {
        const std::uint64_t m = std::uint64_t{1} << (i % 64);
        if (active)
            words_[i / 64] |= m;
        else
            words_[i / 64] &= ~m;
    }

    bool
    any() const
    {
        for (const std::uint64_t w : words_) {
            if (w != 0)
                return true;
        }
        return false;
    }

    /**
     * Call @p tick(i) for every active component in index order and
     * clear bit i when it returns false (the component went idle).
     * Each word is re-read after every call, so a component that an
     * earlier one woke in this same walk still runs in it -- exactly
     * the visit order of a full scan, which zero-latency links rely
     * on. A bit set behind the cursor waits for the next walk, as the
     * full scan would.
     */
    template <class F>
    void
    walk(F &&tick)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t seen = 0; // bits at or below the cursor
            for (std::uint64_t live; (live = words_[w] & ~seen) != 0;) {
                const unsigned b = __builtin_ctzll(live);
                const std::uint64_t m = std::uint64_t{1} << b;
                seen |= m | (m - 1);
                if (!tick(w * 64 + b))
                    words_[w] &= ~m;
            }
        }
    }

    /** Call @p fn(i) for every active component in index order. */
    template <class F>
    void
    forEach(F &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            for (std::uint64_t live = words_[w]; live != 0;
                 live &= live - 1)
                fn(w * 64 + __builtin_ctzll(live));
        }
    }

    /**
     * Call @p pred(i) for the active components in index order until
     * one returns true. @return whether any did.
     */
    template <class F>
    bool
    anyOf(F &&pred) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            for (std::uint64_t live = words_[w]; live != 0;
                 live &= live - 1) {
                if (pred(w * 64 + __builtin_ctzll(live)))
                    return true;
            }
        }
        return false;
    }

  private:
    std::vector<std::uint64_t> words_;
};

} // namespace amsc

#endif // AMSC_COMMON_ACTIVE_SET_HH
