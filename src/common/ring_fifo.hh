/**
 * @file
 * Ring FIFO: the storage behind the simulator's queues.
 *
 * Slots live in one power-of-two array indexed with a mask, so push
 * and pop never allocate and never divide. A ring is either
 *  - bounded: sized once, at construction, to hold a structural bound
 *    (a credit count, a buffer depth, a queue cap). It never grows,
 *    and pushing into a full one panics; or
 *  - growable: allocated on the first push, doubled when full and
 *    halved when down to a quarter, for the queues no protocol
 *    bounds. Shrinking keeps a queue's memory near its current
 *    occupancy, as std::deque's did, so queues that peak at different
 *    times do not all hold their peak at once.
 *
 * Popped slots are not destroyed, only overwritten by later pushes,
 * so payloads are plain values (messages, flits, cycles).
 */

#ifndef AMSC_COMMON_RING_FIFO_HH
#define AMSC_COMMON_RING_FIFO_HH

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace amsc
{

template <typename T>
class RingFifo
{
  public:
    /** Growable ring; the first push allocates. */
    RingFifo() = default;

    /** Bounded ring holding up to @p bound items. */
    explicit RingFifo(std::size_t bound)
        : slots_(bound == 0 ? 0 : std::size_t{1} << ceilLog2(bound)),
          mask_(slots_.empty() ? 0 : slots_.size() - 1), fixed_(true)
    {}

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Allocated slots: a power of two; 0 before a first push. */
    std::size_t slots() const { return slots_.size(); }

    /** The @p i-th item from the front. @pre i < size(). */
    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return slots_[(head_ + i) & mask_];
    }

    T &
    operator[](std::size_t i)
    {
        assert(i < size_);
        return slots_[(head_ + i) & mask_];
    }

    const T &front() const { return (*this)[0]; }
    T &front() { return (*this)[0]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(T item)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & mask_] = std::move(item);
        ++size_;
    }

    /** Drop the front item. @pre !empty(). */
    void
    pop_front()
    {
        assert(size_ != 0);
        head_ = (head_ + 1) & mask_;
        --size_;
        if (!fixed_ && 4 * size_ <= slots_.size() &&
            slots_.size() > kFirstSlots)
            reslot(slots_.size() / 2);
    }

    /** Remove all items; the slots stay allocated. */
    void clear() { size_ = 0; }

    /** Front-to-back iteration (range-for over the queue). */
    class const_iterator
    {
      public:
        const_iterator(const RingFifo *q, std::size_t i) : q_(q), i_(i) {}
        const T &operator*() const { return (*q_)[i_]; }
        const T *operator->() const { return &(*q_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const const_iterator &o) const { return i_ != o.i_; }

      private:
        const RingFifo *q_;
        std::size_t i_;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    void
    grow()
    {
        if (fixed_)
            panic("ring FIFO overflow: bounded at %zu slots",
                  slots_.size());
        reslot(slots_.empty() ? kFirstSlots : 2 * slots_.size());
    }

    /** Move the items to the front of a new array of @p n slots. */
    void
    reslot(std::size_t n)
    {
        std::vector<T> moved(n);
        for (std::size_t i = 0; i < size_; ++i)
            moved[i] = std::move((*this)[i]);
        slots_.swap(moved);
        mask_ = n - 1;
        head_ = 0;
    }

    static constexpr std::size_t kFirstSlots = 8;

    std::vector<T> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    bool fixed_ = false;
};

} // namespace amsc

#endif // AMSC_COMMON_RING_FIFO_HH
