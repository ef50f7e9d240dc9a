/**
 * @file
 * Vector-backed ring FIFO for the simulator's tick paths.
 *
 * std::deque allocates a new node every few pushes (and libstdc++
 * allocates its map and first node even when the deque stays empty),
 * so a queue that cycles a handful of entries per simulated cycle
 * keeps the allocator busy forever. Fifo keeps its elements in one
 * power-of-two ring that doubles when full and never shrinks: once a
 * queue has seen its high-water mark, pushes and pops never allocate.
 * Nothing is reserved up front; the first push allocates a small ring.
 *
 * Popped slots are not destroyed, only overwritten by later pushes,
 * so element types are plain data (packets, messages, instructions).
 * Iteration runs front to back, which is the order snapshot code
 * serializes a queue in.
 */

#ifndef FSOI_COMMON_FIFO_HH
#define FSOI_COMMON_FIFO_HH

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace fsoi::common {

template <typename T>
class Fifo
{
  public:
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const Fifo *fifo, std::size_t pos)
            : fifo_(fifo), pos_(pos)
        {}

        reference operator*() const { return (*fifo_)[pos_]; }
        pointer operator->() const { return &(*fifo_)[pos_]; }
        const_iterator &
        operator++()
        {
            ++pos_;
            return *this;
        }
        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++pos_;
            return old;
        }
        bool operator==(const const_iterator &o) const
        { return pos_ == o.pos_; }

      private:
        const Fifo *fifo_ = nullptr;
        std::size_t pos_ = 0;
    };

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Element @p i counted from the front (0 = front). */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &operator[](std::size_t i) const
    { return buf_[(head_ + i) & mask_]; }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }

    void
    push_back(const T &value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = value;
        ++size_;
    }

    void
    push_back(T &&value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        FSOI_ASSERT(size_ > 0, "pop_front on an empty Fifo");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Empty the queue; the ring keeps its capacity. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    static constexpr std::size_t kInitialCapacity = 8;

    /** Double the ring (power of two), unwrapping it to start at 0. */
    void
    grow()
    {
        std::vector<T> bigger(
            buf_.empty() ? kInitialCapacity : buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        buf_.swap(bigger);
        mask_ = buf_.size() - 1;
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t mask_ = 0; //!< buf_.size() - 1 once allocated
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace fsoi::common

#endif // FSOI_COMMON_FIFO_HH
