/**
 * @file
 * Functional (value-carrying) memory image.
 *
 * The timing simulation tracks coherence metadata only; actual data
 * values matter solely for synchronization (lock words, barrier
 * counters, sense flags, ll/sc outcomes). This sparse word store holds
 * those values; reads of untouched words return zero.
 */

#ifndef FSOI_COHERENCE_FUNCTIONAL_MEMORY_HH
#define FSOI_COHERENCE_FUNCTIONAL_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace fsoi::coherence {

/**
 * Sparse 64-bit word store shared by every core in a System. Each
 * System owns its own store and ticks on one thread, so it needs no
 * lock.
 */
class FunctionalMemory
{
  public:
    std::uint64_t
    read(Addr addr) const
    {
        const auto it = words_.find(addr);
        return it == words_.end() ? 0 : it->second;
    }

    void write(Addr addr, std::uint64_t value) { words_[addr] = value; }

    void clear() { words_.clear(); }

    /** All touched words sorted by address (checkpoint/restore: a
     *  canonical order keeps snapshot hashes stable). */
    std::vector<std::pair<Addr, std::uint64_t>>
    exportWords() const
    {
        std::vector<std::pair<Addr, std::uint64_t>> out(words_.begin(),
                                                        words_.end());
        std::sort(out.begin(), out.end());
        return out;
    }

    void
    importWords(const std::vector<std::pair<Addr, std::uint64_t>> &words)
    {
        words_.clear();
        for (const auto &[addr, value] : words)
            words_.emplace(addr, value);
    }

  private:
    /** Word nodes come from a pool that grows in ever larger chunks,
     *  so first-touch stores rarely reach the heap. Declared before
     *  words_, which must be destroyed first. */
    std::pmr::unsynchronized_pool_resource wordPool_;
    std::pmr::unordered_map<Addr, std::uint64_t> words_{&wordPool_};
};

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_FUNCTIONAL_MEMORY_HH
