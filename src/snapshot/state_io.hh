/**
 * @file
 * Serializers for the common state primitives (counters, accumulators,
 * histograms, RNG streams) shared by every component's saveState /
 * loadState implementation. Kept separate from archive.hh so the bare
 * container format stays free of simulator types for offline tools.
 */

#ifndef FSOI_SNAPSHOT_STATE_IO_HH
#define FSOI_SNAPSHOT_STATE_IO_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "snapshot/archive.hh"

namespace fsoi::snapshot {

inline void
saveCounter(Writer &w, const Counter &c)
{
    w.u64(c.value());
}

inline void
loadCounter(Reader &r, Counter &c)
{
    c.restore(r.u64());
}

inline void
saveAccumulator(Writer &w, const Accumulator &a)
{
    const Accumulator::Raw raw = a.exportState();
    w.u64(raw.n);
    w.dbl(raw.sum);
    w.dbl(raw.sumsq);
    w.dbl(raw.min);
    w.dbl(raw.max);
}

inline void
loadAccumulator(Reader &r, Accumulator &a)
{
    Accumulator::Raw raw;
    raw.n = r.u64();
    raw.sum = r.dbl();
    raw.sumsq = r.dbl();
    raw.min = r.dbl();
    raw.max = r.dbl();
    a.importState(raw);
}

inline void
saveU64Vec(Writer &w, const std::vector<std::uint64_t> &v)
{
    w.u64(v.size());
    for (const std::uint64_t x : v)
        w.u64(x);
}

inline std::vector<std::uint64_t>
loadU64Vec(Reader &r)
{
    std::vector<std::uint64_t> v(r.count(8));
    for (auto &x : v)
        x = r.u64();
    return v;
}

inline void
saveHistogram(Writer &w, const Histogram &h)
{
    w.u64(h.count());
    w.u64(h.underflow());
    saveAccumulator(w, h.rawAccumulator());
    saveU64Vec(w, h.rawBins());
}

inline void
loadHistogram(Reader &r, Histogram &h)
{
    const std::uint64_t total = r.u64();
    const std::uint64_t underflow = r.u64();
    Accumulator acc;
    loadAccumulator(r, acc);
    const auto bins = loadU64Vec(r);
    h.importState(total, underflow, acc.exportState(), bins);
}

inline void
saveRng(Writer &w, const Rng &rng)
{
    std::uint64_t state[4];
    rng.exportState(state);
    for (const std::uint64_t word : state)
        w.u64(word);
}

inline void
loadRng(Reader &r, Rng &rng)
{
    std::uint64_t state[4];
    for (auto &word : state)
        word = r.u64();
    rng.importState(state);
}

} // namespace fsoi::snapshot

#endif // FSOI_SNAPSHOT_STATE_IO_HH
