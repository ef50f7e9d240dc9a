/**
 * @file
 * Allocation regression test: the executed-cycle path of a 16-core
 * system is allocation-free in steady state (DESIGN.md "hot-path
 * rules").
 *
 * This binary replaces the global operator new/delete with counting
 * versions and counts only the allocations made inside System::run().
 * The bound is per simulated cycle, so it does not depend on host
 * speed. It is built only without sanitizers: ASan and TSan install
 * their own allocator, which this replacement would shadow.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "sim/system.hh"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gBytes{0};

void *
countedAlloc(std::size_t n)
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gAllocs.fetch_add(1, std::memory_order_relaxed);
        gBytes.fetch_add(n, std::memory_order_relaxed);
    }
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gAllocs.fetch_add(1, std::memory_order_relaxed);
        gBytes.fetch_add(n, std::memory_order_relaxed);
    }
    const auto align = static_cast<std::size_t>(al);
    const std::size_t size = (n + align - 1) / align * align;
    void *p = std::aligned_alloc(align, size ? size : align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace fsoi {
namespace {

/** Steady-state budget: allocations per simulated cycle in run(). */
constexpr double kMaxAllocsPerCycle = 0.05;

struct AllocCount
{
    Cycle cycles = 0;
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

AllocCount
countRun(sim::NetKind kind, const char *app, double scale)
{
    sim::SystemConfig cfg = sim::SystemConfig::paperConfig(16, kind);
    cfg.seed = 7;
    sim::System sys(cfg);
    sys.loadApp(workload::appByName(app).scaled(scale));

    gAllocs.store(0);
    gBytes.store(0);
    gCounting.store(true);
    const sim::RunResult res = sys.run();
    gCounting.store(false);

    EXPECT_TRUE(res.completed);
    AllocCount out{res.cycles, gAllocs.load(), gBytes.load()};
    std::printf("%s %s scale=%.2f: %llu allocations (%llu bytes) in %llu "
                "cycles = %.4f per cycle\n",
                sim::netKindName(kind), app, scale,
                static_cast<unsigned long long>(out.allocs),
                static_cast<unsigned long long>(out.bytes),
                static_cast<unsigned long long>(out.cycles),
                static_cast<double>(out.allocs)
                    / static_cast<double>(out.cycles));
    return out;
}

TEST(AllocCounter, CountsOnlyWhileEnabled)
{
    gAllocs.store(0);
    gCounting.store(true);
    auto *p = new std::uint64_t[4];
    gCounting.store(false);
    auto *q = new std::uint64_t[4];
    delete[] p;
    delete[] q;
    EXPECT_EQ(gAllocs.load(), 1u);
}

TEST(HotPathAllocations, FsoiTspRunIsAllocationFree)
{
    const AllocCount c = countRun(sim::NetKind::Fsoi, "tsp", 0.25);
    ASSERT_GT(c.cycles, 10'000u);
    EXPECT_LE(static_cast<double>(c.allocs),
              kMaxAllocsPerCycle * static_cast<double>(c.cycles));
}

TEST(HotPathAllocations, MeshFftRunIsAllocationFree)
{
    const AllocCount c = countRun(sim::NetKind::Mesh, "fft", 0.25);
    ASSERT_GT(c.cycles, 10'000u);
    EXPECT_LE(static_cast<double>(c.allocs),
              kMaxAllocsPerCycle * static_cast<double>(c.cycles));
}

} // namespace
} // namespace fsoi
