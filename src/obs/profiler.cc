#include "obs/profiler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace fsoi::obs {

const char *
tickPhaseName(TickPhase phase)
{
    switch (phase) {
      case TickPhase::Network: return "network";
      case TickPhase::LocalRoute: return "local_route";
      case TickPhase::Memory: return "memory";
      case TickPhase::Directory: return "directory";
      case TickPhase::L1: return "l1";
      case TickPhase::Core: return "core";
      case TickPhase::Sched: return "sched";
      case TickPhase::kCount: break;
    }
    return "?";
}

namespace {

/**
 * Cost of one steady_clock read: the fastest of a few short batches,
 * so a preemption during calibration does not inflate it. About a
 * hundred reads, measured once per process.
 */
std::int64_t
calibrateClockRead()
{
    using Clock = std::chrono::steady_clock;
    constexpr int kBatches = 4;
    constexpr int kReads = 25;
    std::int64_t best = -1;
    for (int b = 0; b < kBatches; ++b) {
        const auto start = Clock::now();
        for (int i = 0; i < kReads - 1; ++i)
            (void)Clock::now();
        const auto end = Clock::now();
        const std::int64_t per =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - start).count() / kReads;
        best = best < 0 ? per : std::min(best, per);
    }
    return best;
}

} // namespace

PhaseProfiler::PhaseProfiler(Cycle stride)
    : stride_(stride), countdown_(stride)
{
    if (enabled()) {
        static const std::int64_t read_ns = calibrateClockRead();
        clockReadNs_ = read_ns;
    }
}

std::uint64_t
PhaseProfiler::totalNs() const
{
    std::uint64_t total = 0;
    for (const auto ns : ns_)
        total += ns;
    return total;
}

double
PhaseProfiler::fraction(TickPhase phase) const
{
    const std::uint64_t total = totalNs();
    if (total == 0)
        return 0.0;
    return static_cast<double>(ns_[static_cast<int>(phase)]) /
           static_cast<double>(total);
}

void
PhaseProfiler::registerStats(const Scope &scope) const
{
    const Scope prof = scope.scope("profile");
    for (int i = 0; i < kNumTickPhases; ++i) {
        const auto phase = static_cast<TickPhase>(i);
        const Scope s = prof.scope(tickPhaseName(phase));
        s.derived("ns", [this, i] {
            return static_cast<double>(ns_[i]);
        });
        s.derived("frac", [this, phase] { return fraction(phase); });
    }
    prof.derived("sampled_cycles", [this] {
        return static_cast<double>(sampled_cycles_);
    });
    prof.derived("total_ns", [this] {
        return static_cast<double>(totalNs());
    });
}

} // namespace fsoi::obs
