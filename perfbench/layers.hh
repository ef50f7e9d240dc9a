/**
 * @file
 * Host-time spans and the isolated layer benches of the fsoi-sim
 * benchmark. Every span is recorded here, around a call into one
 * simulator layer made by the benchmark itself; the simulator's own
 * sources carry no benchmark instrumentation.
 */

#ifndef FSOI_PERFBENCH_LAYERS_HH
#define FSOI_PERFBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/stat_registry.hh"
#include "sim/system.hh"
#include "workload/apps.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Scalar view of a stat registry, keyed by full dotted name. */
using Flat = std::map<std::string, double>;

Flat flatten(const fsoi::obs::StatRegistry &registry);

/** Sum of every scalar whose name starts with @p prefix and ends
 *  with @p suffix (e.g. "system.core", ".l1.loads"). */
double sumOf(const Flat &flat, const std::string &prefix,
             const std::string &suffix);

/** Value of one scalar, 0 when absent. */
double valueOf(const Flat &flat, const std::string &name);

/** One simulation input: a configuration and the program it runs. */
struct Scenario
{
    std::string name;
    fsoi::sim::SystemConfig config;
    fsoi::workload::AppProfile app; //!< already scaled
};

/**
 * Host-time spans keyed by layer call. With recording off, time()
 * just makes the call, so the same bench code gives the untraced
 * timing the overhead figure is measured against.
 */
class Spans
{
  public:
    enum Id {
        MeshSend, MeshTick, FsoiSend, FsoiTick,
        CoreTick, StreamNext, L1Access, L1Tick, L1Handle,
        DirHandle, DirTick, MemHandle, MemTick,
        SnapshotSave, SnapshotRestore,
        kNumSpans
    };

    static const char *name(Id id);

    explicit Spans(bool on) : on_(on) {}

    template <class F>
    decltype(auto)
    time(Id id, F &&f)
    {
        if (!on_)
            return f();
        const Clock::time_point t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            record(id, t0);
        } else {
            decltype(auto) r = f();
            record(id, t0);
            return r;
        }
    }

    std::size_t samples(Id id) const { return ns_[id].size(); }
    /** Sum of the samples with the calibrated cost of the two clock
     *  reads a span makes subtracted from each (floored at zero). */
    double totalNs(Id id) const;
    /** Interpolation-free percentile of the raw samples, in ns. */
    double percentileNs(Id id, double p) const;

    /** Median cost of one span around an empty call, in ns. */
    static double clockCostNs();

  private:
    void
    record(Id id, Clock::time_point t0)
    {
        const auto d = Clock::now() - t0;
        ns_[id].push_back(static_cast<std::uint32_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                .count()));
    }

    bool on_;
    std::array<std::vector<std::uint32_t>, kNumSpans> ns_;
};

/** Work units and wall time of one isolated layer bench run. */
struct BenchRun
{
    double wall_s = 0.0;
    Flat units; //!< bench-local counts, named by unit
};

/**
 * Feed a standalone network of @p kind (configured as the paper
 * configures it at the scenario's core count) a seeded stream of
 * @p meta_rate / @p data_rate packets per cycle between uniformly
 * chosen endpoints for @p cycles cycles, timing Network::send/tick.
 * Units: "flit_hops" (mesh crossbar traversals) and "slots" (FSOI
 * slot boundaries over both lanes).
 */
BenchRun benchNetwork(const Scenario &sc, fsoi::sim::NetKind kind,
                      double meta_rate, double data_rate,
                      std::uint64_t seed, fsoi::Cycle cycles,
                      Spans &spans);

/**
 * Run the scenario's cores, L1s, directories and memory controllers
 * over a benchmark-owned transport with fixed per-class latencies, in
 * the same phase order and wake discipline as System::run(), timing
 * Core::tick, InstrStream::next, L1Cache::tick/handleMessage,
 * Directory::handleMessage/tick and MemoryController::handleMessage/
 * tick. With @p drive_l1 the cores are replaced by a loop that issues
 * each stream's loads and stores straight into the L1s, timing
 * L1Cache::load/store (synchronisation operations are skipped).
 * Units: "instructions", "l1_accesses", "l1_misses", "dir_requests",
 * "mem_requests".
 */
BenchRun benchTiles(const Scenario &sc, int meta_latency,
                    int data_latency, bool drive_l1, Spans &spans);

/**
 * Run the scenario to cycle @p mid, then time @p reps
 * saveCheckpoint() calls and @p reps restoreCheckpoint() calls into
 * freshly built Systems. Units: "bytes" (one checkpoint file).
 */
BenchRun benchSnapshot(const Scenario &sc, fsoi::Cycle mid, int reps,
                       const std::string &path, Spans &spans);

} // namespace perfbench

#endif // FSOI_PERFBENCH_LAYERS_HH
