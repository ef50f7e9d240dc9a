/**
 * @file
 * The fsoi-sim benchmark program. Builds one workload's inputs from a
 * seed, runs it through the library's public entry points and prints
 * one JSON object with the raw measurements; perfbench/run.py turns it
 * into the benchmark's metrics and checks the outputs.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--scale F] [--workdir DIR]
 *
 * --trace 0 times untraced runs: System::run() (or CampaignRunner::
 * run()) repeated for S seconds, plus repeated set-up. --trace 1 runs
 * the workload a few times untraced for its in-situ counts, then the
 * isolated layer benches of layers.hh, untraced and traced, and
 * derives the per-layer metrics. --scale multiplies every instruction
 * budget (smoke tests); recorded reference values hold at scale 1.
 */

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "layers.hh"
#include "common/logging.hh"
#include "sim/campaign.hh"
#include "sim/sweep_runner.hh"

namespace perfbench {
namespace {

using fsoi::Cycle;
namespace sim = fsoi::sim;
namespace workload = fsoi::workload;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string
hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

/** Digest of every simulated (non-host.*) stat of a finished run. */
std::string
statDigest(const Flat &flat)
{
    std::uint64_t h = kFnvBasis;
    for (const auto &[name, value] : flat) {
        if (name.rfind("host.", 0) == 0)
            continue;
        h = fnv1a(h, name.data(), name.size());
        h = fnv1a(h, &value, sizeof value);
    }
    return hex(h);
}

/**
 * One benchmark workload. A single-run workload has one point; the
 * campaign runs all of them through CampaignRunner.
 */
struct Workload
{
    std::string name;
    bool campaign = false;
    std::vector<sim::CampaignPoint> points;
    sim::CampaignConfig campaign_config;
};

Scenario
scenarioOf(const sim::CampaignPoint &p)
{
    return Scenario{p.name, p.job.config, p.job.app.scaled(p.job.scale)};
}

sim::CampaignPoint
point(std::string name, int cores, sim::NetKind kind,
      workload::AppProfile app, double scale, std::uint64_t seed)
{
    sim::CampaignPoint p;
    p.name = std::move(name);
    p.job.config = sim::SystemConfig::paperConfig(cores, kind);
    p.job.config.seed = seed;
    p.job.app = std::move(app);
    p.job.scale = scale;
    return p;
}

/**
 * The workload inputs are a pure function of (name, seed, scale): the
 * seed is expanded into the simulated chip's RNG seed here, and the
 * program receives only the finished configuration.
 */
Workload
makeWorkload(const std::string &name, std::uint64_t seed, double scale)
{
    const std::uint64_t chip_seed = splitmix64(seed) | 1;
    Workload w;
    w.name = name;
    if (name == "fsoi16.tsp") {
        w.points.push_back(point(name, 16, sim::NetKind::Fsoi,
                                 workload::appByName("tsp"),
                                 1.0 * scale, chip_seed));
    } else if (name == "campaign.fig6") {
        w.campaign = true;
        const double s = 0.15 * scale;
        for (const char *app : {"fft", "lu", "ocean", "radix"}) {
            for (const sim::NetKind kind :
                 {sim::NetKind::Mesh, sim::NetKind::Fsoi}) {
                w.points.push_back(point(
                    std::string(kind == sim::NetKind::Mesh ? "mesh." : "fsoi.")
                        + app,
                    16, kind, workload::appByName(app), s, chip_seed));
            }
        }
        // One warm family: two horizons of the same FSOI point, both
        // past completion, fork from one post-warmup checkpoint.
        for (const Cycle horizon : {Cycle{50'000'000}, Cycle{100'000'000}}) {
            sim::CampaignPoint p =
                point("warm.tsp." + std::to_string(horizon / 1'000'000) + "M",
                      16, sim::NetKind::Fsoi, workload::appByName("tsp"), s,
                      chip_seed);
            p.job.config.max_cycles = horizon;
            p.warm_family = "tsp";
            w.points.push_back(std::move(p));
        }
        // tsp at s runs about 240k * s cycles: warm up the first quarter
        // and checkpoint a few times per point.
        w.campaign_config.checkpoint_every = 25'000;
        w.campaign_config.warmup_cycles =
            static_cast<Cycle>(std::max(1.0, 60'000 * s));
        // Timed at one job: on the host the bounds were set on, the wall
        // time of a worker pool tracked how busy the other tenants were
        // more than the sweep itself. The traced run measures the pool.
        w.campaign_config.jobs = 1;
    } else {
        fsoi::fatal("unknown workload '%s'", name.c_str());
    }
    return w;
}

/** One timed repetition and the facts its correctness rests on. */
struct Rep
{
    double run_s = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::string digest;
    std::string problem; //!< empty = the run itself looked healthy
};

std::string
runProblem(const sim::RunResult &r)
{
    if (!r.completed)
        return "did not complete";
    if (!r.fault_diagnosis.empty())
        return "fault: " + r.fault_diagnosis;
    return "";
}

/** Run one scenario untraced; @p stats receives its registry. */
Rep
runSingle(const Scenario &sc, Flat *stats = nullptr)
{
    sim::System sys(sc.config);
    sys.loadApp(sc.app);
    const Clock::time_point t0 = Clock::now();
    const sim::RunResult r = sys.run();
    Rep rep;
    rep.run_s = secondsSince(t0);
    const Flat flat = flatten(sys.statRegistry());
    rep.cycles = r.cycles;
    rep.instructions = r.instructions;
    rep.digest = statDigest(flat);
    rep.problem = runProblem(r);
    if (stats)
        *stats = flat;
    return rep;
}

double
setupSingle(const Scenario &sc)
{
    const Clock::time_point t0 = Clock::now();
    auto sys = std::make_unique<sim::System>(sc.config);
    sys->loadApp(sc.app);
    const double s = secondsSince(t0);
    sys.reset();
    return s;
}

std::string
campaignJson(const std::vector<sim::CampaignOutcome> &outcomes)
{
    std::ostringstream os;
    sim::CampaignRunner::writeJson(os, outcomes);
    return os.str();
}

/**
 * The campaign's points run serially through SweepRunner: the
 * reference every campaign repetition must reproduce. Per-point wall
 * times and registries feed the traced run.
 */
struct SerialReference
{
    std::string json;
    std::vector<double> point_s;
    std::vector<Flat> stats;
};

SerialReference
serialReference(const Workload &w)
{
    SerialReference ref;
    std::vector<sim::CampaignOutcome> outcomes;
    for (const sim::CampaignPoint &p : w.points) {
        const Clock::time_point t0 = Clock::now();
        sim::SweepOutcome out = sim::SweepRunner::runJob(p.job, true);
        ref.point_s.push_back(secondsSince(t0));
        ref.stats.push_back(flatten(out.system->statRegistry()));
        outcomes.push_back(sim::CampaignOutcome{p.name, 1, false, out.result});
    }
    ref.json = campaignJson(outcomes);
    return ref;
}

std::string
freshDir(const std::string &workdir, int n)
{
    const std::string dir = workdir + "/campaign-"
        + std::to_string(::getpid()) + "-" + std::to_string(n);
    std::filesystem::remove_all(dir);
    return dir;
}

Rep
runCampaign(const Workload &w, const SerialReference &ref,
            const std::string &workdir, int n)
{
    sim::CampaignConfig cfg = w.campaign_config;
    cfg.dir = freshDir(workdir, n);
    std::vector<sim::CampaignOutcome> outcomes;
    double run_s = 0.0;
    {
        sim::CampaignRunner runner(cfg);
        const Clock::time_point t0 = Clock::now();
        outcomes = runner.run(w.points);
        run_s = secondsSince(t0);
    }
    std::filesystem::remove_all(cfg.dir);

    Rep rep;
    rep.run_s = run_s;
    for (const sim::CampaignOutcome &o : outcomes) {
        rep.cycles += o.result.cycles;
        rep.instructions += o.result.instructions;
        std::string problem = o.quarantined ? "quarantined"
                                            : runProblem(o.result);
        if (problem.empty() && o.attempts != 1)
            problem = "attempts=" + std::to_string(o.attempts);
        if (!problem.empty() && rep.problem.empty())
            rep.problem = o.name + ": " + problem;
    }
    const std::string json = campaignJson(outcomes);
    if (rep.problem.empty() && json != ref.json)
        rep.problem = "outcomes differ from the serial SweepRunner run";
    rep.digest = hex(fnv1a(kFnvBasis, json.data(), json.size()));
    return rep;
}

/**
 * Campaign set-up: the runner and its journal, plus the System every
 * point builds and loads before it simulates. The journal alone is a
 * few filesystem calls whose latency drifts with the host's I/O load.
 */
double
setupCampaign(const Workload &w, const std::string &workdir, int n)
{
    sim::CampaignConfig cfg = w.campaign_config;
    cfg.dir = freshDir(workdir, n);
    std::vector<std::unique_ptr<sim::System>> systems;
    const Clock::time_point t0 = Clock::now();
    auto runner = std::make_unique<sim::CampaignRunner>(cfg);
    for (const sim::CampaignPoint &p : w.points) {
        systems.push_back(std::make_unique<sim::System>(p.job.config));
        systems.back()->loadApp(p.job.app.scaled(p.job.scale));
    }
    const double s = secondsSince(t0);
    systems.clear();
    runner.reset();
    std::filesystem::remove_all(cfg.dir);
    return s;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
printReps(const std::vector<Rep> &reps)
{
    std::printf("\"reps\":[");
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        std::printf("%s{\"run_s\":%.9g,\"cycles\":%" PRIu64
                    ",\"instructions\":%" PRIu64
                    ",\"digest\":\"%s\",\"problem\":\"%s\"}",
                    i ? "," : "", r.run_s, r.cycles, r.instructions,
                    r.digest.c_str(), r.problem.c_str());
    }
    std::printf("]");
}

void
printNumbers(const char *key, const std::vector<double> &v)
{
    std::printf("\"%s\":[", key);
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf("%s%.9g", i ? "," : "", v[i]);
    std::printf("]");
}

/** Untraced end-to-end measurement: repeated set-up, then repeated
 *  runs for @p seconds after one warm-up run. */
void
endToEnd(const Workload &w, double seconds, const std::string &workdir)
{
    const Clock::time_point start = Clock::now();
    SerialReference ref;
    if (w.campaign)
        ref = serialReference(w);
    const Scenario sc = scenarioOf(w.points.front());

    // Samples rotate over the CPUs the process may use, one per
    // sample: on a shared host the CPUs differ in speed from one second
    // to the next, and a run that stayed on one of them would measure
    // that CPU rather than the program.
    const std::vector<int> cpus = allowedCpus();
    std::size_t samples = 0;
    auto rotate = [&] {
        if (!cpus.empty())
            pinTo({cpus[samples++ % cpus.size()]});
    };

    // Set-up takes milliseconds, so it repeats often enough for a
    // stable median within a fixed slice of the run.
    std::vector<double> setup;
    int dirs = 0;
    const Clock::time_point setup_start = Clock::now();
    while (setup.size() < 15
           || (setup.size() < 1000
               && secondsSince(setup_start) < 0.05 * seconds)) {
        rotate();
        setup.push_back(w.campaign ? setupCampaign(w, workdir, dirs++)
                                   : setupSingle(sc));
    }

    std::vector<Rep> reps;
    auto once = [&] {
        rotate();
        return w.campaign ? runCampaign(w, ref, workdir, dirs++)
                          : runSingle(sc);
    };
    reps.push_back(once()); // warm-up: checked, not timed
    const Clock::time_point timed = Clock::now();
    while (reps.size() < 6 || secondsSince(timed) < seconds)
        reps.push_back(once());

    std::vector<double> run_s;
    for (std::size_t i = 1; i < reps.size(); ++i)
        run_s.push_back(reps[i].run_s);
    std::printf("{\"mode\":\"e2e\",\"workload\":\"%s\",", w.name.c_str());
    printReps(reps);
    std::printf(",");
    printNumbers("run_s", run_s);
    std::printf(",");
    printNumbers("setup_s", setup);
    std::printf(",\"wall_s\":%.6g}\n", secondsSince(start));
}

/** In-situ facts of one scenario, from an untraced run. */
struct InSitu
{
    Flat stats;
    double run_s = 0.0;
};

const char *
netScope(sim::NetKind kind)
{
    return kind == sim::NetKind::Mesh ? "mesh"
        : kind == sim::NetKind::Fsoi ? "fsoi" : "net";
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-unit host costs of one scenario's layers, in ns. */
struct UnitCosts
{
    double mesh_hop = 0, fsoi_slot = 0, l1_access = 0, l1_miss = 0,
           dir_request = 0, mem_request = 0, cpu_instr = 0,
           workload_instr = 0;
};

/**
 * Runs @p bench untraced and then traced, adds both wall times to the
 * overhead totals, and returns the traced run with the span time each
 * layer call gained during it (ns, clock cost removed).
 */
struct Traced
{
    BenchRun run;
    std::array<double, Spans::kNumSpans> ns{};
};

template <class F>
Traced
twice(Spans &off, Spans &on, double &untraced_s, double &traced_s,
      F &&bench)
{
    untraced_s += bench(off).wall_s;
    Traced t;
    for (int id = 0; id < Spans::kNumSpans; ++id)
        t.ns[id] = -on.totalNs(static_cast<Spans::Id>(id));
    t.run = bench(on);
    for (int id = 0; id < Spans::kNumSpans; ++id)
        t.ns[id] += on.totalNs(static_cast<Spans::Id>(id));
    traced_s += t.run.wall_s;
    return t;
}

/** The isolated network and tile benches of one scenario. */
UnitCosts
benchLayers(const Scenario &sc, const Flat &st, Spans &off, Spans &on,
            double &untraced_s, double &traced_s)
{
    const std::string net = netScope(sc.config.network);
    const double cycles = std::max(1.0, valueOf(st, "system.cycles"));
    const double meta_rate = valueOf(st, net + ".delivered.meta") / cycles;
    const double data_rate = valueOf(st, net + ".delivered.data") / cycles;
    const Cycle net_cycles = std::min<Cycle>(20'000, static_cast<Cycle>(cycles));
    const std::uint64_t net_seed = splitmix64(sc.config.seed ^ 0x6e6f63);
    auto latency = [&](const char *cls) {
        return std::max(1, static_cast<int>(std::lround(
                               valueOf(st, net + ".latency." + cls + ".mean"))));
    };
    using S = Spans;

    UnitCosts c;
    for (const sim::NetKind kind : {sim::NetKind::Mesh, sim::NetKind::Fsoi}) {
        Traced t = twice(off, on, untraced_s, traced_s, [&](Spans &spans) {
            return benchNetwork(sc, kind, meta_rate, data_rate, net_seed,
                                net_cycles, spans);
        });
        if (kind == sim::NetKind::Mesh)
            c.mesh_hop = ratio(t.ns[S::MeshSend] + t.ns[S::MeshTick],
                               t.run.units["flit_hops"]);
        else
            c.fsoi_slot = ratio(t.ns[S::FsoiSend] + t.ns[S::FsoiTick],
                                t.run.units["slots"]);
    }

    auto tiles = [&](bool drive_l1) {
        return twice(off, on, untraced_s, traced_s, [&](Spans &spans) {
            return benchTiles(sc, latency("meta"), latency("data"), drive_l1,
                              spans);
        });
    };
    Traced drv = tiles(true);
    Traced core = tiles(false);
    const auto &ns = core.ns;
    const double instructions = core.run.units["instructions"];
    // Core::tick makes the L1 load/store calls inline, so the core's
    // cost per instruction includes them; the feeder-measured access
    // cost is reported for the coherence layer but not added again in
    // the reconciliation. The L1's background work (tick, message
    // handling) scales with misses, not with accesses, most of which
    // are spin-loop hits.
    c.l1_access = ratio(drv.ns[S::L1Access], drv.run.units["l1_accesses"]);
    c.l1_miss = ratio(ns[S::L1Tick] + ns[S::L1Handle],
                      core.run.units["l1_misses"]);
    c.cpu_instr = ratio(ns[S::CoreTick] - ns[S::StreamNext], instructions);
    c.workload_instr = ratio(ns[S::StreamNext], instructions);
    c.dir_request = ratio(ns[S::DirHandle] + ns[S::DirTick],
                          core.run.units["dir_requests"]);
    c.mem_request = ratio(ns[S::MemHandle] + ns[S::MemTick],
                          core.run.units["mem_requests"]);
    return c;
}

void
traced(const Workload &w, const std::string &workdir)
{
    // In-situ counts and untraced run times.
    std::vector<Scenario> scenarios;
    std::vector<InSitu> insitu;
    std::vector<Rep> reps;
    double campaign_wall = 0.0;
    // The sweep pool runs at min(4, CPUs) workers here.
    Workload wide = w;
    wide.campaign_config.jobs = std::max(
        1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
    if (w.campaign) {
        const SerialReference ref = serialReference(w);
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            scenarios.push_back(scenarioOf(w.points[i]));
            insitu.push_back(InSitu{ref.stats[i], ref.point_s[i]});
        }
        std::vector<double> walls;
        for (int n = 0; n < 3; ++n) {
            reps.push_back(runCampaign(wide, ref, workdir, n));
            walls.push_back(reps.back().run_s);
        }
        campaign_wall = median(walls);
    } else {
        scenarios.push_back(scenarioOf(w.points.front()));
        std::vector<double> walls;
        InSitu in;
        for (int n = 0; n < 3; ++n) {
            reps.push_back(runSingle(scenarios.front(), &in.stats));
            walls.push_back(reps.back().run_s);
        }
        in.run_s = median(walls);
        insitu.push_back(in);
    }

    // Isolated layer benches, each once untraced and once traced.
    Spans off(false), on(true);
    double untraced_s = 0.0, traced_s = 0.0, snapshot_bytes = 0.0;
    std::vector<UnitCosts> costs;
    const std::string ckpt =
        workdir + "/snapshot-" + std::to_string(::getpid()) + ".ckpt";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &sc = scenarios[i];
        costs.push_back(benchLayers(sc, insitu[i].stats, off, on, untraced_s,
                                    traced_s));
        const double cycles = valueOf(insitu[i].stats, "system.cycles");
        snapshot_bytes += benchSnapshot(sc, static_cast<Cycle>(cycles / 2), 3,
                                        ckpt, on)
                              .units["bytes"];
    }

    // In-situ units per scenario, named like the layer metrics.
    struct Units
    {
        double hops, slots, accesses, misses, requests, mem, instr;
    };
    std::vector<Units> units;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Flat &st = insitu[i].stats;
        units.push_back(Units{
            valueOf(st, "mesh.activity.crossbar_traversals"),
            valueOf(st, "fsoi.slots_elapsed.meta")
                + valueOf(st, "fsoi.slots_elapsed.data"),
            sumOf(st, "system.core", ".l1.loads")
                + sumOf(st, "system.core", ".l1.stores"),
            sumOf(st, "system.core", ".l1.misses"),
            sumOf(st, "system.dir", ".requests"),
            sumOf(st, "system.mem", ".reads")
                + sumOf(st, "system.mem", ".writes"),
            valueOf(st, "system.instructions")});
    }
    // A cost pooled over scenarios, weighted by in-situ work; layers no
    // scenario uses in situ fall back to the plain mean of the benches.
    auto pooled = [&](double UnitCosts::*cost, double Units::*unit) {
        double num = 0, den = 0, plain = 0;
        for (std::size_t i = 0; i < costs.size(); ++i) {
            num += costs[i].*cost * units[i].*unit;
            den += units[i].*unit;
            plain += costs[i].*cost;
        }
        return den > 0 ? num / den : plain / costs.size();
    };
    double attributed = 0.0, run_total = 0.0;
    for (std::size_t i = 0; i < costs.size(); ++i) {
        const UnitCosts &c = costs[i];
        const Units &u = units[i];
        attributed += c.mesh_hop * u.hops + c.fsoi_slot * u.slots
            + c.l1_miss * u.misses
            + c.dir_request * u.requests
            + c.mem_request * u.mem
            + (c.cpu_instr + c.workload_instr) * u.instr;
        run_total += insitu[i].run_s;
    }

    Flat all;
    for (const InSitu &in : insitu)
        for (const auto &[k, v] : in.stats)
            all[k] += v;
    auto total = [&](const std::string &prefix, const std::string &suffix) {
        return sumOf(all, prefix, suffix);
    };
    // Total simulated wait of an accumulator family: count x mean.
    auto accumulated = [&](const std::string &prefix,
                           const std::string &suffix) {
        double t = 0;
        for (const InSitu &in : insitu) {
            for (const auto &[k, v] : in.stats) {
                const std::string tail = suffix + ".count";
                if (k.rfind(prefix, 0) != 0 || k.size() < tail.size()
                    || k.compare(k.size() - tail.size(), tail.size(), tail))
                    continue;
                t += v * valueOf(in.stats,
                                 k.substr(0, k.size() - 6) + ".mean");
            }
        }
        return t;
    };

    Flat m;
    m["noc.mesh.packets"] = valueOf(all, "mesh.delivered.total");
    m["noc.mesh.flit_hops"] = valueOf(all, "mesh.activity.crossbar_traversals");
    m["noc.mesh.queuing_cycles"] = accumulated("mesh.latency", ".queuing");
    m["noc.mesh.ns_per_flit_hop"] =
        pooled(&UnitCosts::mesh_hop, &Units::hops);
    m["fsoi.packets"] = valueOf(all, "fsoi.delivered.total");
    m["fsoi.slots"] = valueOf(all, "fsoi.slots_elapsed.meta")
        + valueOf(all, "fsoi.slots_elapsed.data");
    const double attempts = valueOf(all, "fsoi.attempts.meta")
        + valueOf(all, "fsoi.attempts.data");
    m["fsoi.attempts"] = attempts;
    m["fsoi.delivered_per_attempt"] = ratio(m["fsoi.packets"], attempts);
    m["fsoi.retx"] = valueOf(all, "fsoi.retx.packets");
    m["fsoi.ns_per_slot"] = pooled(&UnitCosts::fsoi_slot, &Units::slots);
    m["coherence.l1_accesses"] = total("system.core", ".l1.loads")
        + total("system.core", ".l1.stores");
    m["coherence.l1_misses"] = total("system.core", ".l1.misses");
    m["coherence.l1_nacks"] = total("system.core", ".l1.nacks");
    m["coherence.sc_failures"] = total("system.core", ".l1.sc_failures");
    m["coherence.dir_requests"] = total("system.dir", ".requests");
    m["coherence.dir_nacks_sent"] = total("system.dir", ".nacks_sent");
    m["coherence.ns_per_l1_access"] =
        pooled(&UnitCosts::l1_access, &Units::accesses);
    m["coherence.ns_per_l1_miss"] =
        pooled(&UnitCosts::l1_miss, &Units::misses);
    m["coherence.ns_per_dir_request"] =
        pooled(&UnitCosts::dir_request, &Units::requests);
    m["memory.reads"] = total("system.mem", ".reads");
    m["memory.queue_delay_cycles"] = accumulated("system.mem", ".queue_delay");
    m["memory.ns_per_request"] = pooled(&UnitCosts::mem_request, &Units::mem);
    m["cpu.instructions"] = valueOf(all, "system.instructions");
    m["cpu.stall_cycles"] = total("system.core", ".stall_cycles");
    m["cpu.ns_per_instr"] = pooled(&UnitCosts::cpu_instr, &Units::instr);
    m["workload.ns_per_instr"] =
        pooled(&UnitCosts::workload_instr, &Units::instr);
    const double executed = valueOf(all, "host.sched.cycles_executed");
    const double skipped = valueOf(all, "host.sched.cycles_skipped");
    m["sim.sched.cycles_executed"] = executed;
    m["sim.sched.cycles_skipped"] = skipped;
    m["sim.sched.skip_ratio"] = ratio(skipped, executed + skipped);
    m["sim.sched.events_dispatched"] =
        valueOf(all, "host.sched.events_dispatched");
    m["sim.ns_per_executed_cycle"] = ratio(run_total * 1e9, executed);
    m["sim.sweep.parallel_efficiency"] = w.campaign
        ? ratio(run_total, wide.campaign_config.jobs * campaign_wall)
        : 1.0;
    m["snapshot.bytes"] = snapshot_bytes / scenarios.size();
    m["snapshot.save_s"] = on.percentileNs(Spans::SnapshotSave, 0.5) * 1e-9;
    m["snapshot.restore_s"] =
        on.percentileNs(Spans::SnapshotRestore, 0.5) * 1e-9;
    m["obs.trace_overhead"] = ratio(traced_s, untraced_s) - 1.0;
    m["trace.unattributed_frac"] = 1.0 - ratio(attributed * 1e-9, run_total);
    for (int id = 0; id < Spans::kNumSpans; ++id) {
        const auto s = static_cast<Spans::Id>(id);
        const std::string base = std::string("span.") + Spans::name(s);
        m[base + ".p50_ns"] = on.percentileNs(s, 0.5);
        m[base + ".p99_ns"] = on.percentileNs(s, 0.99);
        m[base + ".samples"] = static_cast<double>(on.samples(s));
    }

    std::printf("{\"mode\":\"trace\",\"workload\":\"%s\",", w.name.c_str());
    printReps(reps);
    std::printf(",\"clock_cost_ns\":%.6g,\"metrics\":{",
                Spans::clockCostNs());
    bool first = true;
    for (const auto &[k, v] : m) {
        std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
        first = false;
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scale F] [--workdir DIR]\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string name, workdir = ".";
    std::uint64_t seed = 7;
    double seconds = 10.0, scale = 1.0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        if (arg == "--workload")
            name = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(val);
        else if (arg == "--trace")
            trace = std::strcmp(val, "0") != 0;
        else if (arg == "--scale")
            scale = std::atof(val);
        else if (arg == "--workdir")
            workdir = val;
        else
            return usage();
    }
    if (name.empty() || !(scale > 0) || !(seconds >= 0))
        return usage();
    std::filesystem::create_directories(workdir);
    const Workload w = makeWorkload(name, seed, scale);
    if (trace)
        traced(w, workdir);
    else
        endToEnd(w, seconds, workdir);
    return 0;
}
