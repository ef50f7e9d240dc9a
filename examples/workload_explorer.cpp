/**
 * @file
 * Workload explorer: characterize all sixteen application profiles on a
 * chosen interconnect. Prints the quantities the paper's methodology
 * section cares about -- L1 miss rate (target range 0.8-15.6%, average
 * ~4.8% after the deliberate L1 scale-down), packet latency, per-slot
 * transmission probability, and synchronization intensity.
 *
 *   ./workload_explorer [mesh|fsoi|l0|lr1|lr2] [scale]
 *
 * The shared observability knobs (obs/cli.hh) instrument every app
 * run; with --stats-interval the output file concatenates one series
 * per app (append mode), each restarting at cycle 0.
 *
 * The checkpoint knobs fan out per app: --checkpoint=FILE writes
 * periodic snapshots to FILE.<app>, and --restore=FILE resumes each
 * app whose FILE.<app> exists (apps without one start cold), so an
 * interrupted exploration picks up where it stopped.
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/table.hh"
#include "obs/cli.hh"
#include "sim/stats_io.hh"
#include "sim/system.hh"

using namespace fsoi;

int
main(int argc, char **argv)
{
    const obs::CliOptions obs_opts = obs::parseCliOptions(argc, argv);
    sim::NetKind kind = sim::NetKind::Fsoi;
    if (argc > 1) {
        const std::string arg = argv[1];
        if (arg == "mesh")
            kind = sim::NetKind::Mesh;
        else if (arg == "l0")
            kind = sim::NetKind::L0;
        else if (arg == "lr1")
            kind = sim::NetKind::Lr1;
        else if (arg == "lr2")
            kind = sim::NetKind::Lr2;
        else if (arg != "fsoi")
            fatal("unknown network '%s'", arg.c_str());
    }
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

    std::printf("workload explorer: 16 cores, %s interconnect, "
                "scale %.2f\n\n", sim::netKindName(kind), scale);

    TextTable table({"app", "cycles", "IPC", "missrate", "pktlat",
                     "packets", "txprob", "locks", "barriers",
                     "invals"});
    double miss_sum = 0.0;
    int count = 0;
    for (const auto &app : workload::paperApps()) {
        sim::SystemConfig cfg = sim::SystemConfig::paperConfig(16, kind);
        if (obs_opts.seed != 0)
            cfg.seed = obs_opts.seed;
        sim::System system(cfg);
        system.loadApp(app.scaled(scale));
        if (!obs_opts.restore.empty()) {
            const std::string path = obs_opts.restore + "." + app.name;
            if (std::filesystem::exists(path))
                system.restoreCheckpoint(path);
        }
        if (!obs_opts.checkpoint.empty())
            system.setCheckpoint(obs_opts.checkpoint + "." + app.name,
                                 obs_opts.checkpoint_every);
        sim::StatsIo stats(system, obs_opts);
        const auto res = system.run();
        stats.finish();

        std::uint64_t locks = 0, barriers = 0;
        for (int n = 0; n < cfg.num_cores; ++n) {
            locks += system.core(n).stats().locks_acquired.value();
            barriers += system.core(n).stats().barriers_passed.value();
        }
        table.addRow({app.name,
                      std::to_string(res.cycles),
                      TextTable::num(res.ipc, 2),
                      TextTable::pct(res.l1_miss_rate),
                      TextTable::num(res.avg_packet_latency, 1),
                      std::to_string(res.packets_delivered),
                      TextTable::pct(res.meta_tx_probability),
                      std::to_string(locks),
                      std::to_string(barriers),
                      std::to_string(res.invalidations)});
        miss_sum += res.l1_miss_rate;
        ++count;
    }
    table.print(std::cout);
    std::printf("\naverage L1 miss rate: %.1f%% (paper: 4.8%%)\n",
                100.0 * miss_sum / count);
    return 0;
}
