/**
 * @file
 * Checkpoint/restore guarantees: a restored run is bit-identical to
 * the uninterrupted run at any tick-engine thread count (including
 * faulted configs), snapshot files are byte-identical regardless of
 * the thread count that wrote them, corrupted or truncated snapshots
 * are rejected with a named-section diagnosis, and the campaign layer
 * resumes crashed sweeps without changing a single output byte.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fsoi/fsoi_network.hh"
#include "sim/campaign.hh"
#include "sim/sweep_runner.hh"
#include "snapshot/archive.hh"
#include "workload/apps.hh"

namespace fsoi {
namespace {

sim::SweepJob
point(sim::NetKind kind, const char *app, std::uint64_t seed)
{
    sim::SweepJob job;
    job.config = sim::SystemConfig::paperConfig(16, kind);
    job.config.seed = seed;
    job.app = workload::appByName(app);
    job.scale = 0.03;
    return job;
}

std::string
tmpPath(const std::string &leaf)
{
    return testing::TempDir() + "fsoi_snapshot_" + leaf;
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

/** Checkpoint @p job at @p at cycles (run a horizon-limited copy). */
void
checkpointAt(sim::SweepJob job, Cycle at, int threads,
             const std::string &path)
{
    job.config.max_cycles = at;
    job.config.threads = threads;
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    const auto r = sys.run();
    ASSERT_FALSE(r.completed)
        << "checkpoint cycle must fall inside the run";
    sys.saveCheckpoint(path);
}

sim::RunResult
resumeFrom(const std::string &path, sim::SweepJob job, int threads)
{
    job.config.threads = threads;
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    sys.restoreCheckpoint(path);
    return sys.run();
}

/** Field-identical results (same checks as the determinism suite). */
void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
    EXPECT_EQ(a.queuing, b.queuing);
    EXPECT_EQ(a.scheduling, b.scheduling);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.collision_resolution, b.collision_resolution);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
    EXPECT_EQ(a.meta_collision_rate, b.meta_collision_rate);
    EXPECT_EQ(a.data_collision_rate, b.data_collision_rate);
    EXPECT_EQ(a.meta_tx_probability, b.meta_tx_probability);
    EXPECT_EQ(a.data_resolution_delay, b.data_resolution_delay);
    EXPECT_EQ(a.l1_miss_rate, b.l1_miss_rate);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.sync_packets, b.sync_packets);
    EXPECT_EQ(a.control_bits, b.control_bits);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.fault_bit_errors, b.fault_bit_errors);
    EXPECT_EQ(a.blacklisted_channels, b.blacklisted_channels);
    EXPECT_EQ(a.unroutable_drops, b.unroutable_drops);
    EXPECT_EQ(a.fault_diagnosis, b.fault_diagnosis);
}

/** Record what a standalone FSOI network delivers and confirms. */
void
wireRecorder(fsoi::FsoiNetwork &net, std::vector<std::uint64_t> &log)
{
    for (NodeId n = 0; n < static_cast<NodeId>(net.numEndpoints()); ++n) {
        net.setHandler(n, [&log](noc::Packet &pkt) {
            log.push_back(pkt.id << 20 | pkt.delivered);
        });
        net.setConfirmHandler(n, [&log](const noc::Packet &pkt) {
            log.push_back(~pkt.id);
        });
        net.setControlBitHandler(n, [](NodeId, std::uint64_t) {});
    }
}

/**
 * An FSOI checkpoint taken mid-collision -- with queued, retrying and
 * in-slot packets -- restores the lane-work counters behind
 * nextEventCycle() and idle(): both agree with the uninterrupted
 * network before the save, after the restore and on every later
 * cycle, and the restored network delivers the same packets at the
 * same cycles.
 */
TEST(Snapshot, FsoiMidCollisionRestoreKeepsWakeAndIdle)
{
    const noc::MeshLayout layout(16, 4);
    fsoi::FsoiConfig cfg;
    cfg.seed = 11;
    cfg.request_spacing = true;
    cfg.collision_hints = true;
    fsoi::FsoiNetwork orig(layout, cfg);
    std::vector<std::uint64_t> origLog;
    wireRecorder(orig, origLog);

    // Even cores share destination 16's receiver 0 and odd cores its
    // receiver 1, three packets each: the first data slot collides
    // and the rest wait in the lanes.
    orig.tick(0);
    for (int k = 0; k < 3; ++k) {
        for (NodeId s = 0; s < 16; ++s) {
            ASSERT_TRUE(orig.send(noc::makePacket(
                s, 16, noc::PacketClass::Data, noc::PacketKind::Reply)));
        }
    }
    // Cycle 13: the slot that started at 10 is in flight, the first
    // slot's colliders are backing off, and later packets are queued.
    const Cycle at = 13;
    for (Cycle c = 1; c <= at; ++c)
        orig.tick(c);
    std::ostringstream lanes;
    orig.writeLaneStateJson(lanes);
    ASSERT_NE(lanes.str().find("\"oldest_retry\""), std::string::npos)
        << lanes.str();
    ASSERT_NE(lanes.str().find("\"queued\":1"), std::string::npos)
        << lanes.str();
    ASSERT_GT(orig.stats().collisions(noc::PacketClass::Data), 0u);
    ASSERT_FALSE(orig.idle());

    snapshot::Writer w;
    orig.saveState(w);
    fsoi::FsoiNetwork restored(layout, cfg);
    std::vector<std::uint64_t> restoredLog;
    wireRecorder(restored, restoredLog);
    snapshot::Reader r(w.bytes().data(), w.size(), "fsoi");
    restored.loadState(r);
    origLog.clear();

    EXPECT_EQ(restored.nextEventCycle(at), orig.nextEventCycle(at));
    EXPECT_EQ(restored.idle(), orig.idle());
    for (Cycle c = at + 1; c < at + 5000 && !orig.idle(); ++c) {
        orig.tick(c);
        restored.tick(c);
        ASSERT_EQ(restored.nextEventCycle(c), orig.nextEventCycle(c))
            << "cycle " << c;
        ASSERT_EQ(restored.idle(), orig.idle()) << "cycle " << c;
    }
    EXPECT_TRUE(orig.idle());
    EXPECT_TRUE(restored.idle());
    EXPECT_EQ(restoredLog, origLog);
    snapshot::Writer wa, wb;
    orig.saveState(wa);
    restored.saveState(wb);
    EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(Snapshot, RestoredRunBitIdenticalAcrossThreads)
{
    // Checkpoint under every writer thread count, resume under every
    // reader thread count: all four combinations must reproduce the
    // uninterrupted run exactly.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const auto full = sim::SweepRunner::runJob(job, false).result;
    ASSERT_TRUE(full.completed);
    for (int save_threads : {1, 4}) {
        const std::string path =
            tmpPath("rt_t" + std::to_string(save_threads) + ".ckpt");
        checkpointAt(job, 4000, save_threads, path);
        for (int load_threads : {1, 4}) {
            const auto resumed = resumeFrom(path, job, load_threads);
            expectIdentical(full, resumed);
        }
        std::filesystem::remove(path);
    }
}

TEST(Snapshot, RestoredFaultedRunBitIdentical)
{
    // Fault injection state (schedules, retransmission queues, RNG
    // position) rides in the snapshot too.
    auto job = point(sim::NetKind::Fsoi, "fft", 7);
    job.config.fault.ber = 1e-4;
    const auto full = sim::SweepRunner::runJob(job, false).result;
    ASSERT_TRUE(full.completed);
    EXPECT_GT(full.fault_bit_errors, 0u);
    const std::string path = tmpPath("fault.ckpt");
    checkpointAt(job, 4000, 1, path);
    for (int load_threads : {1, 4}) {
        const auto resumed = resumeFrom(path, job, load_threads);
        expectIdentical(full, resumed);
    }
    std::filesystem::remove(path);

    // Mesh with dead links exercises the reroute/retx machinery.
    auto mesh = point(sim::NetKind::Mesh, "fft", 7);
    mesh.config.fault.dead_link_fraction = 1.0 / 24.0;
    const auto mesh_full = sim::SweepRunner::runJob(mesh, false).result;
    ASSERT_TRUE(mesh_full.completed);
    const std::string mpath = tmpPath("fault_mesh.ckpt");
    checkpointAt(mesh, 4000, 1, mpath);
    expectIdentical(mesh_full, resumeFrom(mpath, mesh, 1));
    std::filesystem::remove(mpath);
}

TEST(Snapshot, CheckpointBytesIndependentOfThreadCount)
{
    // The snapshot is a canonical encoding of simulator state, so the
    // file a 4-thread run writes is byte-for-byte the file the serial
    // run writes at the same cycle.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string p1 = tmpPath("bytes_t1.ckpt");
    const std::string p4 = tmpPath("bytes_t4.ckpt");
    checkpointAt(job, 4000, 1, p1);
    checkpointAt(job, 4000, 4, p4);
    EXPECT_EQ(readBytes(p1), readBytes(p4));
    std::filesystem::remove(p1);
    std::filesystem::remove(p4);
}

TEST(Snapshot, PeriodicCheckpointMatchesDirectSave)
{
    // setCheckpoint()'s in-run snapshots capture the same canonical
    // top-of-cycle state as an explicit horizon-limited save.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string direct = tmpPath("direct.ckpt");
    checkpointAt(job, 4000, 1, direct);

    auto periodic_job = job;
    periodic_job.config.max_cycles = 4001;
    sim::System sys(periodic_job.config);
    sys.loadApp(periodic_job.app.scaled(periodic_job.scale));
    const std::string periodic = tmpPath("periodic.ckpt");
    sys.setCheckpoint(periodic, 4000);
    (void)sys.run();
    EXPECT_EQ(readBytes(direct), readBytes(periodic));
    std::filesystem::remove(direct);
    std::filesystem::remove(periodic);
}

TEST(Snapshot, TruncatedFileNamesTheSection)
{
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string path = tmpPath("trunc.ckpt");
    checkpointAt(job, 4000, 1, path);
    const auto bytes = readBytes(path);
    std::filesystem::remove(path);
    ASSERT_GT(bytes.size(), 1000u);

    // Cutting the file mid-payload must be diagnosed as truncation of
    // a *named* section, never a crash or a silent short read.
    auto cut = bytes;
    cut.resize(bytes.size() / 2);
    try {
        snapshot::SnapshotReader snap(std::move(cut));
        FAIL() << "truncated snapshot parsed";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("snapshot.truncated: "),
                  std::string::npos)
            << e.what();
    }

    // Cutting inside the header is a malformed container.
    auto header_cut = bytes;
    header_cut.resize(12);
    EXPECT_THROW(snapshot::SnapshotReader snap2(std::move(header_cut)),
                 snapshot::SnapshotError);
}

TEST(Snapshot, BitFlipNamesTheSection)
{
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string path = tmpPath("flip.ckpt");
    checkpointAt(job, 4000, 1, path);
    const auto bytes = readBytes(path);
    std::filesystem::remove(path);

    // Locate a known section's payload via an intact reader, flip one
    // bit inside it, and expect the diagnosis to name that section.
    const snapshot::SnapshotReader intact{std::vector<std::uint8_t>(
        bytes)};
    for (const auto &sec : intact.sections()) {
        if (sec.name != "core5" && sec.name != "memory")
            continue;
        auto mutated = bytes;
        mutated[sec.offset + sec.size / 2] ^= 0x01;
        try {
            snapshot::SnapshotReader snap(std::move(mutated));
            FAIL() << "corrupt section " << sec.name << " parsed";
        } catch (const snapshot::SnapshotError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "snapshot.corrupt: " + sec.name);
        }
    }

    // Tampering with the section table itself is caught by the root
    // hash before any payload is trusted.
    auto table = bytes;
    table[8 + 4 + 4 + 8 + 2] ^= 0x01; // first byte of first entry name
    try {
        snapshot::SnapshotReader snap(std::move(table));
        FAIL() << "tampered section table parsed";
    } catch (const snapshot::SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_TRUE(what == "snapshot.corrupt: section table"
                    || what.rfind("snapshot.corrupt:", 0) == 0)
            << what;
    }
}

TEST(Snapshot, ConfigMismatchRejected)
{
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string path = tmpPath("mismatch.ckpt");
    checkpointAt(job, 4000, 1, path);

    auto other = point(sim::NetKind::Fsoi, "fft", 4); // different seed
    other.config.threads = 1;
    sim::System sys(other.config);
    sys.loadApp(other.app.scaled(other.scale));
    try {
        sys.restoreCheckpoint(path);
        FAIL() << "restored into a mismatching config";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("snapshot.config_mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

// --- campaign layer -------------------------------------------------

sim::CampaignPoint
campaignPoint(const std::string &name, std::uint64_t seed)
{
    sim::CampaignPoint p;
    p.name = name;
    p.job = point(sim::NetKind::Fsoi, "fft", seed);
    return p;
}

std::string
reportOf(const std::vector<sim::CampaignOutcome> &outcomes)
{
    std::ostringstream os;
    sim::CampaignRunner::writeJson(os, outcomes);
    return os.str();
}

TEST(Campaign, ResumeReplaysDonePointsByteIdentically)
{
    const std::string dir = tmpPath("camp_resume");
    std::filesystem::remove_all(dir);
    sim::CampaignConfig cc;
    cc.dir = dir;
    cc.checkpoint_every = 2000;
    const std::vector<sim::CampaignPoint> points{
        campaignPoint("p0", 3), campaignPoint("p1", 5)};

    std::string first;
    {
        sim::CampaignRunner runner(cc);
        const auto outcomes = runner.run(points);
        ASSERT_EQ(outcomes.size(), 2u);
        EXPECT_EQ(outcomes[0].attempts, 1);
        first = reportOf(outcomes);
    }
    {
        // Same command line again: everything replays from the journal
        // (attempts stay 1 — nothing is re-run) and the report bytes
        // are unchanged.
        sim::CampaignRunner runner(cc);
        const auto outcomes = runner.run(points);
        EXPECT_EQ(outcomes[0].attempts, 1);
        EXPECT_EQ(outcomes[1].attempts, 1);
        EXPECT_EQ(reportOf(outcomes), first);
    }
    std::filesystem::remove_all(dir);
}

TEST(Campaign, RepeatedlyCrashingPointIsQuarantined)
{
    const std::string dir = tmpPath("camp_quarantine");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    // A journal recording three attempts that never finished is what a
    // point that keeps crashing the process leaves behind.
    {
        std::ofstream j(dir + "/campaign.jsonl");
        for (int a = 1; a <= 3; ++a)
            j << "{\"event\":\"start\",\"point\":\"p0\",\"attempt\":"
              << a << "}\n";
    }
    sim::CampaignConfig cc;
    cc.dir = dir;
    cc.max_attempts = 3;
    sim::CampaignRunner runner(cc);
    const auto outcomes =
        runner.run({campaignPoint("p0", 3), campaignPoint("p1", 5)});
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].quarantined);
    EXPECT_EQ(outcomes[0].attempts, 3);
    EXPECT_FALSE(outcomes[1].quarantined);
    EXPECT_TRUE(outcomes[1].result.completed);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, WarmStartMatchesColdResults)
{
    // Horizon sweep off one shared warm snapshot: forking the family
    // members from the post-warmup checkpoint must not change any
    // result relative to simulating each point from cycle zero.
    auto base = point(sim::NetKind::Fsoi, "fft", 3);
    const Cycle warmup = 3000;
    auto makePoints = [&](bool warm) {
        std::vector<sim::CampaignPoint> pts;
        for (int i = 0; i < 3; ++i) {
            sim::CampaignPoint p;
            p.name = "h" + std::to_string(i);
            p.job = base;
            p.job.config.max_cycles =
                warmup + static_cast<Cycle>(i + 1) * 1000;
            if (warm)
                p.warm_family = "f0";
            pts.push_back(std::move(p));
        }
        return pts;
    };

    const std::string warm_dir = tmpPath("camp_warm");
    const std::string cold_dir = tmpPath("camp_cold");
    std::filesystem::remove_all(warm_dir);
    std::filesystem::remove_all(cold_dir);

    sim::CampaignConfig warm_cc;
    warm_cc.dir = warm_dir;
    warm_cc.warmup_cycles = warmup;
    sim::CampaignRunner warm_runner(warm_cc);
    const auto warm = warm_runner.run(makePoints(true));
    EXPECT_TRUE(std::filesystem::exists(warm_dir + "/warm_f0.ckpt"));

    sim::CampaignConfig cold_cc;
    cold_cc.dir = cold_dir;
    sim::CampaignRunner cold_runner(cold_cc);
    const auto cold = cold_runner.run(makePoints(false));

    EXPECT_EQ(reportOf(warm), reportOf(cold));
    std::filesystem::remove_all(warm_dir);
    std::filesystem::remove_all(cold_dir);
}

TEST(Campaign, ParallelJobsMatchSerial)
{
    auto runWith = [&](int jobs, const std::string &dir) {
        std::filesystem::remove_all(dir);
        sim::CampaignConfig cc;
        cc.dir = dir;
        cc.jobs = jobs;
        sim::CampaignRunner runner(cc);
        const auto out = runner.run({campaignPoint("p0", 3),
                                     campaignPoint("p1", 5),
                                     campaignPoint("p2", 9)});
        const std::string report = reportOf(out);
        std::filesystem::remove_all(dir);
        return report;
    };
    const auto serial = runWith(1, tmpPath("camp_j1"));
    EXPECT_EQ(serial, runWith(4, tmpPath("camp_j4")));
}

} // namespace
} // namespace fsoi
