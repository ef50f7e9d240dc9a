/**
 * @file
 * Checkpoint/restore guarantees: a restored run is bit-identical to
 * the uninterrupted run (including faulted configs), a periodic
 * checkpoint is byte-identical to a direct save at the same cycle,
 * corrupted, truncated or forged snapshots (forged element counts
 * included) are rejected with a named-section diagnosis, the container
 * bytes (little-endian scalars, lockstep-hashed sections) match a
 * hand-assembled scalar reference, and the campaign layer resumes
 * crashed sweeps without changing a single output byte.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fsoi/fsoi_network.hh"
#include "sim/campaign.hh"
#include "sim/sweep_runner.hh"
#include "snapshot/archive.hh"
#include "snapshot/state_io.hh"
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

std::vector<std::uint8_t>
bytesOf(const snapshot::Writer &w)
{
    return std::vector<std::uint8_t>(w.data(), w.data() + w.size());
}

/** Checkpoint @p job at @p at cycles (run a horizon-limited copy). */
void
checkpointAt(sim::SweepJob job, Cycle at, const std::string &path)
{
    job.config.max_cycles = at;
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    const auto r = sys.run();
    ASSERT_FALSE(r.completed)
        << "checkpoint cycle must fall inside the run";
    sys.saveCheckpoint(path);
}

sim::RunResult
resumeFrom(const std::string &path, const sim::SweepJob &job)
{
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
    snapshot::Reader r(w.data(), w.size(), "fsoi");
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
    EXPECT_EQ(bytesOf(wa), bytesOf(wb));
}

TEST(Snapshot, RestoredRunBitIdenticalAcrossThreads)
{
    // A run checkpointed mid-flight and resumed in a fresh System must
    // reproduce the uninterrupted run exactly.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const auto full = sim::SweepRunner::runJob(job, false).result;
    ASSERT_TRUE(full.completed);
    const std::string path = tmpPath("rt.ckpt");
    checkpointAt(job, 4000, path);
    expectIdentical(full, resumeFrom(path, job));
    std::filesystem::remove(path);
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
    checkpointAt(job, 4000, path);
    expectIdentical(full, resumeFrom(path, job));
    std::filesystem::remove(path);

    // Mesh with dead links exercises the reroute/retx machinery.
    auto mesh = point(sim::NetKind::Mesh, "fft", 7);
    mesh.config.fault.dead_link_fraction = 1.0 / 24.0;
    const auto mesh_full = sim::SweepRunner::runJob(mesh, false).result;
    ASSERT_TRUE(mesh_full.completed);
    const std::string mpath = tmpPath("fault_mesh.ckpt");
    checkpointAt(mesh, 4000, mpath);
    expectIdentical(mesh_full, resumeFrom(mpath, mesh));
    std::filesystem::remove(mpath);
}

TEST(Snapshot, PeriodicCheckpointMatchesDirectSave)
{
    // setCheckpoint()'s in-run snapshots capture the same canonical
    // top-of-cycle state as an explicit horizon-limited save.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string direct = tmpPath("direct.ckpt");
    checkpointAt(job, 4000, direct);

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
    checkpointAt(job, 4000, path);
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
    checkpointAt(job, 4000, path);
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
    checkpointAt(job, 4000, path);

    const auto other = point(sim::NetKind::Fsoi, "fft", 4); // new seed
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

// --- container encoding and integrity --------------------------------

/** The diagnosis parsing @p bytes throws, or "" when they parse. */
std::string
parseError(std::vector<std::uint8_t> bytes)
{
    try {
        snapshot::SnapshotReader snap(std::move(bytes));
    } catch (const snapshot::SnapshotError &e) {
        return e.what();
    }
    return "";
}

void
storeLe64(std::vector<std::uint8_t> &bytes, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(Snapshot, WriterEncodesLittleEndian)
{
    snapshot::Writer w;
    w.u8(0xa5);
    w.u16(0x1234);
    w.u32(0x89abcdefu);
    w.u64(0x0123456789abcdefULL);
    w.i32(-2);
    w.i64(-3);
    w.dbl(1.5); // IEEE-754 0x3ff8000000000000
    w.str("hi");
    w.boolean(true);
    w.boolean(false);
    const std::vector<std::uint8_t> expected = {
        0xa5,                                           // u8
        0x34, 0x12,                                     // u16
        0xef, 0xcd, 0xab, 0x89,                         // u32
        0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, // u64
        0xfe, 0xff, 0xff, 0xff,                         // i32
        0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // i64
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // dbl
        0x02, 0x00, 0x00, 0x00, 'h', 'i',               // str
        0x01, 0x00,                                     // booleans
    };
    EXPECT_EQ(bytesOf(w), expected);

    snapshot::Reader r(w.data(), w.size(), "enc");
    EXPECT_EQ(r.u8(), 0xa5);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0x89abcdefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -2);
    EXPECT_EQ(r.i64(), -3);
    EXPECT_EQ(r.dbl(), 1.5);
    EXPECT_EQ(r.str(), "hi");
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.remaining(), 0u);

    // One byte short at every width is an underrun naming the section.
    struct Width
    {
        const char *name;
        std::size_t bytes;
        std::function<void(snapshot::Reader &)> read;
    };
    const std::vector<Width> widths = {
        {"u8", 1, [](snapshot::Reader &in) { in.u8(); }},
        {"boolean", 1, [](snapshot::Reader &in) { in.boolean(); }},
        {"u16", 2, [](snapshot::Reader &in) { in.u16(); }},
        {"u32", 4, [](snapshot::Reader &in) { in.u32(); }},
        {"u64", 8, [](snapshot::Reader &in) { in.u64(); }},
        {"i32", 4, [](snapshot::Reader &in) { in.i32(); }},
        {"i64", 8, [](snapshot::Reader &in) { in.i64(); }},
        {"dbl", 8, [](snapshot::Reader &in) { in.dbl(); }},
        {"str", 6, [](snapshot::Reader &in) { in.str(); }},
        {"raw", 5,
         [](snapshot::Reader &in) {
             std::uint8_t out[5];
             in.raw(out, sizeof(out));
         }},
    };
    // A "str" of two bytes: its 4-byte length prefix, then the body.
    const std::uint8_t src[8] = {0x02, 0, 0, 0, 'h', 'i', 0, 0};
    for (const Width &width : widths) {
        for (std::size_t have = 0; have < width.bytes; ++have) {
            const std::string section = std::string("short.") + width.name;
            snapshot::Reader in(src, have, section);
            try {
                width.read(in);
                FAIL() << width.name << " read " << have << " bytes";
            } catch (const snapshot::SnapshotError &e) {
                EXPECT_EQ(std::string(e.what()),
                          "snapshot.underrun: " + section);
            }
        }
    }
    // A string length near 2^32 must not wrap the bounds check.
    const std::uint8_t huge[6] = {0xff, 0xff, 0xff, 0xff, 'h', 'i'};
    snapshot::Reader in(huge, sizeof(huge), "huge");
    EXPECT_THROW(in.str(), snapshot::SnapshotError);
}

TEST(Snapshot, LockstepHashEqualsScalarFnv1a)
{
    std::mt19937_64 rng(0x5eedf00d);
    std::vector<std::uint8_t> pool(1 << 17);
    for (auto &b : pool)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t n = 0; n <= 9; ++n) {
        for (int trial = 0; trial < 25; ++trial) {
            // Mix empty, tiny, short and long spans so the lanes of one
            // group end far apart.
            std::vector<snapshot::ByteSpan> spans;
            for (std::size_t i = 0; i < n; ++i) {
                std::size_t len = 0;
                switch (rng() % 4) {
                  case 0: len = 0; break;
                  case 1: len = rng() % 8; break;
                  case 2: len = rng() % 600; break;
                  default: len = rng() % pool.size(); break;
                }
                const std::size_t off = rng() % (pool.size() - len + 1);
                spans.push_back({pool.data() + off, len});
            }
            const std::vector<std::uint64_t> got =
                snapshot::fnv1aEach(spans);
            ASSERT_EQ(got.size(), n);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(got[i],
                          snapshot::fnv1a(spans[i].data, spans[i].size))
                    << "span " << i << " of " << n << ", length "
                    << spans[i].size;
            }
        }
    }
}

TEST(Snapshot, FileBytesMatchScalarReference)
{
    // Eleven sections (two full lockstep groups plus a tail, one of
    // them empty) against the container assembled by hand with the
    // scalar hash, field by field in little-endian order.
    std::mt19937_64 rng(20100619);
    snapshot::SnapshotWriter snap;
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> secs;
    for (int s = 0; s < 11; ++s) {
        const std::size_t len = s == 3 ? 0 : rng() % (s < 4 ? 70000 : 900);
        std::vector<std::uint8_t> payload(len);
        for (auto &b : payload)
            b = static_cast<std::uint8_t>(rng());
        const std::string name = "section" + std::to_string(s);
        snap.section(name).raw(payload.data(), payload.size());
        secs.emplace_back(name, std::move(payload));
    }

    auto le = [](std::vector<std::uint8_t> &out, std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    std::vector<std::uint8_t> table;
    std::uint64_t root = snapshot::kFnvBasis;
    for (const auto &[name, payload] : secs) {
        const std::uint64_t hash =
            snapshot::fnv1a(payload.data(), payload.size());
        le(table, name.size(), 2);
        const std::size_t covered = table.size();
        table.insert(table.end(), name.begin(), name.end());
        le(table, payload.size(), 8);
        le(table, hash, 8);
        root = snapshot::fnv1a(table.data() + covered,
                               table.size() - covered, root);
        table.insert(table.end(), payload.begin(), payload.end());
    }
    std::vector<std::uint8_t> body(snapshot::kMagic,
                                   snapshot::kMagic
                                       + sizeof(snapshot::kMagic));
    le(body, snapshot::kFormatVersion, 4);
    le(body, secs.size(), 4);
    le(body, root, 8);
    body.insert(body.end(), table.begin(), table.end());

    EXPECT_EQ(snap.serialize(), body);
    const std::string path = tmpPath("reference.ckpt");
    snap.writeFile(path);
    EXPECT_EQ(readBytes(path), body);
    std::filesystem::remove(path);
    EXPECT_EQ(parseError(body), "");
}

TEST(Snapshot, ForgedSectionSizeIsTruncatedNotOverread)
{
    // One section whose table size is forged near 2^64, with the root
    // hash recomputed so the table itself verifies: an additive
    // "offset + size > file size" check wraps and lets the hash read
    // far past the buffer.
    snapshot::SnapshotWriter snap;
    snapshot::Writer &w = snap.section("victim");
    for (int i = 0; i < 64; ++i)
        w.u8(static_cast<std::uint8_t>(i));
    std::vector<std::uint8_t> bytes = snap.serialize();

    // 24-byte header, then u16 name length, name, u64 size, u64 hash.
    const std::size_t entry = 24, name_len = 6;
    const std::size_t size_at = entry + 2 + name_len;
    storeLe64(bytes, size_at, ~std::uint64_t{0} - 7);
    storeLe64(bytes, 16,
              snapshot::fnv1a(bytes.data() + entry + 2, name_len + 16));
    EXPECT_EQ(parseError(bytes), "snapshot.truncated: victim");
}

TEST(Snapshot, SeededByteMutantsAreRejectedByName)
{
    // A real 16-core mid-run checkpoint, then ~200 seeded single-byte
    // mutants over header, table and payloads plus a cut at every
    // section boundary: each must be refused with a `snapshot.`
    // diagnosis, and a payload mutant must name its own section
    // (FNV-1a changes on every single-byte change).
    const auto job = point(sim::NetKind::Fsoi, "fft", 5);
    const auto full = sim::SweepRunner::runJob(job, false).result;
    ASSERT_TRUE(full.completed);
    const std::string path = tmpPath("mutants.ckpt");
    checkpointAt(job, 4000, path);
    const auto bytes = readBytes(path);
    expectIdentical(full, resumeFrom(path, job));
    std::filesystem::remove(path);

    const snapshot::SnapshotReader intact{std::vector<std::uint8_t>(bytes)};
    const auto &secs = intact.sections();
    ASSERT_GT(secs.size(), 40u);
    std::vector<std::size_t> entryAt; // start of each table entry
    std::size_t at = 24;
    for (const auto &s : secs) {
        entryAt.push_back(at);
        at = s.offset + static_cast<std::size_t>(s.size);
    }
    ASSERT_EQ(at, bytes.size());

    std::mt19937_64 rng(0xf501c0de);
    auto mutate = [&](std::size_t pos) {
        auto mutant = bytes;
        mutant[pos] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        return parseError(std::move(mutant));
    };
    auto expectPrefixed = [](const std::string &what, const char *where,
                             std::size_t pos) {
        EXPECT_EQ(what.rfind("snapshot.", 0), 0u)
            << where << " mutant at byte " << pos << ": '" << what << "'";
    };
    int mutants = 0;
    for (std::size_t pos = 0; pos < 24; ++pos, ++mutants)
        expectPrefixed(mutate(pos), "header", pos);
    for (int k = 0; k < 64; ++k, ++mutants) {
        const std::size_t i = rng() % secs.size();
        const std::size_t pos =
            entryAt[i] + rng() % (secs[i].offset - entryAt[i]);
        expectPrefixed(mutate(pos), "table", pos);
    }
    for (int k = 0; k < 112; ++k, ++mutants) {
        std::size_t i;
        do {
            i = rng() % secs.size();
        } while (secs[i].size == 0);
        const std::size_t pos = secs[i].offset + rng() % secs[i].size;
        EXPECT_EQ(mutate(pos), "snapshot.corrupt: " + secs[i].name)
            << "payload mutant at byte " << pos;
    }
    EXPECT_EQ(mutants, 200);

    // Cut at every section boundary: before an entry the table runs
    // short, between an entry and its payload the section is truncated.
    for (std::size_t i = 0; i < secs.size(); ++i) {
        const std::vector<std::uint8_t> before(bytes.begin(),
                                               bytes.begin() + entryAt[i]);
        expectPrefixed(parseError(before), "cut", entryAt[i]);
        if (secs[i].size == 0)
            continue;
        const std::vector<std::uint8_t> headless(
            bytes.begin(), bytes.begin() + secs[i].offset);
        EXPECT_EQ(parseError(headless), "snapshot.truncated: " + secs[i].name);
    }
    EXPECT_EQ(parseError(bytes), "");
}

/** The diagnosis @p fn throws, or "" when it returns. */
std::string
thrownBy(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const snapshot::SnapshotError &e) {
        return e.what();
    }
    return "";
}

TEST(Snapshot, ForgedCountIsRejectedByName)
{
    // The hashes do not authenticate a file: anyone who recomputes them
    // can write any element count. A count that cannot fit in the
    // bytes left must be refused by name before a container is sized
    // from it.
    snapshot::Writer w;
    w.u64(std::uint64_t{1} << 60);
    snapshot::Reader pool(w.data(), w.size(), "pool");
    EXPECT_EQ(thrownBy([&] { (void)snapshot::loadU64Vec(pool); }),
              "snapshot.underrun: pool");

    // A real 16-core checkpoint whose `memory` count is rewritten and
    // re-wrapped, so every section hash and the root hash are valid.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string path = tmpPath("forged.ckpt");
    checkpointAt(job, 4000, path);
    const auto bytes = readBytes(path);
    std::filesystem::remove(path);
    const snapshot::SnapshotReader intact{std::vector<std::uint8_t>(bytes)};
    snapshot::SnapshotWriter forged;
    bool found = false;
    for (const auto &sec : intact.sections()) {
        const std::uint8_t *at = bytes.data() + sec.offset;
        std::vector<std::uint8_t> payload(at, at + sec.size);
        if (sec.name == "memory") {
            ASSERT_GE(payload.size(), 8u);
            storeLe64(payload, 0, std::uint64_t{1} << 60);
            found = true;
        }
        forged.section(sec.name).raw(payload.data(), payload.size());
    }
    ASSERT_TRUE(found);
    const snapshot::SnapshotReader snap(forged.serialize());
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    EXPECT_EQ(thrownBy([&] { sys.restoreSnapshot(snap); }),
              "snapshot.underrun: memory");
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
