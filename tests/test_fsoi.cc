/**
 * @file
 * Tests for the free-space optical interconnect: slotting, the
 * OR-channel collision semantics, confirmations, backoff, the
 * Section 5 optimizations and the phase-array transmitter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

#include "fsoi/fsoi_network.hh"

namespace fsoi::fsoi {
namespace {

using noc::MeshLayout;
using noc::makePacket;

struct Harness
{
    Harness(FsoiNetwork &net) : network(net)
    {
        for (NodeId n = 0; n < static_cast<NodeId>(net.numEndpoints());
             ++n) {
            net.setHandler(n, [this](noc::Packet &pkt) {
                delivered.push_back(pkt);
            });
            net.setConfirmHandler(n, [this](const noc::Packet &pkt) {
                confirmed.push_back(pkt);
            });
            net.setControlBitHandler(
                n, [this, n](NodeId src, std::uint64_t tag) {
                    control_bits.push_back({src, n, tag});
                });
        }
    }

    void
    runUntilIdle(Cycle max_cycles = 100000)
    {
        while (now < max_cycles) {
            network.tick(now++);
            if (network.idle() && now % 10 == 0)
                return;
        }
        FAIL() << "FSOI network did not drain";
    }

    struct Bit
    {
        NodeId src, dst;
        std::uint64_t tag;
    };

    FsoiNetwork &network;
    Cycle now = 0;
    std::vector<noc::Packet> delivered;
    std::vector<noc::Packet> confirmed;
    std::vector<Bit> control_bits;
};

FsoiConfig
baseConfig()
{
    return FsoiConfig{};
}

TEST(Fsoi, SlotLengthsMatchPaper)
{
    MeshLayout layout(16, 4);
    FsoiNetwork net(layout, baseConfig());
    // 72 bits over 3 VCSELs x 12 b/cycle = 2 cycles;
    // 360 bits over 6 VCSELs x 12 b/cycle = 5 cycles.
    EXPECT_EQ(net.slotCycles(noc::PacketClass::Meta), 2);
    EXPECT_EQ(net.slotCycles(noc::PacketClass::Data), 5);
}

TEST(Fsoi, BandwidthScalingStretchesSlots)
{
    MeshLayout layout(16, 4);
    FsoiConfig cfg;
    cfg.bandwidth_scale = 0.5;
    FsoiNetwork net(layout, cfg);
    EXPECT_EQ(net.slotCycles(noc::PacketClass::Meta), 4);
    EXPECT_EQ(net.slotCycles(noc::PacketClass::Data), 10);
}

TEST(Fsoi, SinglePacketLatency)
{
    MeshLayout layout(16, 4);
    FsoiNetwork net(layout, baseConfig());
    Harness harness(net);

    net.tick(0);
    ASSERT_TRUE(net.send(makePacket(3, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    harness.now = 1;
    harness.runUntilIdle();
    ASSERT_EQ(harness.delivered.size(), 1u);
    // Sent at cycle 0, transmitted in the slot starting at 2,
    // delivered at slot end (4).
    EXPECT_EQ(harness.delivered[0].delivered, 4u);
    EXPECT_EQ(harness.delivered[0].retries, 0);
}

TEST(Fsoi, ConfirmationArrivesTwoCyclesAfterSlotEnd)
{
    MeshLayout layout(16, 4);
    FsoiNetwork net(layout, baseConfig());
    Harness harness(net);

    net.tick(0);
    ASSERT_TRUE(net.send(makePacket(3, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    harness.now = 1;
    harness.runUntilIdle();
    ASSERT_EQ(harness.confirmed.size(), 1u);
    EXPECT_EQ(harness.confirmed[0].src, 3u);
}

TEST(Fsoi, CollisionDetectedAndResolved)
{
    MeshLayout layout(16, 4);
    FsoiConfig cfg;
    cfg.seed = 7;
    FsoiNetwork net(layout, cfg);
    Harness harness(net);

    net.tick(0);
    // Nodes 2 and 4 share destination 9's receiver 0 (even senders).
    ASSERT_TRUE(net.send(makePacket(2, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    ASSERT_TRUE(net.send(makePacket(4, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    harness.now = 1;
    harness.runUntilIdle();
    ASSERT_EQ(harness.delivered.size(), 2u);
    EXPECT_GE(net.stats().collisions(noc::PacketClass::Meta), 2u);
    int retried = 0;
    for (const auto &pkt : harness.delivered)
        retried += pkt.retries > 0;
    EXPECT_EQ(retried, 2);
    // Collision-resolution latency is visible in the breakdown.
    EXPECT_GT(net.stats().collisionResolution().max(), 0.0);
}

/**
 * Slot-resolution order contract (see FsoiNetwork::resolveSlot): the
 * (dst, rx) groups of one slot are visited in the iteration order of a
 * plain std::unordered_map<std::uint64_t, ...> filled in transmission
 * order, and that order is what deliveries and confirmations follow.
 * 21 groups push the map well past its first 13 buckets, so the order
 * is neither insertion nor key order.
 */
TEST(Fsoi, SlotResolutionFollowsUnorderedMapOrder)
{
    MeshLayout layout(64, 8);
    FsoiNetwork net(layout, baseConfig());
    Harness harness(net);

    // Senders 0..17 and 23 each own a (dst, rx) group; 18, 20, 22
    // collide at (30, rx 0) and 19, 21 at (31, rx 1).
    auto dstOf = [](NodeId s) -> NodeId {
        if (s < 18)
            return 40 + s;
        if (s == 23)
            return 32;
        return s % 2 ? 31 : 30;
    };
    net.tick(0);
    std::unordered_map<std::uint64_t, std::vector<NodeId>> reference;
    for (NodeId s = 0; s < 24; ++s) {
        ASSERT_TRUE(net.send(makePacket(s, dstOf(s), noc::PacketClass::Data,
                                        noc::PacketKind::Reply)));
        const int rx = static_cast<int>(s) % 2; // receivers_per_lane = 2
        reference[(static_cast<std::uint64_t>(dstOf(s)) << 8)
                  | static_cast<unsigned>(rx)]
            .push_back(s);
    }
    ASSERT_GT(reference.bucket_count(), 13u);
    std::vector<NodeId> expected;
    for (const auto &[key, senders] : reference) {
        if (senders.size() == 1)
            expected.push_back(senders[0]);
    }
    ASSERT_EQ(expected.size(), 19u);
    std::vector<NodeId> sorted = expected;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_NE(expected, sorted) << "keys must exercise hash order";

    harness.now = 1;
    harness.runUntilIdle();
    std::vector<NodeId> delivered, confirmed;
    for (const auto &pkt : harness.delivered)
        if (pkt.retries == 0)
            delivered.push_back(pkt.src);
    for (const auto &pkt : harness.confirmed)
        if (pkt.retries == 0)
            confirmed.push_back(pkt.src);
    EXPECT_EQ(delivered, expected);
    EXPECT_EQ(confirmed, expected);
    EXPECT_EQ(harness.delivered.size(), 24u);
}

TEST(Fsoi, ReceiverPartitionAvoidsOddEvenCollision)
{
    MeshLayout layout(16, 4);
    FsoiNetwork net(layout, baseConfig());
    Harness harness(net);

    net.tick(0);
    // Nodes 2 (even) and 5 (odd) target different receivers at node 9.
    ASSERT_TRUE(net.send(makePacket(2, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    ASSERT_TRUE(net.send(makePacket(5, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    harness.now = 1;
    harness.runUntilIdle();
    EXPECT_EQ(net.stats().collisions(noc::PacketClass::Meta), 0u);
    for (const auto &pkt : harness.delivered)
        EXPECT_EQ(pkt.retries, 0);
}

TEST(Fsoi, MetaAndDataLanesIndependent)
{
    MeshLayout layout(16, 4);
    FsoiNetwork net(layout, baseConfig());
    Harness harness(net);

    net.tick(0);
    // Same (src, dst) pair on both lanes: no cross-lane collision.
    ASSERT_TRUE(net.send(makePacket(2, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    ASSERT_TRUE(net.send(makePacket(4, 9, noc::PacketClass::Data,
                                    noc::PacketKind::Reply)));
    harness.now = 1;
    harness.runUntilIdle();
    EXPECT_EQ(net.stats().collisions(noc::PacketClass::Meta), 0u);
    EXPECT_EQ(net.stats().collisions(noc::PacketClass::Data), 0u);
}

TEST(Fsoi, ControlBitsDeliveredCollisionFree)
{
    MeshLayout layout(16, 4);
    FsoiNetwork net(layout, baseConfig());
    Harness harness(net);

    net.tick(0);
    for (NodeId n = 1; n < 8; ++n)
        net.sendControlBit(n, 0, 1000 + n);
    harness.now = 1;
    harness.runUntilIdle();
    ASSERT_EQ(harness.control_bits.size(), 7u);
    for (const auto &bit : harness.control_bits)
        EXPECT_EQ(bit.dst, 0u);
    EXPECT_EQ(net.activity().control_bits.value(), 7u);
}

TEST(Fsoi, HeavyContentionDrains)
{
    MeshLayout layout(16, 4);
    FsoiConfig cfg;
    cfg.seed = 11;
    FsoiNetwork net(layout, cfg);
    Harness harness(net);

    // Everyone hammers node 0 (the paper's pathological case).
    net.tick(0);
    int sent = 0;
    for (NodeId n = 1; n < 16; ++n) {
        if (net.canAccept(n, noc::PacketClass::Meta)) {
            ASSERT_TRUE(net.send(makePacket(n, 0, noc::PacketClass::Meta,
                                            noc::PacketKind::Request)));
            ++sent;
        }
    }
    harness.now = 1;
    harness.runUntilIdle();
    EXPECT_EQ(static_cast<int>(harness.delivered.size()), sent);
}

TEST(Fsoi, CollisionClassification)
{
    MeshLayout layout(16, 4);
    FsoiConfig cfg;
    cfg.seed = 3;
    FsoiNetwork net(layout, cfg);
    Harness harness(net);

    net.tick(0);
    // Two replies colliding at node 9 receiver 0.
    ASSERT_TRUE(net.send(makePacket(2, 9, noc::PacketClass::Data,
                                    noc::PacketKind::Reply)));
    ASSERT_TRUE(net.send(makePacket(4, 9, noc::PacketClass::Data,
                                    noc::PacketKind::Reply)));
    harness.now = 1;
    harness.runUntilIdle();
    EXPECT_GE(net.dataCollisionEvents(CollisionCategory::Reply), 1u);
    EXPECT_EQ(net.dataCollisionEvents(CollisionCategory::Memory), 0u);
}

TEST(Fsoi, MemoryPacketsClassified)
{
    MeshLayout layout(16, 4);
    FsoiConfig cfg;
    cfg.seed = 3;
    FsoiNetwork net(layout, cfg);
    Harness harness(net);

    net.tick(0);
    ASSERT_TRUE(net.send(makePacket(16, 9, noc::PacketClass::Data,
                                    noc::PacketKind::MemReply)));
    ASSERT_TRUE(net.send(makePacket(2, 9, noc::PacketClass::Data,
                                    noc::PacketKind::Reply)));
    harness.now = 1;
    harness.runUntilIdle();
    EXPECT_GE(net.dataCollisionEvents(CollisionCategory::Memory), 1u);
}

TEST(Fsoi, TransmissionProbabilityMeasured)
{
    MeshLayout layout(16, 4);
    FsoiNetwork net(layout, baseConfig());
    Harness harness(net);

    Cycle t = 0;
    for (; t < 2000; ++t) {
        net.tick(t);
        if (t % 10 == 0 && net.canAccept(t % 16, noc::PacketClass::Meta)) {
            NodeId src = t % 16;
            NodeId dst = (src + 5) % 16;
            ASSERT_TRUE(net.send(makePacket(src, dst,
                                            noc::PacketClass::Meta,
                                            noc::PacketKind::Request)));
        }
    }
    harness.now = t;
    harness.runUntilIdle();
    const double p = net.transmissionProbability(noc::PacketClass::Meta);
    // 200 packets over 1000 slots and 20 endpoints ~ 1%.
    EXPECT_NEAR(p, 0.01, 0.004);
}

TEST(Fsoi, PhaseArraySetupDelay)
{
    MeshLayout layout(64, 8);
    FsoiConfig steered;
    steered.phase_array = true;
    FsoiNetwork net(layout, steered);
    Harness harness(net);

    net.tick(0);
    // Alternating destinations force re-steering.
    ASSERT_TRUE(net.send(makePacket(0, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    ASSERT_TRUE(net.send(makePacket(0, 22, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    ASSERT_TRUE(net.send(makePacket(0, 9, noc::PacketClass::Meta,
                                    noc::PacketKind::Request)));
    harness.now = 1;
    harness.runUntilIdle();
    EXPECT_EQ(harness.delivered.size(), 3u);
    EXPECT_GE(net.activity().phase_setups.value(), 3u);
}

TEST(Fsoi, RequestSpacingAddsSchedulingDelay)
{
    MeshLayout layout(16, 4);
    FsoiConfig cfg;
    cfg.request_spacing = true;
    FsoiNetwork net(layout, cfg);
    Harness harness(net);

    net.tick(0);
    // Several requests from the same node whose predicted replies
    // would land in the same data slot at the same receiver group.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(net.send(makePacket(0, 2, noc::PacketClass::Meta,
                                        noc::PacketKind::Request)));
    harness.now = 1;
    harness.runUntilIdle();
    ASSERT_EQ(harness.delivered.size(), 4u);
    Cycle total_sched = 0;
    for (const auto &pkt : harness.delivered)
        total_sched += pkt.sched_delay;
    EXPECT_GT(total_sched, 0u);
}

TEST(Fsoi, CollisionHintsSpeedResolution)
{
    MeshLayout layout(16, 4);
    FsoiConfig plain, hinted;
    plain.seed = hinted.seed = 5;
    hinted.collision_hints = true;

    auto resolve_time = [&](const FsoiConfig &cfg) {
        FsoiNetwork net(layout, cfg);
        Harness harness(net);
        net.tick(0);
        // Three-way data collision at node 9 receiver 0.
        for (NodeId n : {2, 4, 6})
            EXPECT_TRUE(net.send(makePacket(n, 9, noc::PacketClass::Data,
                                            noc::PacketKind::Reply)));
        harness.now = 1;
        harness.runUntilIdle();
        return net.stats().collisionResolution().mean();
    };
    // Averaged over one episode the hint should not hurt; it usually
    // helps because the winner retransmits in the very next slot.
    EXPECT_LE(resolve_time(hinted), resolve_time(plain) + 1.0);
}

TEST(Fsoi, RetriesEventuallyExceedFirstWindow)
{
    // Sanity on the retry counter statistics under bursty load.
    MeshLayout layout(16, 4);
    FsoiConfig cfg;
    cfg.seed = 13;
    FsoiNetwork net(layout, cfg);
    Harness harness(net);

    net.tick(0);
    for (NodeId n : {2, 4, 6, 8, 10})
        ASSERT_TRUE(net.send(makePacket(n, 1, noc::PacketClass::Meta,
                                        noc::PacketKind::Request)));
    harness.now = 1;
    harness.runUntilIdle();
    int max_retries = 0;
    for (const auto &pkt : harness.delivered)
        max_retries = std::max(max_retries, pkt.retries);
    EXPECT_GE(max_retries, 1);
}

/** Property: no packets are ever lost, for a range of loads/seeds. */
class FsoiLoadSweep
    : public ::testing::TestWithParam<std::tuple<double, int>>
{};

TEST_P(FsoiLoadSweep, ConservationUnderLoad)
{
    const double load = std::get<0>(GetParam());
    const int seed = std::get<1>(GetParam());
    MeshLayout layout(16, 4);
    FsoiConfig cfg;
    cfg.seed = seed;
    FsoiNetwork net(layout, cfg);
    Harness harness(net);
    Rng rng(seed * 7 + 1);

    int sent = 0;
    Cycle t = 0;
    for (; t < 4000; ++t) {
        net.tick(t);
        for (NodeId n = 0; n < 20; ++n) {
            if (!rng.nextBool(load))
                continue;
            NodeId dst = rng.nextBelow(19);
            if (dst >= n)
                ++dst;
            const noc::PacketClass cls = rng.nextBool(0.3)
                ? noc::PacketClass::Data : noc::PacketClass::Meta;
            if (net.canAccept(n, cls)) {
                ASSERT_TRUE(net.send(makePacket(
                    n, dst, cls,
                    cls == noc::PacketClass::Data
                        ? noc::PacketKind::Reply
                        : noc::PacketKind::Request)));
                ++sent;
            }
        }
    }
    harness.now = t;
    harness.runUntilIdle(500000);
    EXPECT_EQ(static_cast<int>(harness.delivered.size()), sent);
}

INSTANTIATE_TEST_SUITE_P(
    Loads, FsoiLoadSweep,
    ::testing::Combine(::testing::Values(0.002, 0.01, 0.03, 0.08),
                       ::testing::Values(1, 2, 3)));

/**
 * Per-packet collision probability for N=16, R=2: the chance any of
 * the other senders wired to my receiver targets my destination in the
 * same slot. (Kept local so the fsoi tests only depend on noc+fsoi.)
 */
double
packetCollisionTheory(double p)
{
    const double q = p / 15.0;
    const double others = 15.0 / 2.0 - 1.0;
    return 1.0 - std::pow(1.0 - q, others);
}

/** Property: measured collision rate tracks the Figure 3 theory. */
class FsoiCollisionTheory : public ::testing::TestWithParam<double>
{};

TEST_P(FsoiCollisionTheory, MatchesAnalyticModel)
{
    const double p_target = GetParam();
    MeshLayout layout(16, 0 + 4);
    FsoiConfig cfg;
    cfg.seed = 17;
    FsoiNetwork net(layout, cfg);
    Harness harness(net);
    Rng rng(99);

    // Drive only the 16 cores at per-slot probability p_target on the
    // meta lane (slot = 2 cycles -> p/2 per cycle).
    Cycle t = 0;
    for (; t < 60000; ++t) {
        net.tick(t);
        if (t % 2 != 0)
            continue;
        for (NodeId n = 0; n < 16; ++n) {
            if (!rng.nextBool(p_target))
                continue;
            NodeId dst = rng.nextBelow(15);
            if (dst >= n)
                ++dst;
            if (net.canAccept(n, noc::PacketClass::Meta))
                net.send(makePacket(n, dst, noc::PacketClass::Meta,
                                    noc::PacketKind::Request));
        }
    }
    harness.now = t;
    harness.runUntilIdle(500000);

    const double measured_p =
        net.transmissionProbability(noc::PacketClass::Meta);
    const double rate = net.stats().collisionRate(noc::PacketClass::Meta);
    const double theory = packetCollisionTheory(measured_p);
    // Retransmission clustering inflates the measured rate a little.
    EXPECT_NEAR(rate, theory, 0.6 * theory + 0.01);
}

INSTANTIATE_TEST_SUITE_P(TxProbabilities, FsoiCollisionTheory,
                         ::testing::Values(0.02, 0.05, 0.10));

} // namespace
} // namespace fsoi::fsoi
