/**
 * @file
 * Snapshot serialization for noc::Packet. Field-by-field (never a raw
 * struct memcpy): padding bytes are indeterminate and would make the
 * per-section snapshot hashes nondeterministic. The inline payload is
 * written in full -- makePacket() zero-initializes the unused tail.
 */

#ifndef FSOI_NOC_PACKET_IO_HH
#define FSOI_NOC_PACKET_IO_HH

#include "noc/packet.hh"
#include "snapshot/archive.hh"

namespace fsoi::noc {

/** Bytes savePacket() writes: the per-element size for
 *  snapshot::Reader::count(). */
inline constexpr std::size_t kSavedPacketBytes =
    62 + Packet::kMaxPayloadBytes;

inline void
savePacket(snapshot::Writer &w, const Packet &pkt)
{
    w.u64(pkt.id);
    w.u32(pkt.src);
    w.u32(pkt.dst);
    w.u8(static_cast<std::uint8_t>(pkt.cls));
    w.u8(static_cast<std::uint8_t>(pkt.kind));
    w.raw(pkt.payload, Packet::kMaxPayloadBytes);
    w.u64(pkt.created);
    w.u64(pkt.first_tx);
    w.u64(pkt.final_tx);
    w.u64(pkt.delivered);
    w.u64(pkt.sched_delay);
    w.i32(pkt.retries);
}

inline Packet
loadPacket(snapshot::Reader &r)
{
    Packet pkt{};
    pkt.id = r.u64();
    pkt.src = r.u32();
    pkt.dst = r.u32();
    pkt.cls = static_cast<PacketClass>(r.u8());
    pkt.kind = static_cast<PacketKind>(r.u8());
    r.raw(pkt.payload, Packet::kMaxPayloadBytes);
    pkt.created = r.u64();
    pkt.first_tx = r.u64();
    pkt.final_tx = r.u64();
    pkt.delivered = r.u64();
    pkt.sched_delay = r.u64();
    pkt.retries = r.i32();
    return pkt;
}

} // namespace fsoi::noc

#endif // FSOI_NOC_PACKET_IO_HH
