/**
 * @file
 * Snapshot serialization for coherence::Message, shared by the L1,
 * directory, and System checkpoint code. Field-by-field so struct
 * padding never reaches the snapshot hashes.
 */

#ifndef FSOI_COHERENCE_MESSAGE_IO_HH
#define FSOI_COHERENCE_MESSAGE_IO_HH

#include "coherence/message.hh"
#include "snapshot/archive.hh"

namespace fsoi::coherence {

/** Bytes saveMessage() writes: the per-element size for
 *  snapshot::Reader::count(). */
inline constexpr std::size_t kSavedMessageBytes = 32;

inline void
saveMessage(snapshot::Writer &w, const Message &msg)
{
    w.u8(static_cast<std::uint8_t>(msg.type));
    w.u64(msg.line);
    w.u32(msg.requester);
    w.u64(msg.value);
    w.u64(msg.version);
    w.boolean(msg.success);
    w.boolean(msg.subscribe);
    w.boolean(msg.explicit_ack);
}

inline Message
loadMessage(snapshot::Reader &r)
{
    Message msg{};
    msg.type = static_cast<MsgType>(r.u8());
    msg.line = r.u64();
    msg.requester = r.u32();
    msg.value = r.u64();
    msg.version = r.u64();
    msg.success = r.boolean();
    msg.subscribe = r.boolean();
    msg.explicit_ack = r.boolean();
    return msg;
}

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_MESSAGE_IO_HH
