/**
 * @file
 * System-level checkpoint/restore: assembles the per-component
 * saveState/loadState implementations into a hash-verified snapshot
 * (snapshot/archive.hh) and rebuilds the scheduler runtime around the
 * restored state.
 *
 * Capture point is the top of a cycle, before the network tick. The
 * wake bitmaps and the event calendar are memoization of per-component
 * wake cycles that are pure functions of component state
 * (Component::nextEventCycle()), so neither is serialized. Restore
 * re-seeds the scheduler by waking every component with pending work
 * once; the first tick re-arms exact wakes.
 *
 * The local-hop queue is written sorted by (due, phase, dst), ties in
 * FIFO order. A queue entry's insertion slot is (cycle, phase, node,
 * program order): cycle is recoverable from the due stamp (the
 * local-hop latency is constant), the node is the destination
 * (self-sends only), and the phase is recoverable from the message
 * type, because the component kinds that can send to their own node
 * emit disjoint type sets (directory grants, L1 requests/acks, core
 * sync ops). The sort therefore fixes the section's bytes as a function
 * of the queued messages alone; it is kept even though the one FIFO is
 * probably in that order already, because no test shows that it is.
 * Restore pushes the entries back in file order.
 */

#include "sim/system.hh"

#include <algorithm>

#include "coherence/message_io.hh"
#include "common/logging.hh"
#include "snapshot/archive.hh"

namespace fsoi::sim {

using coherence::Message;
using coherence::MsgType;

namespace {

/**
 * Which component phase issues a same-node send of this message type
 * (tickComponents' phase order). Directory grants/NACKs are L1-bound,
 * sync ops come from cores, everything else self-sent is an L1
 * request/ack to its own-tile directory.
 */
int
selfSendPhase(MsgType type)
{
    switch (type) {
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::ExcAck:
      case MsgType::Inv:
      case MsgType::Dwg:
      case MsgType::Nack:
        return 0; // directory phase
      case MsgType::SyncLl:
      case MsgType::SyncSc:
        return 2; // core phase
      default:
        return 1; // L1 phase
    }
}

} // namespace

const char *
System::netSectionPrefix() const
{
    switch (config_.network) {
      case NetKind::Mesh: return "mesh";
      case NetKind::Fsoi: return "fsoi";
      default: return "net";
    }
}

void
System::saveSnapshot(snapshot::SnapshotWriter &snap) const
{
    // Config fingerprint: restore refuses a snapshot taken under a
    // different machine shape.
    snapshot::Writer &meta = snap.section("meta");
    meta.u32(static_cast<std::uint32_t>(config_.num_cores));
    meta.u32(static_cast<std::uint32_t>(config_.num_memctls));
    meta.u8(static_cast<std::uint8_t>(config_.network));
    meta.u64(config_.seed);
    meta.boolean(config_.opt_confirmation_ack);
    meta.boolean(config_.opt_sync_subscription);
    meta.boolean(config_.opt_data_collision);
    meta.boolean(fault_ != nullptr);
    meta.u64(now_);

    snapshot::Writer &mem = snap.section("memory");
    const auto words = funcMem_.exportWords();
    mem.reserve(8 + 16 * words.size());
    mem.u64(words.size());
    for (const auto &[addr, value] : words) {
        mem.u64(addr);
        mem.u64(value);
    }

    network_->saveSnapshot(snap, netSectionPrefix());
    if (fault_)
        fault_->saveState(snap.section("fault"));

    for (int n = 0; n < config_.num_cores; ++n) {
        const std::string id = std::to_string(n);
        cores_[n]->saveState(snap.section("core" + id));
        l1s_[n]->saveState(snap.section("core" + id + ".l1"));
        dirs_[n]->saveState(snap.section("dir" + id));
    }
    for (int m = 0; m < config_.num_memctls; ++m)
        memctls_[m]->saveState(snap.section("mem" + std::to_string(m)));

    // Canonical local-queue order (see file comment).
    std::vector<LocalMsg> msgs(localQueue_.begin(), localQueue_.end());
    std::stable_sort(msgs.begin(), msgs.end(),
                     [](const LocalMsg &a, const LocalMsg &b) {
                         if (a.due != b.due)
                             return a.due < b.due;
                         const int pa = selfSendPhase(a.msg.type);
                         const int pb = selfSendPhase(b.msg.type);
                         if (pa != pb)
                             return pa < pb;
                         return a.dst < b.dst;
                     });
    snapshot::Writer &sched = snap.section("sched");
    sched.u64(msgs.size());
    for (const LocalMsg &m : msgs) {
        sched.u64(m.due);
        sched.u32(m.dst);
        coherence::saveMessage(sched, m.msg);
    }
}

void
System::saveCheckpoint(const std::string &path) const
{
    snapshot::SnapshotWriter snap;
    saveSnapshot(snap);
    snap.writeFile(path);
}

void
System::restoreSnapshot(const snapshot::SnapshotReader &snap)
{
    snapshot::Reader meta = snap.open("meta");
    const auto cores = meta.u32();
    const auto memctls = meta.u32();
    const auto netkind = meta.u8();
    const auto seed = meta.u64();
    const bool conf_ack = meta.boolean();
    const bool sync_sub = meta.boolean();
    const bool data_coll = meta.boolean();
    const bool faulted = meta.boolean();
    if (cores != static_cast<std::uint32_t>(config_.num_cores)
        || memctls != static_cast<std::uint32_t>(config_.num_memctls)
        || netkind != static_cast<std::uint8_t>(config_.network)
        || seed != config_.seed
        || conf_ack != config_.opt_confirmation_ack
        || sync_sub != config_.opt_sync_subscription
        || data_coll != config_.opt_data_collision
        || faulted != (fault_ != nullptr)) {
        throw snapshot::SnapshotError(
            "snapshot.config_mismatch: snapshot is "
            + std::to_string(cores) + " cores / "
            + std::to_string(memctls) + " memctls / "
            + netKindName(static_cast<NetKind>(netkind)) + " / seed "
            + std::to_string(seed) + ", this system is "
            + std::to_string(config_.num_cores) + " / "
            + std::to_string(config_.num_memctls) + " / "
            + netKindName(config_.network) + " / seed "
            + std::to_string(config_.seed));
    }
    const Cycle at = meta.u64();

    {
        snapshot::Reader r = snap.open("memory");
        std::vector<std::pair<Addr, std::uint64_t>> words;
        const std::uint64_t n = r.count(16);
        words.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr addr = r.u64();
            words.emplace_back(addr, r.u64());
        }
        funcMem_.importWords(words);
    }

    network_->loadSnapshot(snap, netSectionPrefix());
    if (fault_) {
        snapshot::Reader r = snap.open("fault");
        fault_->loadState(r);
    }

    for (int n = 0; n < config_.num_cores; ++n) {
        const std::string id = std::to_string(n);
        {
            snapshot::Reader r = snap.open("core" + id);
            cores_[n]->loadState(r);
        }
        {
            snapshot::Reader r = snap.open("core" + id + ".l1");
            l1s_[n]->loadState(r, cores_[n]->completionCallback());
        }
        {
            snapshot::Reader r = snap.open("dir" + id);
            dirs_[n]->loadState(r);
        }
    }
    for (int m = 0; m < config_.num_memctls; ++m) {
        snapshot::Reader r = snap.open("mem" + std::to_string(m));
        memctls_[m]->loadState(r);
    }

    localQueue_.clear();
    {
        snapshot::Reader r = snap.open("sched");
        const std::uint64_t n =
            r.count(12 + coherence::kSavedMessageBytes);
        for (std::uint64_t i = 0; i < n; ++i) {
            LocalMsg msg;
            msg.due = r.u64();
            msg.dst = static_cast<NodeId>(r.u32());
            msg.msg = coherence::loadMessage(r);
            localQueue_.push_back(std::move(msg));
        }
    }

    now_ = at;
    startCycle_ = at;
    restoredRun_ = true;
}

void
System::restoreCheckpoint(const std::string &path)
{
    const snapshot::SnapshotReader snap =
        snapshot::SnapshotReader::fromFile(path);
    restoreSnapshot(snap);
}

void
System::setCheckpoint(std::string path, Cycle every)
{
    checkpointPath_ = std::move(path);
    checkpointEvery_ = every;
}

} // namespace fsoi::sim
