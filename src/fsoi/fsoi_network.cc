#include "fsoi/fsoi_network.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/logging.hh"
#include "common/trace.hh"
#include "fault/fault_model.hh"
#include "noc/packet_io.hh"
#include "snapshot/state_io.hh"

namespace fsoi::fsoi {

namespace {

/** First slot boundary at or after @p cycle for slot length @p len. */
Cycle
alignUp(Cycle cycle, int len)
{
    const Cycle rem = cycle % len;
    return rem == 0 ? cycle : cycle + (len - rem);
}

/** Reservation key: destination, receiver index, absolute slot index. */
std::uint64_t
reservationKey(NodeId dst, int rx, std::uint64_t slot)
{
    return (static_cast<std::uint64_t>(dst) << 48)
        | (static_cast<std::uint64_t>(rx & 0xff) << 40)
        | (slot & 0xffffffffffULL);
}

} // namespace

const char *
collisionCategoryName(CollisionCategory cat)
{
    switch (cat) {
      case CollisionCategory::Memory: return "Memory";
      case CollisionCategory::Reply: return "Reply";
      case CollisionCategory::WriteBack: return "WriteBack";
      case CollisionCategory::Retransmission: return "Retransmission";
      case CollisionCategory::Other: return "Other";
      default: return "?";
    }
}

FsoiNetwork::FsoiNetwork(const noc::MeshLayout &layout,
                         const FsoiConfig &config,
                         fault::FaultInjector *fault)
    : Network(layout.numEndpoints()), layout_(layout), config_(config),
      rng_(config.seed), fault_(fault),
      lanes_(static_cast<std::size_t>(layout.numEndpoints()) * 2),
      confirmHandlers_(layout.numEndpoints()),
      controlBitHandlers_(layout.numEndpoints())
{
    FSOI_ASSERT(config_.data_vcsels >= 1 && config_.meta_vcsels >= 1);
    FSOI_ASSERT(config_.receivers_per_lane >= 1);
    FSOI_ASSERT(config_.backoff_window >= 1.0 && config_.backoff_base >= 1.0);
    FSOI_ASSERT(config_.bandwidth_scale > 0.0
                && config_.bandwidth_scale <= 1.0);
    FSOI_ASSERT(config_.confirmation_delay >= 1);

    slotCyclesCached_[0] = computeSlotCycles(PacketClass::Meta);
    slotCyclesCached_[1] = computeSlotCycles(PacketClass::Data);

    txSlots_[0].resize(layout.numEndpoints());
    txSlots_[1].resize(layout.numEndpoints());
    const std::size_t words = (layout.numEndpoints() + 63) / 64;
    busyLanes_[0].assign(words, 0);
    busyLanes_[1].assign(words, 0);
}

int
FsoiNetwork::computeSlotCycles(PacketClass cls) const
{
    const int vcsels = cls == PacketClass::Meta ? config_.meta_vcsels
                                                : config_.data_vcsels;
    const double capacity = vcsels * config_.bits_per_cycle_per_vcsel
        * config_.bandwidth_scale;
    return static_cast<int>(
        std::ceil(noc::packetBits(cls) / capacity - 1e-9));
}

double
FsoiNetwork::transmissionProbability(PacketClass cls) const
{
    const auto slots = slotsElapsed_[static_cast<int>(cls)].value();
    if (slots == 0)
        return 0.0;
    return static_cast<double>(stats().attempts(cls))
        / (static_cast<double>(slots) * numEndpoints());
}

std::uint64_t
FsoiNetwork::dataCollisionEventsTotal() const
{
    std::uint64_t total = 0;
    for (const auto &c : dataCollisionEvents_)
        total += c.value();
    return total;
}

void
FsoiNetwork::registerStats(const obs::Scope &scope) const
{
    Network::registerStats(scope);

    const obs::Scope activity = scope.scope("activity");
    activity.counter("vcsel_slot_cycles", activity_.vcsel_slot_cycles);
    activity.counter("bits_transmitted", activity_.bits_transmitted);
    activity.counter("confirmations", activity_.confirmations);
    activity.counter("control_bits", activity_.control_bits);
    activity.counter("phase_setups", activity_.phase_setups);

    const obs::Scope events = scope.scope("data_collisions");
    for (int c = 0; c < static_cast<int>(CollisionCategory::kCount);
         ++c) {
        events.counter(
            collisionCategoryName(static_cast<CollisionCategory>(c)),
            dataCollisionEvents_[c]);
    }
    scope.accumulator("data_resolution_delay", dataResolution_);

    const obs::Scope slots = scope.scope("slots_elapsed");
    slots.counter("meta",
                  slotsElapsed_[static_cast<int>(PacketClass::Meta)]);
    slots.counter("data",
                  slotsElapsed_[static_cast<int>(PacketClass::Data)]);

    const obs::Scope txp = scope.scope("tx_probability");
    txp.derived("meta", [this] {
        return transmissionProbability(PacketClass::Meta);
    });
    txp.derived("data", [this] {
        return transmissionProbability(PacketClass::Data);
    });

    // Per-node channel occupancy: how many slots each node's lanes
    // actually transmitted in, plus the VCSEL duty cycle. This is the
    // FSOI half of the tools/stats_report heatmap.
    const obs::Scope channels = scope.scope("channels");
    for (NodeId node = 0; node < static_cast<NodeId>(numEndpoints());
         ++node) {
        const obs::Scope n = channels.scope("n" + std::to_string(node));
        n.counter("meta_tx_slots", txSlots_[0][node]);
        n.counter("data_tx_slots", txSlots_[1][node]);
        n.derived("util",
                  [this, node] { return channelUtilization(node); });
    }
}

double
FsoiNetwork::channelUtilization(NodeId node) const
{
    if (now() == 0)
        return 0.0;
    const std::uint64_t lasing =
        txSlots(node, PacketClass::Meta)
            * static_cast<std::uint64_t>(slotCycles(PacketClass::Meta))
        + txSlots(node, PacketClass::Data)
            * static_cast<std::uint64_t>(slotCycles(PacketClass::Data));
    // Two independent lanes per node, each usable every cycle.
    return static_cast<double>(lasing) / (2.0 * now());
}

void
FsoiNetwork::writeLaneStateJson(std::ostream &os) const
{
    os << "{\"packets_in_flight\":" << packetsInFlight_
       << ",\"lanes\":[";
    bool sep = false;
    for (NodeId node = 0; node < static_cast<NodeId>(numEndpoints());
         ++node) {
        for (PacketClass cls :
             {PacketClass::Meta, PacketClass::Data}) {
            const TxLane &ln = lane(node, cls);
            if (ln.queue.empty() && ln.retries.empty())
                continue;
            os << (sep ? "," : "") << "{\"node\":" << node
               << ",\"class\":\""
               << (cls == PacketClass::Meta ? "meta" : "data")
               << "\",\"queued\":" << ln.queue.size()
               << ",\"retrying\":" << ln.retries.size();
            if (!ln.retries.empty()) {
                const RetryEntry *oldest = &ln.retries.front();
                for (const auto &r : ln.retries)
                    if (r.pkt.created < oldest->pkt.created)
                        oldest = &r;
                os << ",\"oldest_retry\":{\"id\":" << oldest->pkt.id
                   << ",\"dst\":" << oldest->pkt.dst
                   << ",\"created\":" << oldest->pkt.created
                   << ",\"retries\":" << oldest->pkt.retries
                   << ",\"retry_at\":" << oldest->retry_at << "}";
            } else {
                const QueuedPacket &head = ln.queue.front();
                os << ",\"head\":{\"id\":" << head.pkt.id
                   << ",\"dst\":" << head.pkt.dst
                   << ",\"created\":" << head.pkt.created
                   << ",\"release_at\":" << head.release_at << "}";
            }
            os << "}";
            sep = true;
        }
    }
    os << "]}";
}

FsoiNetwork::TxLane &
FsoiNetwork::lane(NodeId node, PacketClass cls)
{
    return lanes_[static_cast<std::size_t>(node) * 2
                  + static_cast<int>(cls)];
}

const FsoiNetwork::TxLane &
FsoiNetwork::lane(NodeId node, PacketClass cls) const
{
    return lanes_[static_cast<std::size_t>(node) * 2
                  + static_cast<int>(cls)];
}

void
FsoiNetwork::setConfirmHandler(NodeId node, ConfirmHandler handler)
{
    FSOI_ASSERT(node < confirmHandlers_.size());
    confirmHandlers_[node] = std::move(handler);
}

void
FsoiNetwork::setControlBitHandler(NodeId node, ControlBitHandler handler)
{
    FSOI_ASSERT(node < controlBitHandlers_.size());
    controlBitHandlers_[node] = std::move(handler);
}

bool
FsoiNetwork::canAccept(NodeId src, PacketClass cls) const
{
    return lane(src, cls).queue.size()
        < static_cast<std::size_t>(config_.queue_capacity);
}

NodeId
FsoiNetwork::nextBusy(PacketClass cls, NodeId from) const
{
    const std::vector<std::uint64_t> &busy =
        busyLanes_[static_cast<int>(cls)];
    std::size_t w = from / 64;
    if (w >= busy.size())
        return kInvalidNode;
    std::uint64_t bits = busy[w] & (~0ull << (from % 64));
    while (bits == 0) {
        if (++w == busy.size())
            return kInvalidNode;
        bits = busy[w];
    }
    return static_cast<NodeId>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
}

bool
FsoiNetwork::atSlotBoundary(PacketClass cls, Cycle now)
{
    const Cycle slot = static_cast<Cycle>(slotCycles(cls));
    Cycle &next = nextBoundary_[static_cast<int>(cls)];
    if (now != next && (now > next || next - now >= slot))
        next = alignUp(now, static_cast<int>(slot)); // cycles skipped
    if (now != next)
        return false;
    next += slot;
    return true;
}

int
FsoiNetwork::windowSlots(int retry) const
{
    const double w = config_.backoff_window
        * std::pow(config_.backoff_base, retry - 1);
    return static_cast<int>(std::max(1.0, std::ceil(w)));
}

bool
FsoiNetwork::reserveReplySlot(const Packet &request, Cycle now,
                              Cycle &release_at)
{
    // The data reply will come from request.dst back to request.src and
    // land on receiver (request.dst mod R) of the requester.
    const int data_slot = slotCycles(PacketClass::Data);
    const int rx = static_cast<int>(request.dst)
        % config_.receivers_per_lane;
    const Cycle predicted = now + config_.predicted_reply_latency;
    // Shift the request until the predicted reply slot is free.
    const int tries =
        reserveFirstFree(request.src, rx, predicted / data_slot);
    release_at = now + static_cast<Cycle>(std::max(tries, 0)) * data_slot;
    return tries >= 0;
}

int
FsoiNetwork::reserveFirstFree(NodeId dst, int rx, std::uint64_t slot)
{
    for (int tries = 0; tries < 8; ++tries) {
        const auto key = reservationKey(dst, rx, slot + tries);
        const bool taken = std::any_of(
            reservationLog_.begin(), reservationLog_.end(),
            [key](const ReservationEntry &re) { return re.key == key; });
        if (!taken) {
            reservationLog_.push_back({slot + tries, key});
            return tries;
        }
    }
    return -1;
}

bool
FsoiNetwork::send(Packet &&pkt)
{
    if (!canAccept(pkt.src, pkt.cls))
        return false;
    stampOnSend(pkt);

    Cycle release_at = pkt.created;
    if (config_.request_spacing && pkt.cls == PacketClass::Meta
        && pkt.kind == PacketKind::Request) {
        reserveReplySlot(pkt, pkt.created, release_at);
    } else if (config_.request_spacing && pkt.cls == PacketClass::Data
               && pkt.kind == PacketKind::WriteBack) {
        // Split-transaction writeback: claim a slot at the home so the
        // data packet arrives expected rather than unannounced.
        const int data_slot = slotCycles(PacketClass::Data);
        const int rx = static_cast<int>(pkt.src)
            % config_.receivers_per_lane;
        const std::uint64_t slot =
            alignUp(pkt.created + 1, data_slot) / data_slot;
        if (const int tries = reserveFirstFree(pkt.dst, rx, slot);
            tries >= 0)
            release_at = (slot + static_cast<std::uint64_t>(tries))
                * data_slot;
    }
    pkt.sched_delay = release_at - pkt.created;

    FSOI_TRACE_POINT(TraceCat::Fsoi, 2, "request", pkt.created, pkt.src,
                     {"id", pkt.id}, {"dst", pkt.dst},
                     {"kind", static_cast<std::uint64_t>(pkt.kind)});
    markBusy(pkt.src, pkt.cls);
    lane(pkt.src, pkt.cls).queue.push_back(
        QueuedPacket{std::move(pkt), release_at});
    ++packetsInFlight_;
    return true;
}

void
FsoiNetwork::sendControlBit(NodeId src, NodeId dst, std::uint64_t tag)
{
    FSOI_ASSERT(src < static_cast<NodeId>(numEndpoints())
                && dst < static_cast<NodeId>(numEndpoints()));
    // now() never decreases, so controlBits_ stays sorted by due.
    controlBits_.push_back(ControlBitEvent{
        now() + config_.confirmation_delay + 1, src, dst, tag});
    activity_.control_bits++;
    FSOI_TRACE_POINT(TraceCat::Fsoi, 3, "control_bit", now(), src,
                     {"dst", dst}, {"tag", tag});
}

void
FsoiNetwork::processControlBits(Cycle now)
{
    if (controlBits_.empty() || controlBits_.front().due > now)
        return; // ordered by due cycle: nothing is due yet
    std::size_t keep = 0;
    for (std::size_t i = 0; i < controlBits_.size(); ++i) {
        auto &evt = controlBits_[i];
        if (evt.due <= now) {
            auto &handler = controlBitHandlers_[evt.dst];
            FSOI_ASSERT(handler != nullptr,
                        "control bit to node %u without handler", evt.dst);
            handler(evt.src, evt.tag);
        } else {
            controlBits_[keep++] = std::move(evt);
        }
    }
    controlBits_.resize(keep);
}

void
FsoiNetwork::processConfirmations(Cycle now)
{
    if (confirmations_.empty() || confirmations_.front().due > now)
        return; // ordered by due cycle: nothing is due yet
    std::size_t keep = 0;
    for (std::size_t i = 0; i < confirmations_.size(); ++i) {
        auto &evt = confirmations_[i];
        if (evt.due > now) {
            confirmations_[keep++] = std::move(evt);
            continue;
        }
        if (evt.success) {
            activity_.confirmations++;
            FSOI_TRACE_POINT(TraceCat::Fsoi, 3, "confirm", now,
                             evt.pkt.src, {"id", evt.pkt.id});
            auto &handler = confirmHandlers_[evt.pkt.src];
            if (handler)
                handler(evt.pkt);
            continue;
        }
        // Missing confirmation: the sender now knows the packet
        // collided (or was eaten by a fault) and schedules a
        // retransmission slot.
        Packet pkt = std::move(evt.pkt);
        pkt.retries += 1;
        retxStats().recordRetx();
        const int slot_len = slotCycles(pkt.cls);
        Cycle retry_at;
        if (evt.hinted_winner) {
            // The receiver picked this sender: go in the next slot.
            retry_at = alignUp(now + 1, slot_len);
        } else {
            const Cycle base = config_.collision_hints
                && pkt.cls == PacketClass::Data
                ? alignUp(now + 1, slot_len) + slot_len // skip hint slot
                : alignUp(now + 1, slot_len);
            // Under fault injection the backoff window stops growing at
            // the retry budget: a persistently failing channel keeps
            // probing at a bounded rate instead of backing off forever,
            // so the blacklist trips in bounded time.
            int effective_retry = pkt.retries;
            if (fault_) {
                const int budget = fault_->config().max_retx;
                if (pkt.retries > budget) {
                    fault_->countRetxExhausted();
                    effective_retry = budget;
                }
            }
            const int window = windowSlots(effective_retry);
            const int draw =
                static_cast<int>(rng_.nextRange(1, window));
            retry_at = base + static_cast<Cycle>(draw - 1) * slot_len;
        }
        FSOI_TRACE_POINT(TraceCat::Fsoi, 2, "retry", now, pkt.src,
                         {"id", pkt.id}, {"retries",
                          static_cast<std::uint64_t>(pkt.retries)},
                         {"retry_at", retry_at});
        markBusy(pkt.src, pkt.cls);
        lane(pkt.src, pkt.cls).retries.push_back(
            RetryEntry{std::move(pkt), retry_at});
    }
    confirmations_.resize(keep);
}

CollisionCategory
FsoiNetwork::classify(const TxGroup &colliders)
{
    bool any_retry = false, any_mem = false, any_wb = false;
    bool all_reply = true;
    for (const auto *tx : colliders) {
        const auto kind = tx->pkt.kind;
        if (tx->pkt.retries > 0)
            any_retry = true;
        if (kind == PacketKind::MemRequest || kind == PacketKind::MemReply)
            any_mem = true;
        if (kind == PacketKind::WriteBack)
            any_wb = true;
        if (kind != PacketKind::Reply)
            all_reply = false;
    }
    if (any_retry)
        return CollisionCategory::Retransmission;
    if (any_mem)
        return CollisionCategory::Memory;
    if (any_wb)
        return CollisionCategory::WriteBack;
    if (all_reply)
        return CollisionCategory::Reply;
    return CollisionCategory::Other;
}

void
FsoiNetwork::resolveSlot(PacketClass cls, Cycle now)
{
    auto &inflight = inflight_[static_cast<int>(cls)];
    if (inflight.empty())
        return;

    // Group transmissions by (destination, receiver index).
    //
    // Order contract: groups are visited in the iteration order of a
    // std::unordered_map<std::uint64_t, ...> built by inserting the
    // keys in transmission order. That order is observable -- it sets
    // the delivery order, the confirmation order, and the shared RNG
    // draws for collision hints and backoff -- so it must not be
    // sorted or otherwise canonicalized. The pmr map below is the same
    // hashtable (same hash, bucket policy and insertion sequence) over
    // per-slot arena memory, so it iterates identically without heap
    // allocation. Changing this order changes simulated results and
    // needs the recorded references re-recorded (DESIGN.md).
    slotMemory_.release();
    std::pmr::unordered_map<std::uint64_t, TxGroup> groups(&slotMemory_);
    for (auto &tx : inflight) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(tx.pkt.dst) << 8)
            | static_cast<unsigned>(tx.rx);
        groups[key].push_back(&tx);
    }

    for (auto &[key, txs] : groups) {
        (void)key;
        if (txs.size() == 1) {
            Packet &pkt = txs[0]->pkt;
            if (fault_) {
                const int cls_idx = static_cast<int>(cls);
                const int rx = txs[0]->rx;
                const bool dead = fault_->rxDead(pkt.dst, cls_idx, rx);
                if (dead || fault_->corrupts(cls_idx)) {
                    // Dead photodetector (no light detected) or a
                    // CRC-flagged corrupted reception: the receiver
                    // stays silent, so the sender sees a missing
                    // confirmation -- indistinguishable from a
                    // collision -- and retransmits with backoff.
                    if (dead) {
                        fault_->countDeadChannelLoss();
                        retxStats().recordDeadChannelLoss();
                    } else {
                        retxStats().recordCrcDrop();
                    }
                    fault_->noteChannelFailure(pkt.dst, cls_idx, rx);
                    FSOI_TRACE_POINT(TraceCat::Fsoi, 1, "fault_drop",
                                     now, pkt.dst, {"id", pkt.id},
                                     {"src", pkt.src},
                                     {"rx",
                                      static_cast<std::uint64_t>(rx)},
                                     {"dead",
                                      static_cast<std::uint64_t>(dead)});
                    confirmations_.push_back(ConfirmEvent{
                        now + config_.confirmation_delay, false, false,
                        std::move(pkt)});
                    continue;
                }
                fault_->noteChannelSuccess(pkt.dst, cls_idx, rx);
            }
            // Clean reception: deliver now, confirm the sender at
            // now + confirmation_delay.
            Packet confirm_copy = pkt; // trivially copyable, no alloc
            if (pkt.cls == PacketClass::Data && pkt.retries > 0)
                dataResolution_.add(
                    static_cast<double>(pkt.final_tx - pkt.first_tx));
            confirmations_.push_back(ConfirmEvent{
                now + config_.confirmation_delay, true, false,
                std::move(confirm_copy)});
            FSOI_TRACE_POINT(TraceCat::Fsoi, 2, "grant", now, pkt.dst,
                             {"id", pkt.id}, {"src", pkt.src},
                             {"retries",
                              static_cast<std::uint64_t>(pkt.retries)});
            deliver(pkt);
            --packetsInFlight_;
            continue;
        }
        // Collision: the receiver sees the OR of the beams; the
        // PID/~PID check flags corruption. Every packet involved must
        // be retransmitted.
        CollisionCategory category = CollisionCategory::Other;
        if (cls == PacketClass::Data) {
            category = classify(txs);
            dataCollisionEvents_[static_cast<int>(category)]++;
        }
        FSOI_TRACE_POINT(TraceCat::Fsoi, 1, "collision", now,
                         txs[0]->pkt.dst,
                         {"colliders",
                          static_cast<std::uint64_t>(txs.size())},
                         {"class", static_cast<std::uint64_t>(cls)},
                         {"category",
                          static_cast<std::uint64_t>(category)});
        int winner = -1;
        if (config_.collision_hints && cls == PacketClass::Data
            && rng_.nextBool(config_.hint_accuracy)) {
            winner = static_cast<int>(rng_.nextBelow(txs.size()));
        }
        for (std::size_t i = 0; i < txs.size(); ++i) {
            stats().recordCollision(cls, txs[i]->pkt.kind);
            confirmations_.push_back(ConfirmEvent{
                now + config_.confirmation_delay, false,
                static_cast<int>(i) == winner,
                std::move(txs[i]->pkt)});
        }
    }
    inflight.clear();
}

void
FsoiNetwork::startSlot(PacketClass cls, Cycle now)
{
    const int slot_len = slotCycles(cls);
    const int vcsels = cls == PacketClass::Meta ? config_.meta_vcsels
                                                : config_.data_vcsels;
    slotsElapsed_[static_cast<int>(cls)]++;

    // Only lanes with work, in node order.
    for (NodeId node = nextBusy(cls, 0); node != kInvalidNode;
         node = nextBusy(cls, node + 1)) {
        TxLane &ln = lane(node, cls);

        // A dead VCSEL array never lights up: its packets stay queued
        // and the watchdog diagnoses the wedge from the fault schedule.
        if (fault_ && fault_->txDead(node, static_cast<int>(cls)))
            continue;

        // Pick the packet to transmit: pending retries first (earliest
        // retry_at), then the head of the outgoing queue.
        int best = -1;
        for (std::size_t i = 0; i < ln.retries.size(); ++i) {
            if (ln.retries[i].retry_at > now)
                continue;
            if (best < 0
                || ln.retries[i].retry_at < ln.retries[best].retry_at)
                best = static_cast<int>(i);
        }
        const bool from_queue = best < 0 && !ln.queue.empty()
            && ln.queue.front().release_at <= now;
        if (best < 0 && !from_queue)
            continue;
        Packet pkt = from_queue ? ln.queue.front().pkt
                                : ln.retries[best].pkt;
        if (from_queue)
            ln.queue.pop_front();
        else
            ln.retries.erase(ln.retries.begin() + best);
        if (ln.queue.empty() && ln.retries.empty())
            busyLanes_[static_cast<int>(cls)][node / 64] &=
                ~(1ull << (node % 64));

        // Phase-array steering: the beam must already point at the
        // destination, with any re-steer completed, to use this slot.
        if (config_.phase_array) {
            if (ln.beam_target != pkt.dst) {
                ln.beam_target = pkt.dst;
                ln.setup_ready = now + config_.phase_setup_cycles;
                activity_.phase_setups++;
                markBusy(node, cls);
                ln.retries.push_back(RetryEntry{std::move(pkt), now});
                continue;
            }
            if (ln.setup_ready > now) {
                markBusy(node, cls);
                ln.retries.push_back(RetryEntry{std::move(pkt), now});
                continue;
            }
        }

        if (pkt.first_tx == kNoCycle)
            pkt.first_tx = now;
        pkt.final_tx = now;
        FSOI_TRACE_SPAN(TraceCat::Fsoi, 3, "tx", now,
                        static_cast<Cycle>(slot_len), node,
                        {"id", pkt.id}, {"dst", pkt.dst});
        stats().recordAttempt(cls);
        txSlots_[static_cast<int>(cls)][node]++;
        activity_.vcsel_slot_cycles +=
            static_cast<std::uint64_t>(slot_len) * vcsels;
        activity_.bits_transmitted += noc::packetBits(cls);

        // Static receiver partition (sender id mod R); with faults the
        // injector steers traffic off blacklisted channels.
        const int rx = fault_
            ? fault_->redirectRx(node, pkt.dst, static_cast<int>(cls))
            : static_cast<int>(node) % config_.receivers_per_lane;
        inflight_[static_cast<int>(cls)].push_back(
            Transmission{std::move(pkt), rx});
    }
}

void
FsoiNetwork::tick(Cycle now)
{
    // Event-calendar gap accounting: skipped cycles (drained network,
    // or a busy one between slot boundaries) would only have advanced
    // the per-slot counters — replay the boundaries inside the gap
    // (multiples of the slot length) in one step; the boundary at now
    // itself, if any, is counted by the idle early-out or startSlot.
    if (const Cycle prev = this->now(); now > prev + 1) {
        for (PacketClass cls : {PacketClass::Meta, PacketClass::Data}) {
            const int slot = slotCycles(cls);
            slotsElapsed_[static_cast<int>(cls)] +=
                (now - 1) / slot - prev / slot;
        }
    }
    setNow(now);

    // Idle early-out: every queued, retrying or in-flight packet is
    // counted in packetsInFlight_ until delivery, so with the event
    // lists also empty the slot machinery below cannot move anything.
    // The per-slot counters still advance (transmissionProbability
    // normalizes attempts by *elapsed* slots, Figure 9) and stale
    // reservations still expire, exactly as in a fully simulated tick.
    if (packetsInFlight_ == 0 && confirmations_.empty()
        && controlBits_.empty()) {
        for (PacketClass cls : {PacketClass::Meta, PacketClass::Data})
            if (atSlotBoundary(cls, now))
                slotsElapsed_[static_cast<int>(cls)]++;
        expireReservations(now);
        return;
    }

    processControlBits(now);
    processConfirmations(now);

    for (PacketClass cls : {PacketClass::Meta, PacketClass::Data}) {
        if (atSlotBoundary(cls, now)) {
            resolveSlot(cls, now);
            startSlot(cls, now);
        }
    }

    // Phase-array: start re-steering toward the next packet's target as
    // soon as it reaches the head of a lane, so the setup (1 cycle)
    // usually overlaps the wait for the slot boundary.
    if (config_.phase_array) {
        for (NodeId node = 0;
             node < static_cast<NodeId>(numEndpoints()); ++node) {
            for (PacketClass cls : {PacketClass::Meta, PacketClass::Data}) {
                TxLane &ln = lane(node, cls);
                const Packet *next = nullptr;
                for (const auto &r : ln.retries)
                    if (r.retry_at <= now + 1) {
                        next = &r.pkt;
                        break;
                    }
                if (!next && !ln.queue.empty()
                    && ln.queue.front().release_at <= now + 1)
                    next = &ln.queue.front().pkt;
                if (next && ln.beam_target != next->dst
                    && ln.setup_ready <= now) {
                    ln.beam_target = next->dst;
                    ln.setup_ready = now + config_.phase_setup_cycles;
                    activity_.phase_setups++;
                }
            }
        }
    }

    expireReservations(now);
}

Cycle
FsoiNetwork::nextEventCycle(Cycle now) const
{
    if (packetsInFlight_ == 0 && confirmations_.empty()
        && controlBits_.empty())
        return kNoCycle;
    // Phase-array steering inspects lane heads every cycle (the
    // re-steer must start the cycle a head becomes eligible, not at
    // the boundary), so the wake cannot be coarsened.
    if (config_.phase_array)
        return now + 1;

    // Both event lists are appended with due = clock + a fixed delay
    // and compacted in order, so each is sorted by due cycle.
    Cycle next = kNoCycle;
    if (!confirmations_.empty())
        next = confirmations_.front().due;
    if (!controlBits_.empty())
        next = std::min(next, controlBits_.front().due);

    // Slot machinery (resolve + start) only runs on a class's slot
    // boundary; between boundaries a tick is a no-op for that class.
    // Any lane content pins the wake to the class's next boundary —
    // conservative for packets still backing off or held by request
    // spacing, which is allowed (early wakes are harmless).
    for (int c = 0; c < 2; ++c) {
        const Cycle slot = static_cast<Cycle>(slotCyclesCached_[c]);
        if (!inflight_[c].empty() || anyBusy(c)) {
            // The cached boundary is the first one after now when it
            // lies within a slot of it.
            const Cycle cached = nextBoundary_[c];
            const Cycle boundary = cached > now && cached - now <= slot
                ? cached
                : (now / slot + 1) * slot;
            if (boundary < next)
                next = boundary;
        }
    }
    if (next == kNoCycle || next <= now)
        return now + 1;
    return next;
}

/** Drop stale request-spacing reservations. */
void
FsoiNetwork::expireReservations(Cycle now)
{
    if (!config_.request_spacing || reservationLog_.empty())
        return;
    // slot < now / data_slot, without the division.
    const Cycle data_slot = slotCycles(PacketClass::Data);
    while (!reservationLog_.empty()
           && (reservationLog_.front().slot + 1) * data_slot <= now)
        reservationLog_.pop_front();
}

void
FsoiNetwork::saveState(snapshot::Writer &w) const
{
    using namespace snapshot;
    using noc::savePacket;
    Network::saveState(w);
    saveCounter(w, activity_.vcsel_slot_cycles);
    saveCounter(w, activity_.bits_transmitted);
    saveCounter(w, activity_.confirmations);
    saveCounter(w, activity_.control_bits);
    saveCounter(w, activity_.phase_setups);
    saveRng(w, rng_);

    w.u64(lanes_.size());
    for (const TxLane &ln : lanes_) {
        w.u64(ln.queue.size());
        for (const QueuedPacket &qp : ln.queue) {
            savePacket(w, qp.pkt);
            w.u64(qp.release_at);
        }
        w.u64(ln.retries.size());
        for (const RetryEntry &re : ln.retries) {
            savePacket(w, re.pkt);
            w.u64(re.retry_at);
        }
        w.u32(ln.beam_target);
        w.u64(ln.setup_ready);
    }
    for (const auto &fl : inflight_) {
        w.u64(fl.size());
        for (const Transmission &tx : fl) {
            savePacket(w, tx.pkt);
            w.i32(tx.rx);
        }
    }
    w.u64(confirmations_.size());
    for (const ConfirmEvent &ev : confirmations_) {
        w.u64(ev.due);
        w.boolean(ev.success);
        w.boolean(ev.hinted_winner);
        savePacket(w, ev.pkt);
    }
    w.u64(controlBits_.size());
    for (const ControlBitEvent &ev : controlBits_) {
        w.u64(ev.due);
        w.u32(ev.src);
        w.u32(ev.dst);
        w.u64(ev.tag);
    }
    w.u64(reservationLog_.size());
    for (const ReservationEntry &re : reservationLog_) {
        w.u64(re.slot);
        w.u64(re.key);
    }
    saveCounter(w, slotsElapsed_[0]);
    saveCounter(w, slotsElapsed_[1]);
    for (const auto &per_node : txSlots_) {
        w.u64(per_node.size());
        for (const Counter &c : per_node)
            saveCounter(w, c);
    }
    for (const Counter &c : dataCollisionEvents_)
        saveCounter(w, c);
    saveAccumulator(w, dataResolution_);
    w.u64(packetsInFlight_);
}

void
FsoiNetwork::loadState(snapshot::Reader &r)
{
    using namespace snapshot;
    using noc::loadPacket;
    Network::loadState(r);
    loadCounter(r, activity_.vcsel_slot_cycles);
    loadCounter(r, activity_.bits_transmitted);
    loadCounter(r, activity_.confirmations);
    loadCounter(r, activity_.control_bits);
    loadCounter(r, activity_.phase_setups);
    loadRng(r, rng_);

    const std::uint64_t num_lanes = r.u64();
    FSOI_ASSERT(num_lanes == lanes_.size(),
                "fsoi endpoint count mismatch on restore");
    for (auto &busy : busyLanes_)
        std::fill(busy.begin(), busy.end(), 0);
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        TxLane &ln = lanes_[i];
        ln.queue.clear();
        const std::uint64_t nq = r.count(noc::kSavedPacketBytes + 8);
        for (std::uint64_t i = 0; i < nq; ++i) {
            QueuedPacket qp;
            qp.pkt = loadPacket(r);
            qp.release_at = r.u64();
            ln.queue.push_back(std::move(qp));
        }
        ln.retries.resize(r.count(noc::kSavedPacketBytes + 8));
        for (RetryEntry &re : ln.retries) {
            re.pkt = loadPacket(r);
            re.retry_at = r.u64();
        }
        ln.beam_target = r.u32();
        ln.setup_ready = r.u64();
        if (!ln.queue.empty() || !ln.retries.empty())
            markBusy(static_cast<NodeId>(i / 2),
                     static_cast<PacketClass>(i % 2));
    }
    for (auto &fl : inflight_) {
        fl.resize(r.count(noc::kSavedPacketBytes + 4));
        for (Transmission &tx : fl) {
            tx.pkt = loadPacket(r);
            tx.rx = r.i32();
        }
    }
    confirmations_.resize(r.count(10 + noc::kSavedPacketBytes));
    for (ConfirmEvent &ev : confirmations_) {
        ev.due = r.u64();
        ev.success = r.boolean();
        ev.hinted_winner = r.boolean();
        ev.pkt = loadPacket(r);
    }
    controlBits_.resize(r.count(24));
    for (ControlBitEvent &ev : controlBits_) {
        ev.due = r.u64();
        ev.src = r.u32();
        ev.dst = r.u32();
        ev.tag = r.u64();
    }
    reservationLog_.clear();
    const std::uint64_t num_res = r.count(16);
    for (std::uint64_t i = 0; i < num_res; ++i) {
        ReservationEntry re;
        re.slot = r.u64();
        re.key = r.u64();
        reservationLog_.push_back(re);
    }
    loadCounter(r, slotsElapsed_[0]);
    loadCounter(r, slotsElapsed_[1]);
    for (auto &per_node : txSlots_) {
        const std::uint64_t n = r.u64();
        FSOI_ASSERT(n == per_node.size(),
                    "fsoi node count mismatch on restore");
        for (Counter &c : per_node)
            loadCounter(r, c);
    }
    for (Counter &c : dataCollisionEvents_)
        loadCounter(r, c);
    loadAccumulator(r, dataResolution_);
    packetsInFlight_ = r.u64();
}

bool
FsoiNetwork::idle() const
{
    return packetsInFlight_ == 0 && confirmations_.empty()
        && controlBits_.empty() && !anyBusy(0) && !anyBusy(1)
        && inflight_[0].empty() && inflight_[1].empty();
}

} // namespace fsoi::fsoi
