#include "coherence/l1_cache.hh"
#include <cstdio>
#include <cstdlib>

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"
#include "coherence/message_io.hh"
#include "obs/flight_recorder.hh"
#include "snapshot/state_io.hh"

namespace fsoi::coherence {

const char *
l1StateName(L1State state)
{
    switch (state) {
      case L1State::I: return "I";
      case L1State::S: return "S";
      case L1State::E: return "E";
      case L1State::M: return "M";
    }
    return "?";
}

L1Cache::L1Cache(NodeId node, const L1Config &config, Transport &transport,
                 FunctionalMemory &memory,
                 std::function<NodeId(Addr)> home_of)
    : node_(node), config_(config), transport_(transport), memory_(memory),
      homeOf_(std::move(home_of)), array_(config.geometry)
{
    FSOI_ASSERT(config_.num_mshrs >= 1 && config_.store_buffer >= 1);
    mshrs_.reset(config_.num_mshrs);
}

const char *
L1Cache::wantName(std::uint8_t want)
{
    switch (static_cast<Mshr::Want>(want)) {
      case Mshr::Want::Shared: return "Shared";
      case Mshr::Want::Exclusive: return "Exclusive";
      case Mshr::Want::Upgrade: return "Upgrade";
    }
    return "?";
}

L1State
L1Cache::lineState(Addr addr) const
{
    const auto *line = array_.peek(addr);
    return line ? line->meta.state : L1State::I;
}

void
L1Cache::registerStats(const obs::Scope &scope) const
{
    scope.counter("loads", stats_.loads);
    scope.counter("stores", stats_.stores);
    scope.counter("load_hits", stats_.load_hits);
    scope.counter("store_hits", stats_.store_hits);
    scope.counter("misses", stats_.misses);
    scope.counter("upgrades", stats_.upgrades);
    scope.counter("writebacks", stats_.writebacks);
    scope.counter("invalidations_received",
                  stats_.invalidations_received);
    scope.counter("downgrades_received", stats_.downgrades_received);
    scope.counter("nacks", stats_.nacks);
    scope.counter("sc_failures", stats_.sc_failures);
    scope.counter("accesses", stats_.l1_accesses);
    scope.histogram("miss_latency", stats_.miss_latency);
    scope.derived("miss_rate", [this] {
        const auto accesses =
            stats_.loads.value() + stats_.stores.value();
        return accesses
            ? static_cast<double>(stats_.misses.value()) / accesses
            : 0.0;
    });
}

void
L1Cache::queueSend(NodeId dst, const Message &msg)
{
    outbox_.push_back(OutMsg{dst, msg});
}

void
L1Cache::scheduleDone(Cycle due, Callback cb, std::uint64_t value,
                      bool success)
{
    pendingDone_.push_back(PendingDone{due, std::move(cb), value, success});
}

void
L1Cache::clearLinkIfCovers(Addr line)
{
    if (linkValid_ && linkLine_ == line)
        linkValid_ = false;
}

void
L1Cache::issueRequest(Addr line, Mshr &mshr)
{
    Message msg{};
    msg.line = line;
    msg.requester = node_;
    switch (mshr.want) {
      case Mshr::Want::Shared:
        msg.type = MsgType::ReqSh;
        break;
      case Mshr::Want::Exclusive:
        msg.type = MsgType::ReqEx;
        break;
      case Mshr::Want::Upgrade:
        msg.type = MsgType::ReqUpg;
        break;
    }
    queueSend(homeOf_(line), msg);
    mshr.request_outstanding = true;
    mshr.retry_at = kNoCycle;
    if (mshr.created == 0) {
        mshr.created = now_;
        if (flightRec_ && flightRec_->enabled()) {
            flightRec_->beginTransaction(
                obs::FlightEventKind::MshrAlloc, now_, node_, line,
                static_cast<std::uint8_t>(mshr.want));
        }
    }
}

bool
L1Cache::load(Addr addr, Callback cb)
{
    const Addr line = array_.lineAddr(addr);

    // Store-buffer forwarding (youngest matching entry wins).
    for (std::size_t i = storeBuffer_.size(); i-- > 0;) {
        if (const StoreEntry &entry = storeBuffer_[i]; entry.addr == addr) {
            stats_.loads++;
            stats_.l1_accesses++;
            stats_.load_hits++;
            scheduleDone(now_ + config_.hit_latency, std::move(cb),
                         entry.value, true);
            return true;
        }
    }

    if (auto *ln = array_.find(addr); ln && ln->meta.state != L1State::I) {
        stats_.loads++;
        stats_.l1_accesses++;
        stats_.load_hits++;
        scheduleDone(now_ + config_.hit_latency, std::move(cb),
                     memory_.read(addr), true);
        return true;
    }

    if (const int idx = mshrs_.find(line); idx >= 0) {
        stats_.loads++;
        stats_.l1_accesses++;
        mshrs_.at(idx).loads.emplace_back(addr, std::move(cb));
        return true;
    }

    if (mshrs_.full())
        return false;

    stats_.loads++;
    stats_.l1_accesses++;
    stats_.misses++;
    Mshr &mshr = mshrs_.at(mshrs_.alloc(line));
    mshr.want = Mshr::Want::Shared;
    mshr.loads.emplace_back(addr, std::move(cb));
    issueRequest(line, mshr);
    return true;
}

bool
L1Cache::loadLinked(Addr addr, Callback cb)
{
    const Addr line = array_.lineAddr(addr);

    if (auto *ln = array_.find(addr); ln && ln->meta.state != L1State::I) {
        stats_.loads++;
        stats_.l1_accesses++;
        stats_.load_hits++;
        linkValid_ = true;
        linkLine_ = line;
        scheduleDone(now_ + config_.hit_latency, std::move(cb),
                     memory_.read(addr), true);
        return true;
    }

    if (const int idx = mshrs_.find(line); idx >= 0) {
        stats_.loads++;
        stats_.l1_accesses++;
        Mshr &mshr = mshrs_.at(idx);
        mshr.is_ll = true;
        mshr.loads.emplace_back(addr, std::move(cb));
        return true;
    }
    if (mshrs_.full())
        return false;

    stats_.loads++;
    stats_.l1_accesses++;
    stats_.misses++;
    Mshr &mshr = mshrs_.at(mshrs_.alloc(line));
    mshr.want = Mshr::Want::Shared;
    mshr.is_ll = true;
    mshr.loads.emplace_back(addr, std::move(cb));
    issueRequest(line, mshr);
    return true;
}

bool
L1Cache::store(Addr addr, std::uint64_t value)
{
    if (storeBuffer_.size() >= static_cast<std::size_t>(config_.store_buffer))
        return false;
    stats_.stores++;
    storeBuffer_.push_back(StoreEntry{addr, value});
    return true;
}

bool
L1Cache::storeConditional(Addr addr, std::uint64_t value, Callback cb)
{
    const Addr line = array_.lineAddr(addr);
    stats_.l1_accesses++;

    if (!linkValid_ || linkLine_ != line) {
        stats_.sc_failures++;
        scheduleDone(now_ + 1, std::move(cb), 0, false);
        return true;
    }

    auto *ln = array_.find(addr);
    if (ln && (ln->meta.state == L1State::M
               || ln->meta.state == L1State::E)) {
        ln->meta.state = L1State::M;
        memory_.write(addr, value);
        stats_.store_hits++;
        scheduleDone(now_ + config_.hit_latency, std::move(cb), value, true);
        return true;
    }
    if (ln && ln->meta.state == L1State::S) {
        const int idx = mshrs_.find(line);
        if (idx < 0) {
            if (mshrs_.full())
                return false;
            Mshr &mshr = mshrs_.at(mshrs_.alloc(line));
            mshr.want = Mshr::Want::Upgrade;
            stats_.upgrades++;
            mshr.is_sc = true;
            mshr.sc_addr = addr;
            mshr.sc_value = value;
            mshr.sc_cb = std::move(cb);
            issueRequest(line, mshr);
        } else {
            Mshr &mshr = mshrs_.at(idx);
            mshr.is_sc = true;
            mshr.sc_addr = addr;
            mshr.sc_value = value;
            mshr.sc_cb = std::move(cb);
        }
        return true;
    }
    // Link register valid but line not readable: treat as failure.
    stats_.sc_failures++;
    linkValid_ = false;
    scheduleDone(now_ + 1, std::move(cb), 0, false);
    return true;
}

L1Cache::Line *
L1Cache::makeRoom(Addr line)
{
    Line *slot = array_.victimIf(line, [this](const Line &candidate) {
        return !lineBusy(candidate.tag);
    });
    if (!slot)
        return nullptr;
    if (slot->valid) {
        if (slot->meta.state == L1State::M) {
            Message wb{};
            wb.type = MsgType::WriteBack;
            wb.line = slot->tag;
            wb.requester = node_;
            queueSend(homeOf_(slot->tag), wb);
            stats_.writebacks++;
        }
        clearLinkIfCovers(slot->tag);
        array_.invalidate(slot);
    }
    return slot;
}

void
L1Cache::performStoreHead()
{
    FSOI_ASSERT(!storeBuffer_.empty());
    const StoreEntry entry = storeBuffer_.front();
    storeBuffer_.pop_front();
    memory_.write(entry.addr, entry.value);
    stats_.store_hits++;
}

void
L1Cache::finishMshr(Addr line, L1State granted)
{
    const int idx = mshrs_.find(line);
    FSOI_ASSERT(idx >= 0);
    // Completed in place and released at the end (nothing below looks
    // the line up), so the slot keeps its loads buffer.
    Mshr &mshr = mshrs_.at(idx);
    stats_.miss_latency.add(static_cast<double>(now_ - mshr.created));
    if (flightRec_ && flightRec_->enabled()) {
        flightRec_->endTransaction(
            obs::FlightEventKind::MshrFree, now_, node_, line,
            static_cast<std::uint8_t>(granted));
    }

    auto *ln = array_.find(line);
    FSOI_ASSERT(ln && ln->valid);
    ln->meta.state = granted;

    const bool writable =
        granted == L1State::E || granted == L1State::M;

    if (mshr.is_ll) {
        linkValid_ = true;
        linkLine_ = line;
    }

    if (mshr.store_pending && writable) {
        // The store-buffer head triggered this miss; complete it now.
        if (!storeBuffer_.empty()
            && array_.lineAddr(storeBuffer_.front().addr) == line) {
            performStoreHead();
            ln->meta.state = L1State::M;
        }
    }

    if (mshr.is_sc) {
        if (writable && linkValid_ && linkLine_ == line) {
            memory_.write(mshr.sc_addr, mshr.sc_value);
            ln->meta.state = L1State::M;
            scheduleDone(now_ + 1, std::move(mshr.sc_cb), mshr.sc_value,
                         true);
        } else {
            stats_.sc_failures++;
            scheduleDone(now_ + 1, std::move(mshr.sc_cb), 0, false);
        }
    }

    for (auto &[addr, cb] : mshr.loads)
        scheduleDone(now_ + 1, std::move(cb), memory_.read(addr), true);

    if (mshr.inv_pending) {
        // Read-once: the invalidation was acknowledged when it
        // arrived; the data has now been consumed exactly once, so
        // drop the line before it can become visibly stale.
        clearLinkIfCovers(line);
        array_.invalidate(ln);
    } else if (mshr.dwg_pending) {
        // Downgrade was acknowledged clean on arrival; demote the
        // freshly granted copy.
        ln->meta.state = L1State::S;
    }
    mshrs_.release(idx);
}

void
L1Cache::handleData(const Message &msg, L1State granted)
{
    const Addr line = msg.line;
    const int idx = mshrs_.find(line);
    FSOI_ASSERT(idx >= 0,
                "node %u: data for line %llx without MSHR", node_,
                static_cast<unsigned long long>(line));
    mshrs_.at(idx).request_outstanding = false;

    if (!array_.peek(line)) {
        Line *slot = makeRoom(line);
        if (!slot) {
            // Every way of the set is pinned by an in-flight upgrade;
            // retry the install next cycle.
            deferredData_.push_back(msg);
            return;
        }
        array_.install(slot, line, LineMeta{granted});
    }
    finishMshr(line, granted);
}

void
L1Cache::handleExcAck(const Message &msg)
{
    const Addr line = msg.line;
    const int idx = mshrs_.find(line);
    FSOI_ASSERT(idx >= 0);
    mshrs_.at(idx).request_outstanding = false;
    if (!array_.peek(line)) {
        // Race: our S copy was consumed read-once (an invalidation
        // overtook a regrant) after the directory classified this as
        // an upgrade. The directory now counts us as the owner, so a
        // full Req(Ex) fetches the current L2 copy as DataM (the
        // directory's owner-lost-its-copy path).
        Mshr &mshr = mshrs_.at(idx);
        mshr.want = Mshr::Want::Exclusive;
        mshr.inv_pending = false;
        issueRequest(line, mshr);
        return;
    }
    finishMshr(line, L1State::M);
}

void
L1Cache::handleInv(const Message &msg)
{
    const Addr line = msg.line;
    stats_.invalidations_received++;

    const int idx = mshrs_.find(line);
    auto *ln = array_.find(line);
    FSOI_TRACE_POINT(TraceCat::Coherence, 2, "inv", now_, node_,
                     {"line", line},
                     {"mshr", idx >= 0 ? 1u : 0u},
                     {"state",
                      ln ? static_cast<std::uint64_t>(ln->meta.state) + 1
                         : 0});

    Message ack{};
    ack.line = line;
    ack.requester = node_;
    ack.version = msg.version;

    if (idx >= 0) {
        Mshr &mshr = mshrs_.at(idx);
        if (ln && ln->meta.state == L1State::S
            && mshr.want == Mshr::Want::Upgrade) {
            // Table 2: S.MA + Inv -> InvAck / I.MD. The directory
            // reinterprets our queued upgrade as a full Req(Ex).
            clearLinkIfCovers(line);
            array_.invalidate(ln);
            mshr.want = Mshr::Want::Exclusive;
            if (!config_.confirmation_acks || msg.explicit_ack) {
                ack.type = MsgType::InvAck;
                queueSend(homeOf_(line), ack);
            }
            return;
        }
        // I.SD / I.MD (Table 2): acknowledge immediately -- the
        // request may be parked behind a directory transaction, so the
        // directory must not wait on us. If a data grant is already in
        // flight it will be consumed exactly once and dropped
        // (read-once), so no stale copy ever becomes visible.
        mshr.inv_pending = true;
        clearLinkIfCovers(line);
        if (!config_.confirmation_acks || msg.explicit_ack) {
            ack.type = MsgType::InvAck;
            queueSend(homeOf_(line), ack);
        }
        return;
    }

    if (ln) {
        const L1State state = ln->meta.state;
        clearLinkIfCovers(line);
        array_.invalidate(ln);
        if (state == L1State::M) {
            ack.type = MsgType::InvAckData;
            queueSend(homeOf_(line), ack);
        } else if (state == L1State::E) {
            ack.type = MsgType::InvAck;
            queueSend(homeOf_(line), ack);
        } else if (!config_.confirmation_acks || msg.explicit_ack) {
            ack.type = MsgType::InvAck;
            queueSend(homeOf_(line), ack);
        }
        return;
    }

    // Stale invalidation for a line we no longer hold (Table 2:
    // I + Inv -> InvAck / I).
    if (!config_.confirmation_acks || msg.explicit_ack) {
        ack.type = MsgType::InvAck;
        FSOI_TRACE_POINT(TraceCat::Coherence, 3, "stale_ack", now_,
                         node_, {"line", line}, {"home", homeOf_(line)});
        queueSend(homeOf_(line), ack);
    }
}

void
L1Cache::handleDwg(const Message &msg)
{
    const Addr line = msg.line;
    stats_.downgrades_received++;
    if (traceEnabled(TraceCat::Coherence, 2)) {
        const auto *lnp = array_.peek(line);
        tracer().instant(TraceCat::Coherence, "dwg", now_, node_,
                         {{"line", line},
                          {"mshr", mshrs_.find(line) >= 0 ? 1u : 0u},
                          {"state",
                           lnp ? static_cast<std::uint64_t>(
                                     lnp->meta.state) + 1
                               : 0}});
    }

    Message ack{};
    ack.line = line;
    ack.requester = node_;
    ack.version = msg.version;

    if (const int idx = mshrs_.find(line); idx >= 0) {
        auto *ln = array_.find(line);
        if (!ln) {
            // As with Inv: acknowledge immediately (clean; the L2 copy
            // is current) and downgrade the eventual grant on arrival.
            mshrs_.at(idx).dwg_pending = true;
            ack.type = MsgType::DwgAck;
            queueSend(homeOf_(line), ack);
            return;
        }
        // Upgrade in flight on a present S line: stale downgrade.
        ack.type = MsgType::DwgAck;
        queueSend(homeOf_(line), ack);
        return;
    }

    if (auto *ln = array_.find(line); ln) {
        if (ln->meta.state == L1State::M) {
            ack.type = MsgType::DwgAckData;
            ln->meta.state = L1State::S;
        } else {
            ack.type = MsgType::DwgAck;
            if (ln->meta.state == L1State::E)
                ln->meta.state = L1State::S;
        }
        queueSend(homeOf_(line), ack);
        return;
    }

    ack.type = MsgType::DwgAck;
    queueSend(homeOf_(line), ack);
}

void
L1Cache::handleNack(const Message &msg)
{
    const int idx = mshrs_.find(msg.line);
    if (idx < 0)
        return; // satisfied through another path meanwhile
    stats_.nacks++;
    Mshr &mshr = mshrs_.at(idx);
    mshr.request_outstanding = false;
    mshr.retry_at = now_ + config_.nack_retry_delay;
}

void
L1Cache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::DataS:
        handleData(msg, L1State::S);
        break;
      case MsgType::DataE:
        handleData(msg, L1State::E);
        break;
      case MsgType::DataM:
        handleData(msg, L1State::M);
        break;
      case MsgType::ExcAck:
        handleExcAck(msg);
        break;
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::Dwg:
        handleDwg(msg);
        break;
      case MsgType::Nack:
        handleNack(msg);
        break;
      default:
        panic("L1 %u: unexpected message %s", node_,
              msgTypeName(msg.type));
    }
}

void
L1Cache::drainStoreBuffer()
{
    if (storeBuffer_.empty())
        return;
    const StoreEntry &head = storeBuffer_.front();
    const Addr line = array_.lineAddr(head.addr);

    if (const int idx = mshrs_.find(line); idx >= 0) {
        mshrs_.at(idx).store_pending = true;
        return;
    }

    auto *ln = array_.find(head.addr);
    if (ln && ln->meta.state == L1State::M) {
        performStoreHead();
        return;
    }
    if (ln && ln->meta.state == L1State::E) {
        ln->meta.state = L1State::M;
        performStoreHead();
        return;
    }
    if (mshrs_.full())
        return;
    stats_.l1_accesses++;
    Mshr &mshr = mshrs_.at(mshrs_.alloc(line));
    if (ln && ln->meta.state == L1State::S) {
        mshr.want = Mshr::Want::Upgrade;
        stats_.upgrades++;
    } else {
        mshr.want = Mshr::Want::Exclusive;
        stats_.misses++;
    }
    mshr.store_pending = true;
    issueRequest(line, mshr);
}

void
L1Cache::tick(Cycle now)
{
    now_ = now;

    // Fire completed operations.
    {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < pendingDone_.size(); ++i) {
            auto &done = pendingDone_[i];
            if (done.due <= now)
                done.cb(done.value, done.success);
            else
                pendingDone_[keep++] = std::move(done);
        }
        pendingDone_.resize(keep);
    }

    // Retry deferred fills.
    if (!deferredData_.empty()) {
        dataRetry_.swap(deferredData_);
        for (const auto &msg : dataRetry_) {
            const L1State granted = msg.type == MsgType::DataS
                ? L1State::S
                : msg.type == MsgType::DataE ? L1State::E : L1State::M;
            handleData(msg, granted);
        }
        dataRetry_.clear();
    }

    // Drain the outbox into the transport.
    while (!outbox_.empty()
           && transport_.trySend(node_, outbox_.front().dst,
                                 outbox_.front().msg)) {
        outbox_.pop_front();
    }

    // NACK retries. Issue in line-address order, not slot order: the
    // outbox order of same-cycle retries is observable downstream, and
    // slot assignment depends on allocation history (a restored table,
    // rebuilt by sorted insertion, would otherwise iterate differently
    // than the uninterrupted run's).
    {
        retryScratch_.clear();
        for (int i = 0; i < mshrs_.capacity(); ++i) {
            if (mshrs_.lineAt(i) == MshrTable::kFreeLine)
                continue;
            const Mshr &mshr = mshrs_.at(i);
            if (mshr.retry_at != kNoCycle && mshr.retry_at <= now
                && !mshr.request_outstanding) {
                retryScratch_.push_back(mshrs_.lineAt(i));
            }
        }
        if (!retryScratch_.empty()) {
            std::sort(retryScratch_.begin(), retryScratch_.end());
            for (const Addr line : retryScratch_)
                issueRequest(line, mshrs_.at(mshrs_.find(line)));
        }
    }

    drainStoreBuffer();
}

void
L1Cache::saveState(snapshot::Writer &w) const
{
    using namespace snapshot;

    const auto &lines = array_.rawLines();
    w.u64(lines.size());
    for (const auto &line : lines) {
        w.u64(line.tag);
        w.boolean(line.valid);
        w.u64(line.lru);
        w.u8(static_cast<std::uint8_t>(line.meta.state));
    }
    w.u64(array_.rawLruClock());

    std::vector<Addr> order;
    order.reserve(mshrs_.size());
    for (int i = 0; i < mshrs_.capacity(); ++i)
        if (mshrs_.lineAt(i) != MshrTable::kFreeLine)
            order.push_back(mshrs_.lineAt(i));
    std::sort(order.begin(), order.end());
    w.u64(order.size());
    for (const Addr line : order) {
        const Mshr &mshr = mshrs_.at(mshrs_.find(line));
        w.u64(line);
        w.u8(static_cast<std::uint8_t>(mshr.want));
        w.u64(mshr.loads.size());
        for (const auto &[addr, cb] : mshr.loads)
            w.u64(addr);
        w.boolean(mshr.store_pending);
        w.boolean(mshr.is_ll);
        w.boolean(mshr.is_sc);
        w.u64(mshr.sc_addr);
        w.u64(mshr.sc_value);
        w.boolean(mshr.inv_pending);
        w.boolean(mshr.dwg_pending);
        w.u64(mshr.retry_at);
        w.boolean(mshr.request_outstanding);
        w.u64(mshr.created);
    }

    w.u64(storeBuffer_.size());
    for (const StoreEntry &entry : storeBuffer_) {
        w.u64(entry.addr);
        w.u64(entry.value);
    }
    w.u64(outbox_.size());
    for (const OutMsg &out : outbox_) {
        w.u32(out.dst);
        saveMessage(w, out.msg);
    }
    w.u64(deferredData_.size());
    for (const Message &msg : deferredData_)
        saveMessage(w, msg);
    w.u64(pendingDone_.size());
    for (const PendingDone &done : pendingDone_) {
        w.u64(done.due);
        w.u64(done.value);
        w.boolean(done.success);
    }

    w.u64(linkLine_);
    w.boolean(linkValid_);
    w.u64(now_);

    saveCounter(w, stats_.loads);
    saveCounter(w, stats_.stores);
    saveCounter(w, stats_.load_hits);
    saveCounter(w, stats_.store_hits);
    saveCounter(w, stats_.misses);
    saveCounter(w, stats_.upgrades);
    saveCounter(w, stats_.writebacks);
    saveCounter(w, stats_.invalidations_received);
    saveCounter(w, stats_.downgrades_received);
    saveCounter(w, stats_.nacks);
    saveCounter(w, stats_.sc_failures);
    saveCounter(w, stats_.l1_accesses);
    saveHistogram(w, stats_.miss_latency);
}

void
L1Cache::loadState(snapshot::Reader &r, const Callback &core_cb)
{
    using namespace snapshot;

    std::vector<CacheArray<LineMeta>::Line> lines(r.count(18));
    for (auto &line : lines) {
        line.tag = r.u64();
        line.valid = r.boolean();
        line.lru = r.u64();
        line.meta.state = static_cast<L1State>(r.u8());
    }
    const std::uint64_t lru_clock = r.u64();
    array_.rawRestore(std::move(lines), lru_clock);

    mshrs_.reset(config_.num_mshrs);
    const std::uint64_t num_mshrs = r.u64();
    for (std::uint64_t i = 0; i < num_mshrs; ++i) {
        const Addr line = r.u64();
        Mshr &mshr = mshrs_.at(mshrs_.alloc(line));
        mshr.want = static_cast<Mshr::Want>(r.u8());
        const std::uint64_t num_loads = r.u64();
        for (std::uint64_t j = 0; j < num_loads; ++j)
            mshr.loads.emplace_back(r.u64(), core_cb);
        mshr.store_pending = r.boolean();
        mshr.is_ll = r.boolean();
        mshr.is_sc = r.boolean();
        mshr.sc_addr = r.u64();
        mshr.sc_value = r.u64();
        if (mshr.is_sc)
            mshr.sc_cb = core_cb;
        mshr.inv_pending = r.boolean();
        mshr.dwg_pending = r.boolean();
        mshr.retry_at = r.u64();
        mshr.request_outstanding = r.boolean();
        mshr.created = r.u64();
    }

    storeBuffer_.clear();
    const std::uint64_t num_stores = r.u64();
    for (std::uint64_t i = 0; i < num_stores; ++i) {
        StoreEntry entry;
        entry.addr = r.u64();
        entry.value = r.u64();
        storeBuffer_.push_back(entry);
    }
    outbox_.clear();
    const std::uint64_t num_out = r.u64();
    for (std::uint64_t i = 0; i < num_out; ++i) {
        OutMsg out;
        out.dst = r.u32();
        out.msg = loadMessage(r);
        outbox_.push_back(out);
    }
    deferredData_.resize(r.count(kSavedMessageBytes));
    for (Message &msg : deferredData_)
        msg = loadMessage(r);
    pendingDone_.clear();
    const std::uint64_t num_done = r.u64();
    for (std::uint64_t i = 0; i < num_done; ++i) {
        PendingDone done;
        done.due = r.u64();
        done.value = r.u64();
        done.success = r.boolean();
        done.cb = core_cb;
        pendingDone_.push_back(std::move(done));
    }

    linkLine_ = r.u64();
    linkValid_ = r.boolean();
    now_ = r.u64();

    loadCounter(r, stats_.loads);
    loadCounter(r, stats_.stores);
    loadCounter(r, stats_.load_hits);
    loadCounter(r, stats_.store_hits);
    loadCounter(r, stats_.misses);
    loadCounter(r, stats_.upgrades);
    loadCounter(r, stats_.writebacks);
    loadCounter(r, stats_.invalidations_received);
    loadCounter(r, stats_.downgrades_received);
    loadCounter(r, stats_.nacks);
    loadCounter(r, stats_.sc_failures);
    loadCounter(r, stats_.l1_accesses);
    loadHistogram(r, stats_.miss_latency);
}

Cycle
L1Cache::nextEventCycle(Cycle now) const
{
    // Deferred installs and queued sends retry every cycle.
    if (!deferredData_.empty() || !outbox_.empty())
        return now + 1;

    Cycle next = kNoCycle;
    for (const PendingDone &done : pendingDone_)
        next = std::min(next, std::max(done.due, now + 1));

    for (int i = 0; i < mshrs_.capacity(); ++i) {
        if (mshrs_.lineAt(i) == MshrTable::kFreeLine)
            continue;
        const Mshr &mshr = mshrs_.at(i);
        if (mshr.retry_at != kNoCycle && !mshr.request_outstanding)
            next = std::min(next, std::max(mshr.retry_at, now + 1));
    }

    if (!storeBuffer_.empty()) {
        // The drain makes tick-driven progress (one head per cycle)
        // except in two delivery-driven waits: the head's miss is in
        // flight and already flagged store_pending (finishMshr or the
        // post-completion drain performs it on the delivery cycle), or
        // every MSHR is taken (the drain unblocks the cycle an MSHR
        // frees, which only happens on a delivery to this L1). A head
        // whose MSHR is not yet flagged must still get one tick so the
        // flag is set before the grant lands.
        const Addr line = array_.lineAddr(storeBuffer_.front().addr);
        const int idx = mshrs_.find(line);
        const bool parked =
            idx >= 0 ? mshrs_.at(idx).store_pending : mshrs_.full();
        if (!parked)
            next = std::min(next, now + 1);
    }
    return next;
}

bool
L1Cache::quiescent() const
{
    return mshrs_.empty() && storeBuffer_.empty() && outbox_.empty()
        && pendingDone_.empty() && deferredData_.empty();
}

} // namespace fsoi::coherence

namespace fsoi::coherence {

void
L1Cache::debugDump() const
{
    std::fprintf(stderr, "L1[%u]: %zu mshrs, %zu stores, %zu outbox, "
                 "%zu pendingDone, %zu deferred\n",
                 node_, mshrs_.size(), storeBuffer_.size(), outbox_.size(),
                 pendingDone_.size(), deferredData_.size());
    for (int i = 0; i < mshrs_.capacity(); ++i) {
        if (mshrs_.lineAt(i) == MshrTable::kFreeLine)
            continue;
        const Addr line = mshrs_.lineAt(i);
        const Mshr &mshr = mshrs_.at(i);
        std::fprintf(stderr,
                     "  mshr line=%llx want=%d outstanding=%d retry_at=%llu"
                     " inv_pend=%d dwg_pend=%d store_pend=%d sc=%d "
                     "loads=%zu\n",
                     (unsigned long long)line, (int)mshr.want,
                     (int)mshr.request_outstanding,
                     (unsigned long long)mshr.retry_at,
                     (int)mshr.inv_pending, (int)mshr.dwg_pending,
                     (int)mshr.store_pending, (int)mshr.is_sc,
                     mshr.loads.size());
    }
}

} // namespace fsoi::coherence
