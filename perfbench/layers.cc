#include "layers.hh"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <queue>
#include <random>

#include "coherence/directory.hh"
#include "coherence/functional_memory.hh"
#include "coherence/l1_cache.hh"
#include "coherence/transport.hh"
#include "common/logging.hh"
#include "cpu/core.hh"
#include "fsoi/fsoi_network.hh"
#include "memory/memory_controller.hh"
#include "noc/mesh_network.hh"

namespace perfbench {

using fsoi::Addr;
using fsoi::Cycle;
using fsoi::kNoCycle;
using fsoi::NodeId;
using fsoi::coherence::Message;
using fsoi::coherence::MsgType;
namespace sim = fsoi::sim;
namespace noc = fsoi::noc;
namespace workload = fsoi::workload;

Flat
flatten(const fsoi::obs::StatRegistry &registry)
{
    const std::vector<std::string> names = registry.scalarNames();
    std::vector<double> values;
    registry.scalarValues(values);
    Flat flat;
    for (std::size_t i = 0; i < names.size(); ++i)
        flat[names[i]] = values[i];
    return flat;
}

double
sumOf(const Flat &flat, const std::string &prefix,
      const std::string &suffix)
{
    double total = 0.0;
    for (auto it = flat.lower_bound(prefix);
         it != flat.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const std::string &n = it->first;
        if (n.size() >= suffix.size()
            && n.compare(n.size() - suffix.size(), suffix.size(), suffix)
                == 0)
            total += it->second;
    }
    return total;
}

double
valueOf(const Flat &flat, const std::string &name)
{
    const auto it = flat.find(name);
    return it == flat.end() ? 0.0 : it->second;
}

const char *
Spans::name(Id id)
{
    static const char *const names[kNumSpans] = {
        "mesh.send", "mesh.tick", "fsoi.send", "fsoi.tick",
        "core.tick", "workload.next", "l1.access", "l1.tick",
        "l1.handle", "dir.handle", "dir.tick", "mem.handle", "mem.tick",
        "snapshot.save", "snapshot.restore",
    };
    return names[id];
}

double
Spans::clockCostNs()
{
    static const double cost = [] {
        Spans probe(true);
        for (int i = 0; i < 20001; ++i)
            probe.time(MeshSend, [] {});
        return probe.percentileNs(MeshSend, 0.5);
    }();
    return cost;
}

double
Spans::totalNs(Id id) const
{
    const double cost = clockCostNs();
    double total = 0.0;
    for (const std::uint32_t ns : ns_[id])
        total += std::max(0.0, ns - cost);
    return total;
}

double
Spans::percentileNs(Id id, double p) const
{
    if (ns_[id].empty())
        return 0.0;
    std::vector<std::uint32_t> v = ns_[id];
    const std::size_t k = std::min(
        v.size() - 1, static_cast<std::size_t>(p * (v.size() - 1) + 0.5));
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

namespace {

/**
 * The paper configuration of @p kind at the scenario's scale, with
 * the derived fields (FSOI protocol options, L2 indexing, memory
 * bandwidth) filled in the way a System fills them.
 */
sim::SystemConfig
derivedConfig(const sim::SystemConfig &config)
{
    sim::System probe(config);
    return probe.config();
}

BenchRun
unitsFromNetwork(const noc::Network &net, double wall_s)
{
    fsoi::obs::StatRegistry registry;
    net.registerStats(fsoi::obs::Scope(registry, "net"));
    const Flat flat = flatten(registry);
    BenchRun run;
    run.wall_s = wall_s;
    run.units["flit_hops"] =
        valueOf(flat, "net.activity.crossbar_traversals");
    run.units["slots"] = valueOf(flat, "net.slots_elapsed.meta")
        + valueOf(flat, "net.slots_elapsed.data");
    return run;
}

} // namespace

BenchRun
benchNetwork(const Scenario &sc, sim::NetKind kind, double meta_rate,
             double data_rate, std::uint64_t seed, Cycle cycles,
             Spans &spans)
{
    sim::SystemConfig paper =
        sim::SystemConfig::paperConfig(sc.config.num_cores, kind);
    paper.seed = sc.config.seed;
    const sim::SystemConfig cfg = derivedConfig(paper);
    const noc::MeshLayout layout(cfg.num_cores, cfg.num_memctls);
    const bool mesh = kind == sim::NetKind::Mesh;
    std::unique_ptr<noc::Network> net;
    if (mesh) {
        net = std::make_unique<noc::MeshNetwork>(layout, cfg.mesh);
    } else {
        auto optical =
            std::make_unique<fsoi::fsoi::FsoiNetwork>(layout, cfg.fsoi);
        for (int e = 0; e < layout.numEndpoints(); ++e) {
            optical->setConfirmHandler(static_cast<NodeId>(e),
                                       [](const noc::Packet &) {});
            optical->setControlBitHandler(
                static_cast<NodeId>(e), [](NodeId, std::uint64_t) {});
        }
        net = std::move(optical);
    }
    const int endpoints = layout.numEndpoints();
    for (int e = 0; e < endpoints; ++e)
        net->setHandler(static_cast<NodeId>(e), [](noc::Packet &) {});

    const Spans::Id send_id = mesh ? Spans::MeshSend : Spans::FsoiSend;
    const Spans::Id tick_id = mesh ? Spans::MeshTick : Spans::FsoiTick;
    const double p[2] = {std::min(1.0, meta_rate / endpoints),
                         std::min(1.0, data_rate / endpoints)};
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<int> other(0, endpoints - 2);

    Cycle due = 0;
    const Clock::time_point t0 = Clock::now();
    for (Cycle now = 1; now <= cycles; ++now) {
        bool sent = false;
        for (int src = 0; src < endpoints; ++src) {
            for (int c = 0; c < 2; ++c) {
                if (coin(rng) >= p[c])
                    continue;
                int dst = other(rng);
                dst += dst >= src;
                const auto cls = c == 0 ? noc::PacketClass::Meta
                                        : noc::PacketClass::Data;
                if (!net->canAccept(static_cast<NodeId>(src), cls))
                    continue;
                spans.time(send_id, [&] {
                    net->send(noc::makePacket(
                        static_cast<NodeId>(src), static_cast<NodeId>(dst),
                        cls,
                        c == 0 ? noc::PacketKind::Request
                               : noc::PacketKind::Reply));
                });
                sent = true;
            }
        }
        if (sent || due <= now) {
            spans.time(tick_id, [&] { net->tick(now); });
            due = net->nextEventCycle(now);
        }
    }
    return unitsFromNetwork(*net, secondsSince(t0));
}

namespace {

/** Wraps a core's instruction stream to time InstrStream::next. */
class TimedStream : public workload::InstrStream
{
  public:
    TimedStream(std::unique_ptr<workload::InstrStream> inner, Spans &spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    workload::Instr
    next() override
    {
        return spans_.time(Spans::StreamNext,
                           [this] { return inner_->next(); });
    }

  private:
    std::unique_ptr<workload::InstrStream> inner_;
    Spans &spans_;
};

/**
 * Point-to-point transport with a fixed latency per packet class and
 * unbounded queues: the coherence layers run without an interconnect
 * model, so their host cost is measured alone.
 */
class FixedTransport : public fsoi::coherence::Transport
{
  public:
    struct InFlight
    {
        Cycle due;
        std::uint64_t seq;
        NodeId src;
        NodeId dst;
        bool control_bit;
        std::uint64_t tag;
        Message msg;
    };

    FixedTransport(int local, int meta, int data, const Cycle &now)
        : local_(local), meta_(meta), data_(data), now_(now)
    {}

    bool
    trySend(NodeId src, NodeId dst, const Message &msg) override
    {
        const int lat = src == dst ? local_
            : fsoi::coherence::isDataMessage(msg.type) ? data_ : meta_;
        queue_.push(InFlight{now_ + static_cast<Cycle>(lat), seq_++, src,
                             dst, false, 0, msg});
        return true;
    }

    void
    sendControlBit(NodeId src, NodeId dst, std::uint64_t tag)
    {
        queue_.push(InFlight{now_ + static_cast<Cycle>(meta_), seq_++,
                             src, dst, true, tag, Message{}});
    }

    bool empty() const { return queue_.empty(); }
    Cycle nextDue() const
    { return queue_.empty() ? kNoCycle : queue_.top().due; }

    /** Pop every delivery due at or before @p now, in send order. */
    template <class F>
    void
    deliverDue(Cycle now, F &&deliver)
    {
        while (!queue_.empty() && queue_.top().due <= now) {
            const InFlight f = queue_.top();
            queue_.pop();
            deliver(f);
        }
    }

  private:
    struct Later
    {
        bool
        operator()(const InFlight &a, const InFlight &b) const
        {
            return a.due != b.due ? a.due > b.due : a.seq > b.seq;
        }
    };

    int local_;
    int meta_;
    int data_;
    const Cycle &now_;
    std::uint64_t seq_ = 0;
    std::priority_queue<InFlight, std::vector<InFlight>, Later> queue_;
};

bool
routesToDirectory(MsgType type)
{
    switch (type) {
      case MsgType::ReqSh:
      case MsgType::ReqEx:
      case MsgType::ReqUpg:
      case MsgType::SyncLl:
      case MsgType::SyncSc:
      case MsgType::WriteBack:
      case MsgType::InvAck:
      case MsgType::InvAckData:
      case MsgType::DwgAck:
      case MsgType::DwgAckData:
      case MsgType::MemReply:
        return true;
      default:
        return false;
    }
}

/** One benchmark-driven thread issuing loads and stores to its L1. */
struct L1Feeder
{
    std::unique_ptr<workload::InstrStream> stream;
    workload::Instr pending;
    bool has_pending = false;
    bool waiting = false;
    bool done = false;
};

} // namespace

BenchRun
benchTiles(const Scenario &sc, int meta_latency, int data_latency,
           bool drive_l1, Spans &spans)
{
    namespace coh = fsoi::coherence;
    sim::System probe(sc.config);
    const sim::SystemConfig &cfg = probe.config();
    const int cores = cfg.num_cores;
    const int mems = cfg.num_memctls;
    const bool optical = cfg.network == sim::NetKind::Fsoi;
    auto home_of = [&probe](Addr a) { return probe.homeOf(a); };
    auto memctl_of = [&probe](Addr a) { return probe.memctlOf(a); };
    // With drive_l1 only the L1 access calls are timed, so the other
    // layers' spans come from the core-driven run alone.
    auto timed = [&](Spans::Id id, auto &&f) {
        if (drive_l1 && id != Spans::L1Access)
            return f();
        return spans.time(id, f);
    };

    Cycle now = 0;
    FixedTransport transport(cfg.local_hop_latency, meta_latency,
                             data_latency, now);
    coh::FunctionalMemory memory;
    std::vector<std::unique_ptr<coh::L1Cache>> l1s;
    std::vector<std::unique_ptr<coh::Directory>> dirs;
    std::vector<std::unique_ptr<fsoi::cpu::Core>> cpus;
    std::vector<std::unique_ptr<fsoi::memory::MemoryController>> mcs;
    std::vector<L1Feeder> feeders(drive_l1 ? cores : 0);
    std::vector<Cycle> mem_wake(mems, kNoCycle), dir_wake(cores, kNoCycle),
        l1_wake(cores, kNoCycle), core_wake(cores, 0);

    for (int n = 0; n < cores; ++n) {
        const NodeId node = static_cast<NodeId>(n);
        l1s.push_back(std::make_unique<coh::L1Cache>(
            node, cfg.l1, transport, memory, home_of));
        dirs.push_back(std::make_unique<coh::Directory>(
            node, cfg.dir, transport, memory, memctl_of));
        auto stream = workload::makeAppStream(sc.app, n, cores, cfg.seed);
        if (drive_l1) {
            feeders[n].stream = std::move(stream);
            continue;
        }
        cpus.push_back(std::make_unique<fsoi::cpu::Core>(
            node, cfg.core, *l1s.back(), transport, home_of));
        cpus.back()->bind(
            std::make_unique<TimedStream>(std::move(stream), spans));
        cpus.back()->setWakeHook(
            [&core_wake, &now, n] { core_wake[n] = now; });
        if (optical) {
            dirs.back()->setControlBitSender(
                [&transport, node](NodeId dst, std::uint64_t tag) {
                    transport.sendControlBit(node, dst, tag);
                });
        }
    }
    for (int m = 0; m < mems; ++m) {
        mcs.push_back(std::make_unique<fsoi::memory::MemoryController>(
            static_cast<NodeId>(cores + m), cfg.mem, transport));
    }

    auto deliver = [&](const FixedTransport::InFlight &f) {
        const Cycle sync = now ? now - 1 : 0;
        const int dst = static_cast<int>(f.dst);
        if (f.control_bit) {
            if (!drive_l1)
                cpus[dst]->onControlBit(f.tag);
            return;
        }
        if (dst >= cores) {
            mcs[dst - cores]->syncClock(sync);
            timed(Spans::MemHandle,
                  [&] { mcs[dst - cores]->handleMessage(f.msg); });
            mem_wake[dst - cores] = now;
        } else if (routesToDirectory(f.msg.type)) {
            dirs[dst]->syncClock(sync);
            timed(Spans::DirHandle,
                  [&] { dirs[dst]->handleMessage(f.msg); });
            dir_wake[dst] = now;
        } else {
            l1s[dst]->syncClock(sync);
            timed(Spans::L1Handle, [&] { l1s[dst]->handleMessage(f.msg); });
            l1_wake[dst] = now;
        }
        // The optical layer confirms every packet a tile sent back to
        // that tile's directory (confirmation-as-ack, Section 5.1).
        const int src = static_cast<int>(f.src);
        if (optical && src != dst && src < cores) {
            dirs[src]->syncClock(sync);
            timed(Spans::DirHandle, [&] { dirs[src]->onConfirm(f.msg); });
            dir_wake[src] = now;
        }
    };

    auto drive = [&](int n) {
        L1Feeder &d = feeders[n];
        coh::L1Cache &l1 = *l1s[n];
        for (int fetched = 0; fetched < 64 && !d.done && !d.waiting;
             ++fetched) {
            const workload::Instr in =
                d.has_pending ? d.pending : d.stream->next();
            d.has_pending = false;
            if (in.op == workload::Op::End) {
                d.done = true;
            } else if (in.op == workload::Op::Load
                       || in.op == workload::Op::Store) {
                l1.syncClock(now);
                bool ok;
                if (in.op == workload::Op::Load) {
                    d.waiting = true;
                    ok = spans.time(Spans::L1Access, [&] {
                        return l1.load(in.addr, [&d](std::uint64_t, bool) {
                            d.waiting = false;
                        });
                    });
                    if (!ok)
                        d.waiting = false;
                } else {
                    ok = spans.time(Spans::L1Access, [&] {
                        return l1.store(in.addr, in.value);
                    });
                }
                if (!ok) {
                    d.pending = in;
                    d.has_pending = true;
                }
                l1_wake[n] = std::min(l1_wake[n], l1.nextEventCycle(now));
                break;
            }
        }
    };

    auto tickPhase = [&](auto &parts, std::vector<Cycle> &wake,
                         Spans::Id id) {
        for (std::size_t i = 0; i < parts.size(); ++i) {
            if (wake[i] > now)
                continue;
            timed(id, [&] { parts[i]->tick(now); });
            wake[i] = parts[i]->nextEventCycle(now);
        }
    };

    const Clock::time_point t0 = Clock::now();
    for (;;) {
        transport.deliverDue(now, deliver);
        tickPhase(mcs, mem_wake, Spans::MemTick);
        tickPhase(dirs, dir_wake, Spans::DirTick);
        tickPhase(l1s, l1_wake, Spans::L1Tick);

        bool threads_done = true;
        Cycle next = kNoCycle;
        for (int n = 0; n < cores; ++n) {
            if (drive_l1) {
                drive(n);
                const L1Feeder &d = feeders[n];
                threads_done &= d.done;
                if (!d.done && !d.waiting)
                    next = now + 1;
                continue;
            }
            fsoi::cpu::Core &core = *cpus[n];
            if (core.done() || core_wake[n] > now) {
                threads_done &= core.done();
                continue;
            }
            l1s[n]->syncClock(now);
            timed(Spans::CoreTick, [&] { core.tick(now); });
            l1_wake[n] = std::min(l1_wake[n], l1s[n]->nextEventCycle(now));
            core_wake[n] = core.done() ? kNoCycle : core.nextEventCycle(now);
            threads_done &= core.done();
        }

        for (const auto *wakes : {&mem_wake, &dir_wake, &l1_wake,
                                  &core_wake})
            for (const Cycle w : *wakes)
                next = std::min(next, w);
        next = std::min(next, transport.nextDue());
        if (threads_done && transport.empty()) {
            bool quiet = true;
            for (int n = 0; n < cores; ++n)
                quiet &= l1s[n]->quiescent() && dirs[n]->quiescent();
            for (const auto &mc : mcs)
                quiet &= mc->quiescent();
            if (quiet)
                break;
        }
        if (next == kNoCycle || now > cfg.max_cycles)
            fsoi::fatal("perfbench: tile assembly for %s stalled at cycle "
                        "%llu", sc.name.c_str(),
                        static_cast<unsigned long long>(now));
        now = std::max(now + 1, next);
    }

    BenchRun run;
    run.wall_s = secondsSince(t0);
    double instructions = 0, accesses = 0, misses = 0, requests = 0,
           mem_requests = 0;
    for (int n = 0; n < cores; ++n) {
        if (!drive_l1)
            instructions += cpus[n]->stats().instructions.value();
        accesses += l1s[n]->stats().loads.value()
            + l1s[n]->stats().stores.value();
        misses += l1s[n]->stats().misses.value();
        requests += dirs[n]->stats().requests.value();
    }
    for (const auto &mc : mcs)
        mem_requests += mc->stats().reads.value() + mc->stats().writes.value();
    run.units["instructions"] = instructions;
    run.units["l1_accesses"] = accesses;
    run.units["l1_misses"] = misses;
    run.units["dir_requests"] = requests;
    run.units["mem_requests"] = mem_requests;
    return run;
}

BenchRun
benchSnapshot(const Scenario &sc, Cycle mid, int reps,
              const std::string &path, Spans &spans)
{
    sim::SystemConfig cfg = sc.config;
    cfg.max_cycles = std::max<Cycle>(1, mid);
    sim::System sys(cfg);
    sys.loadApp(sc.app);
    sys.run();

    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
        spans.time(Spans::SnapshotSave, [&] { sys.saveCheckpoint(path); });
    for (int r = 0; r < reps; ++r) {
        sim::System restored(sc.config);
        restored.loadApp(sc.app);
        spans.time(Spans::SnapshotRestore,
                   [&] { restored.restoreCheckpoint(path); });
    }
    BenchRun run;
    run.wall_s = secondsSince(t0);
    run.units["bytes"] =
        static_cast<double>(std::filesystem::file_size(path));
    std::filesystem::remove(path);
    return run;
}

} // namespace perfbench
