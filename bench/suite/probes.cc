/**
 * @file
 * Layer probes: after the measured phase of a traced run, replay the
 * workload's own recorded inputs through one layer's public entry
 * point at a time and time each call. Multiplied by how often the
 * measured phase called that layer per op, they estimate the layer's
 * share of the simulation pump's host time.
 */

#include <algorithm>

#include "pagetable/tlb.hh"
#include "suite.hh"

namespace clio::suite {

namespace {

/** Repeat `pass` (one replay of `n` calls) until the replays add up to
 * at least kMinProbeSeconds; host ns per call. */
template <typename F>
double
nsPerCall(std::size_t n, F &&pass)
{
    constexpr double kMinProbeSeconds = 0.05;
    std::uint64_t calls = 0;
    const auto t0 = HostClock::now();
    double elapsed = 0;
    do {
        pass();
        calls += n;
        elapsed = secondsSince(t0);
    } while (elapsed < kMinProbeSeconds);
    return elapsed * 1e9 / static_cast<double>(calls);
}

/** Keeps probe results observable so the timed loops are not elided. */
volatile std::uint64_t g_sink = 0;

} // namespace

ProbeResult
runProbes(Workload &wl, const std::vector<ProbeInput> &inputs)
{
    ProbeResult r;
    Cluster &cluster = wl.cluster();
    const ModelConfig &cfg = wl.config();
    const std::uint64_t page = cfg.page_table.page_size;

    std::vector<const ProbeInput *> data, calls;
    for (const ProbeInput &in : inputs)
        (in.type == MsgType::kOffload ? calls : data).push_back(&in);

    if (!data.empty()) {
        // pagetable: a standalone TLB of the configured size, filled on
        // miss exactly like the fast path fills it.
        Tlb tlb(cfg.fast_path.tlb_entries);
        r.tlb_lookup_host_ns = nsPerCall(data.size(), [&] {
            std::uint64_t sink = 0;
            for (const ProbeInput *in : data) {
                const std::uint64_t vpn = in->addr / page;
                if (const Pte *hit = tlb.lookup(in->pid, vpn)) {
                    sink += hit->frame;
                } else {
                    Pte pte;
                    pte.pid = in->pid;
                    pte.vpn = vpn;
                    pte.perm = kPermReadWrite;
                    pte.valid = true;
                    pte.present = true;
                    tlb.insert(pte);
                }
            }
            g_sink = g_sink + sink;
        });

        // pagetable: the MN's own hash page table.
        r.pte_lookup_host_ns = nsPerCall(data.size(), [&] {
            std::uint64_t sink = 0;
            for (const ProbeInput *in : data) {
                const Pte *pte = cluster.mn(in->mn).pageTable().lookup(
                    in->pid, in->addr / page);
                sink += pte ? pte->frame : 1;
            }
            g_sink = g_sink + sink;
        });

        // cboard: the whole-request fast path, each request issued when
        // the previous one finished (an unloaded pipeline).
        std::vector<RequestMsg> reqs(data.size());
        for (std::size_t i = 0; i < data.size(); i++) {
            reqs[i].type = data[i]->type;
            reqs[i].pid = data[i]->pid;
            reqs[i].addr = data[i]->addr;
            reqs[i].size = data[i]->size;
            if (data[i]->type == MsgType::kWrite)
                reqs[i].data.assign(data[i]->size, 0);
        }
        ResponseMsg resp;
        Tick sim = 0;
        std::uint64_t served = 0;
        Tick t = cluster.eventQueue().now();
        r.fastpath_host_ns = nsPerCall(data.size(), [&] {
            for (std::size_t i = 0; i < reqs.size(); i++) {
                const Tick done =
                    cluster.mn(data[i]->mn).serviceFastPath(reqs[i], t, resp);
                sim += done - t;
                t = done;
            }
            served += reqs.size();
        });
        r.fastpath_sim_ns =
            ticksToNs(sim) / static_cast<double>(std::max<std::uint64_t>(
                                 served, 1));
    }

    if (!inputs.empty()) {
        // net: send + delivery of each recorded request's first packet
        // on a standalone 2-node network.
        EventQueue eq;
        Network net(eq, cfg.net, cfg.seed);
        std::uint64_t delivered = 0;
        const NodeId a = net.addNode({});
        const NodeId b = net.addNode([&](Packet) { delivered++; });
        const std::uint32_t max_payload = cfg.net.mtu - kPacketHeaderBytes;
        r.net_send_host_ns = nsPerCall(inputs.size(), [&] {
            for (const ProbeInput &in : inputs) {
                Packet pkt;
                pkt.src = a;
                pkt.dst = b;
                pkt.type = in.type;
                const std::uint32_t payload =
                    in.type == MsgType::kRead ? 0
                                              : std::min(in.size, max_payload);
                pkt.wire_bytes = payload + kPacketHeaderBytes;
                net.send(std::move(pkt));
                eq.runAll();
            }
        });
        g_sink = g_sink + delivered;
    }

    if (!calls.empty() && wl.offloadId() != 0) {
        // offload: direct invocation with the recorded arguments.
        r.offload_invoke_host_ns = nsPerCall(calls.size(), [&] {
            std::uint64_t sink = 0;
            for (const ProbeInput *in : calls) {
                OffloadResult res;
                cluster.mn(in->mn).invokeOffloadLocal(wl.offloadId(),
                                                      in->arg, res);
                sink += res.value;
            }
            g_sink = g_sink + sink;
        });
    }
    return r;
}

} // namespace clio::suite
