#include "baselines/rdma.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

Tick
wireRoundTrip(const NetConfig &net, std::uint64_t request_bytes,
              std::uint64_t response_bytes)
{
    const Tick per_byte = ticksPerByte(net.link_bandwidth_bps);
    const Tick one_way_fixed =
        2 * net.link_propagation + net.switch_latency;
    return 2 * one_way_fixed +
           static_cast<Tick>(request_bytes + kPacketHeaderBytes) *
               per_byte +
           static_cast<Tick>(response_bytes + kPacketHeaderBytes) *
               per_byte;
}

NicCache::NicCache(std::uint32_t capacity) : lru_(capacity)
{
    clio_assert(capacity > 0, "NIC cache capacity must be nonzero");
}

bool
NicCache::touch(std::uint64_t id)
{
    if (lru_.touch(id) != lru_.kNone) {
        hits_++;
        return true;
    }
    misses_++;
    lru_.insert(id);
    return false;
}

RdmaMemoryNode::RdmaMemoryNode(const ModelConfig &cfg,
                               std::uint64_t phys_bytes,
                               std::uint64_t seed)
    : cfg_(cfg), rng_(seed), memory_(phys_bytes),
      qp_cache_(cfg.rdma.qp_cache_entries),
      mr_cache_(cfg.rdma.mr_cache_entries),
      pte_cache_(cfg.rdma.pte_cache_entries)
{
}

QpId
RdmaMemoryNode::createQp()
{
    return next_qp_++;
}

std::optional<MrId>
RdmaMemoryNode::registerMr(std::uint64_t size, bool odp, Tick &latency)
{
    if (mrs_.size() >= cfg_.rdma.max_mrs) {
        // Fig. 5: "RDMA fails to run beyond 2^18 MRs".
        latency = 0;
        return std::nullopt;
    }
    const std::uint64_t pages = (size + kHostPage - 1) / kHostPage;
    if (!odp) {
        if (bump_ + pages * kHostPage > memory_.capacity()) {
            latency = 0;
            return std::nullopt; // pinned memory exhausted
        }
    }
    Mr mr;
    mr.size = size;
    mr.odp = odp;
    if (odp) {
        latency = cfg_.rdma.mr_register_odp;
        mr.base = bump_; // reserved lazily; model keeps it simple
        bump_ += pages * kHostPage;
    } else {
        latency = cfg_.rdma.mr_register_base +
                  cfg_.rdma.mr_register_per_page * pages;
        mr.base = bump_;
        bump_ += pages * kHostPage;
        // Pinned pages are present from the start.
    }
    const MrId id = next_mr_++;
    mrs_.emplace(id, std::move(mr));
    return id;
}

Tick
RdmaMemoryNode::deregisterMr(MrId mr_id)
{
    auto it = mrs_.find(mr_id);
    clio_assert(it != mrs_.end(), "deregistering unknown MR");
    const std::uint64_t pages =
        (it->second.size + kHostPage - 1) / kHostPage;
    const bool odp = it->second.odp;
    mrs_.erase(it);
    if (odp)
        return cfg_.rdma.mr_deregister_base / 2;
    return cfg_.rdma.mr_deregister_base +
           cfg_.rdma.mr_deregister_per_page * pages;
}

RdmaVerbResult
RdmaMemoryNode::verb(QpId qp, MrId mr_id, std::uint64_t offset,
                     std::uint64_t len, bool is_write)
{
    RdmaVerbResult res;
    auto it = mrs_.find(mr_id);
    if (it == mrs_.end() || offset + len > it->second.size)
        return res; // not ok
    Mr &mr = it->second;

    const RdmaConfig &rc = cfg_.rdma;
    // Requester-side post + wire + responder RNIC processing.
    Tick t = 100 * kNanosecond; // post WQE / doorbell
    t += wireRoundTrip(cfg_.net, is_write ? len : 16,
                       is_write ? 16 : len);
    t += 2 * rc.nic_processing;

    // Connection context lookup: a QPC miss drags in the connection
    // context, WQE state, and protection info — several dependent
    // PCIe round trips (why Fig. 4's degradation is steep).
    if (!qp_cache_.touch(qp)) {
        res.qp_miss = true;
        t += 3 * rc.pcie_dram_access;
    }
    // MR metadata (MPT) lookup.
    if (!mr_cache_.touch(0x100000000ull + mr_id)) {
        res.mr_miss = true;
        t += rc.pcie_dram_access;
    }
    // MTT (page translation) lookups, one per covered host page.
    const std::uint64_t first_page = (mr.base + offset) / kHostPage;
    const std::uint64_t last_page =
        (mr.base + offset + len - 1) / kHostPage;
    for (std::uint64_t p = first_page; p <= last_page; p++) {
        if (res.mr_miss) {
            // Under MPT thrash the MR context keeps getting evicted
            // by other tenants' traffic while a long transfer is in
            // flight, so its protection state is re-fetched per page
            // segment ("many accesses involve a slow read to host
            // main memory", §7.2 / Fig. 16).
            t += rc.pcie_dram_access;
        }
        if (!pte_cache_.touch(0x200000000ull + p)) {
            res.pte_miss = true;
            t += rc.pcie_dram_access;
        }
        if (mr.odp && !mr.present.count(p)) {
            // ODP page fault: RNIC interrupts the host OS (§2.2:
            // 14100x slower than a no-fault access).
            res.page_fault = true;
            mr.present.insert(p);
            t += rc.odp_page_fault;
        }
    }

    // Host DRAM access over PCIe: reads must reach DRAM, while the
    // RNIC acks a write before its data gets there (§7.1 suspects this
    // optimization).
    if (!is_write)
        t += cfg_.dram.server_access_latency +
             static_cast<Tick>(len) * ticksPerByte(cfg_.dram.bandwidth_bps);

    // Host-memory-system jitter and rare long stalls (tail, Fig. 7).
    t += static_cast<Tick>(
        rng_.exponential(static_cast<double>(rc.host_jitter_mean)));
    if (rng_.chance(rc.tail_stall_prob))
        t += rc.tail_stall;

    // Functional data movement.
    const std::uint64_t pa = mr.base + offset;
    res.ok = true;
    res.latency = t;
    (void)pa;
    return res;
}

RdmaVerbResult
RdmaMemoryNode::read(QpId qp, MrId mr_id, std::uint64_t offset, void *dst,
                     std::uint64_t len)
{
    RdmaVerbResult res = verb(qp, mr_id, offset, len, false);
    if (res.ok) {
        const Mr &mr = mrs_.at(mr_id);
        memory_.read(mr.base + offset, dst, len);
    }
    return res;
}

RdmaVerbResult
RdmaMemoryNode::write(QpId qp, MrId mr_id, std::uint64_t offset,
                      const void *src, std::uint64_t len)
{
    RdmaVerbResult res = verb(qp, mr_id, offset, len, true);
    if (res.ok) {
        Mr &mr = mrs_.at(mr_id);
        memory_.write(mr.base + offset, src, len);
    }
    return res;
}

} // namespace clio
