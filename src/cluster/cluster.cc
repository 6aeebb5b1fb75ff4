#include "cluster/cluster.hh"

#include <algorithm>
#include <set>

#include "cluster/health.hh"
#include "sim/logging.hh"

namespace clio {

Cluster::Cluster(const ModelConfig &cfg, const ClusterSpec &spec)
    : cfg_(cfg), eq_(cfg.event_queue_impl),
      net_(eq_, cfg.net, cfg.seed * 7919 + 1), sharded_(spec.racks > 1)
{
    clio_assert(spec.racks > 0 && spec.cns_per_rack > 0 &&
                    spec.mns_per_rack > 0,
                "cluster spec needs racks, CNs, and MNs");
    const std::uint32_t total_mns = spec.racks * spec.mns_per_rack;
    // MNs first, then CNs, so node-id assignment stays deterministic
    // across cluster shapes.
    for (RackId rack = 0; rack < spec.racks; rack++) {
        for (std::uint32_t i = 0; i < spec.mns_per_rack; i++) {
            const std::uint32_t idx =
                static_cast<std::uint32_t>(mns_.size());
            mns_.push_back(std::make_unique<CBoard>(
                eq_, net_, cfg_, spec.mn_phys_bytes, rack));
            mns_[idx]->setWindowedMode(total_mns > 1);
            mns_[idx]->setWindowRequestHook(
                [this, idx](ProcId pid, std::uint64_t size) {
                    return grantWindows(pid, idx, size);
                });
            if (sharded_)
                shard_map_.addMn(idx, rack);
        }
    }
    for (RackId rack = 0; rack < spec.racks; rack++) {
        for (std::uint32_t i = 0; i < spec.cns_per_rack; i++)
            cns_.push_back(
                std::make_unique<CNode>(eq_, net_, cfg_, rack));
    }
    if (cfg_.health.enabled)
        health_ = std::make_unique<HealthPlane>(*this);
}

Cluster::~Cluster() = default;

std::uint32_t
Cluster::mnIndexOf(NodeId node) const
{
    for (std::uint32_t i = 0; i < mns_.size(); i++) {
        if (mns_[i]->nodeId() == node)
            return i;
    }
    clio_panic("node %u is not an MN", node);
}

std::uint32_t
Cluster::leastPressuredMn(std::uint32_t skip) const
{
    std::uint32_t best = skip == kNoOwner ? 0 : skip;
    double best_pressure = 2.0;
    for (std::uint32_t i = 0; i < mns_.size(); i++) {
        if (i == skip || !mns_[i]->alive())
            continue;
        const double p = mns_[i]->memoryPressure();
        if (p < best_pressure) {
            best_pressure = p;
            best = i;
        }
    }
    return best;
}

RackId
Cluster::rackOfMn(std::uint32_t i) const
{
    return net_.rackOf(mns_.at(i)->nodeId());
}

void
Cluster::rehomePid(ProcId pid, std::uint32_t new_home)
{
    const std::uint32_t old =
        pid < pid_home_mn_.size() ? pid_home_mn_[pid] : kNoOwner;
    if (old == new_home || old == kNoOwner)
        return;
    // The directory predicts owners for granted regions; changing the
    // home would silently change those predictions. Materialize them
    // into explicit exception entries FIRST — granted regions stay
    // where they physically are, only future grants follow the home.
    const std::uint64_t region = cfg_.dist.region_size;
    for (std::uint64_t ridx = 1; ridx < nextRegionOf(pid); ridx++) {
        const VirtAddr start = ridx * region;
        if (region_owner_.count({pid, start}))
            continue;
        const std::uint32_t owner = regionOwnerIdx(pid, start);
        if (owner != kNoOwner)
            region_owner_[{pid, start}] = owner;
    }
    pid_home_mn_[pid] = new_home;
}

void
Cluster::rehomeAllPids()
{
    if (shard_map_.empty())
        return;
    std::set<ProcId> seen;
    for (const auto &client : clients_) {
        const ProcId pid = client->pid();
        if (!seen.insert(pid).second)
            continue; // shared RAS: the first-created client decides
        const RackId rack = net_.rackOf(client->cnode().nodeId());
        const std::uint32_t want = shard_map_.ownerNear(pid, 0, rack);
        if (pid < pid_home_mn_.size() &&
            pid_home_mn_[pid] != kNoOwner && pid_home_mn_[pid] != want)
            rehomePid(pid, want);
    }
}

void
Cluster::crashMn(std::uint32_t i)
{
    CBoard &board = *mns_.at(i);
    if (!board.alive())
        return;
    board.crash();
    net_.setNodeDown(board.nodeId(), true);
    // With the health plane on, a crash is PHYSICAL only: membership
    // reacts when the controller's lease on the board expires (real
    // detection latency), via onMnDeclaredDead().
    if (!health_)
        onMnDeclaredDead(i);
}

void
Cluster::restartMn(std::uint32_t i)
{
    CBoard &board = *mns_.at(i);
    if (board.alive())
        return;
    board.restart();
    net_.setNodeDown(board.nodeId(), false);
    // With the health plane on, membership reacts when the board's
    // beacons reach the controller again (rejoin + epoch fence).
    if (!health_)
        onMnRejoined(i);
}

void
Cluster::onMnDeclaredDead(std::uint32_t i)
{
    for (const ReplicaRegistry::Entry &e : replicas_.entries())
        e.region->markMnDead(mns_[i]->nodeId());
    if (!sharded_)
        return;
    // The dead MN's vnodes leave the ring; affected pids re-probe
    // rack-first among the survivors (consistent hashing keeps every
    // other placement untouched).
    shard_map_.removeMn(i);
    if (!shard_map_.empty())
        rehomeAllPids();
}

void
Cluster::onMnRejoined(std::uint32_t i)
{
    if (!sharded_)
        return;
    // Ring points are deterministic in (mn, replica), so re-adding
    // restores the pre-crash placement exactly and re-homed pids move
    // home again.
    shard_map_.addMn(i, rackOfMn(i));
    rehomeAllPids();
}

void
Cluster::crashCn(std::uint32_t i)
{
    CNode &cn = *cns_.at(i);
    if (!cn.alive())
        return;
    cn.crash();
    net_.setNodeDown(cn.nodeId(), true);
}

void
Cluster::restartCn(std::uint32_t i)
{
    CNode &cn = *cns_.at(i);
    if (cn.alive())
        return;
    cn.restart();
    net_.setNodeDown(cn.nodeId(), false);
}

void
Cluster::killRack(RackId rack)
{
    net_.setRackDown(rack, true);
    for (std::uint32_t i = 0; i < mns_.size(); i++) {
        if (rackOfMn(i) == rack)
            crashMn(i);
    }
}

void
Cluster::restoreRack(RackId rack)
{
    net_.setRackDown(rack, false);
    for (std::uint32_t i = 0; i < mns_.size(); i++) {
        if (rackOfMn(i) == rack)
            restartMn(i);
    }
}

std::uint32_t
Cluster::homeMnOf(ProcId pid) const
{
    clio_assert(pid < pid_home_mn_.size() &&
                    pid_home_mn_[pid] != kNoOwner,
                "pid %u has no directory entry", pid);
    return pid_home_mn_[pid];
}

ClioClient &
Cluster::createClient(std::uint32_t cn_index)
{
    const ProcId pid = next_pid_++;
    // One rack: the paper's controller homes processes round-robin.
    // Several racks: the home is the ring owner of the pid's key,
    // preferring an MN in the CN's own rack (§4.7 scaled out).
    const std::uint32_t home =
        sharded_ ? shard_map_.ownerNear(
                       pid, 0, net_.rackOf(cns_.at(cn_index)->nodeId()))
                 : (pid - 1) % mnCount();
    if (pid >= pid_home_mn_.size()) {
        pid_home_mn_.resize(
            std::max<std::size_t>(pid + 1, pid_home_mn_.size() * 2),
            kNoOwner);
    }
    pid_home_mn_[pid] = home;
    return addClient(std::make_unique<ClioClient>(
        cn(cn_index), pid, mns_[home]->nodeId(), replicas_));
}

ClioClient &
Cluster::createSharedClient(std::uint32_t cn_index,
                            const ClioClient &base)
{
    // Same global PID: the MN's page table and permissions already
    // cover this process; a second CN simply issues requests for it.
    auto client = std::make_unique<ClioClient>(
        cn(cn_index), base.pid(), base.mnFor(0), replicas_);
    client->copyRoutingFrom(base);
    return addClient(std::move(client));
}

ClioClient &
Cluster::addClient(std::unique_ptr<ClioClient> client)
{
    if (sharded_) {
        // Every allocation of the pid lands on its directory MN (a
        // migration rewrites routing via redirectRegion, not here).
        const ProcId pid = client->pid();
        client->setAllocPlacement([this, pid](std::uint64_t) {
            return mns_[pid_home_mn_[pid]]->nodeId();
        });
    } else if (mns_.size() > 1) {
        // Place new allocations on the least-pressured MN (§4.7).
        client->setAllocPlacement([this](std::uint64_t) {
            return mns_[leastPressuredMn()]->nodeId();
        });
    }
    clients_.push_back(std::move(client));
    return *clients_.back();
}

std::uint64_t &
Cluster::nextRegionSlot(ProcId pid)
{
    // App pids are sequential from 1 (flat vector); offload pids live
    // at 0xF0000000+ and overflow into the side map.
    constexpr ProcId kDirectLimit = 1u << 28;
    if (pid < kDirectLimit) {
        if (pid >= next_region_.size()) {
            next_region_.resize(
                std::max<std::size_t>(pid + 1, next_region_.size() * 2),
                0);
        }
        return next_region_[pid];
    }
    return next_region_overflow_[pid];
}

std::uint64_t
Cluster::nextRegionOf(ProcId pid) const
{
    constexpr ProcId kDirectLimit = 1u << 28;
    if (pid < kDirectLimit)
        return pid < next_region_.size() ? next_region_[pid] : 0;
    auto it = next_region_overflow_.find(pid);
    return it != next_region_overflow_.end() ? it->second : 0;
}

std::uint32_t
Cluster::regionOwnerIdx(ProcId pid, VirtAddr region_start) const
{
    auto it = region_owner_.find({pid, region_start});
    if (it != region_owner_.end())
        return it->second;
    // Prediction: any granted, unmigrated region belongs to the pid's
    // directory home MN.
    const std::uint64_t region = cfg_.dist.region_size;
    const std::uint64_t idx = region_start / region;
    if (idx == 0 || idx >= nextRegionOf(pid) ||
        region_start % region != 0)
        return kNoOwner;
    if (pid >= pid_home_mn_.size() || pid_home_mn_[pid] == kNoOwner)
        return kNoOwner;
    return pid_home_mn_[pid];
}

bool
Cluster::grantWindows(ProcId pid, std::uint32_t mn_idx,
                      std::uint64_t min_bytes)
{
    const std::uint64_t region = cfg_.dist.region_size;
    const std::uint64_t count =
        std::max<std::uint64_t>(1, (min_bytes + region - 1) / region);
    // Region index 0 is skipped so that VA 0 stays unused.
    std::uint64_t &next = nextRegionSlot(pid);
    if (next == 0)
        next = 1;
    const VirtAddr start = next * region;
    next += count;
    mns_[mn_idx]->vaAllocator().addWindow(pid, start, count * region);
    // O(1) controller state per process: the directory predicts the
    // home MN as owner, so only off-home grants (least-pressured
    // placements, replication targets, offload RASes) need explicit
    // entries.
    const bool predicted =
        pid < pid_home_mn_.size() && pid_home_mn_[pid] == mn_idx;
    if (!predicted) {
        for (std::uint64_t j = 0; j < count; j++)
            region_owner_[{pid, start + j * region}] = mn_idx;
    }
    return true;
}

MigrationReport
Cluster::migrateRegion(ProcId pid, std::uint32_t src_mn,
                       VirtAddr region_start)
{
    MigrationReport report;
    report.src_mn = src_mn;
    if (mns_.size() < 2 || !mns_[src_mn]->alive())
        return report;

    const std::uint64_t region = cfg_.dist.region_size;
    if (region_start == 0) {
        // Pick the first region of this pid owned by src_mn.
        for (std::uint64_t idx = 1; idx < nextRegionOf(pid); idx++) {
            if (regionOwnerIdx(pid, idx * region) == src_mn) {
                region_start = idx * region;
                break;
            }
        }
        if (region_start == 0)
            return report; // nothing to migrate
    }
    if (regionOwnerIdx(pid, region_start) != src_mn)
        return report;

    const std::uint32_t dst_mn = leastPressuredMn(src_mn);
    if (dst_mn == src_mn)
        return report;

    CBoard &src = *mns_[src_mn];
    CBoard &dst = *mns_[dst_mn];
    const std::uint64_t page_size = cfg_.page_table.page_size;

    // Extract the allocator state for this region from the source.
    auto regions = src.vaAllocator().extractRegions(pid, region_start,
                                                    region);
    // All vpns the region covers that have live PTEs.
    std::vector<std::uint64_t> vpns;
    for (const auto &r : regions) {
        for (std::uint64_t off = 0; off < r.length; off += page_size)
            vpns.push_back((r.start + off) / page_size);
    }

    // Admission at the destination: overflow-free insert must hold and
    // enough physical frames must exist for the present pages.
    std::uint64_t present_pages = 0;
    for (auto vpn : vpns) {
        const Pte *pte = src.pageTable().lookup(pid, vpn);
        clio_assert(pte, "migrating unallocated vpn");
        if (pte->present)
            present_pages++;
    }
    if (!dst.pageTable().canInsert(pid, vpns) ||
        dst.frames().freeFrames() < present_pages) {
        // Roll back: put the regions back on the source.
        for (const auto &r : regions)
            src.vaAllocator().injectRegion(pid, r);
        return report;
    }

    // Move window + allocator regions.
    src.vaAllocator().removeWindow(pid, region_start, region);
    dst.vaAllocator().addWindow(pid, region_start, region);
    for (const auto &r : regions)
        dst.vaAllocator().injectRegion(pid, r);

    // Move PTEs + page contents.
    std::vector<std::uint8_t> page_buf(page_size);
    for (auto vpn : vpns) {
        Pte pte = src.pageTable().remove(pid, vpn);
        src.tlb().invalidate(pid, vpn);
        dst.pageTable().insert(pid, vpn, pte.perm);
        if (pte.present) {
            auto frame = dst.frames().allocate();
            clio_assert(frame, "admission check guaranteed frames");
            src.memory().read(pte.frame, page_buf.data(), page_size);
            dst.memory().write(*frame, page_buf.data(), page_size);
            dst.pageTable().bindFrame(pid, vpn, *frame);
            src.freeFrame(pte.frame);
            report.bytes_moved += page_size;
            report.pages_moved++;
        }
    }

    // Controller bookkeeping + push routing updates to clients: the
    // region gets an exception entry (it no longer matches the
    // directory prediction).
    region_owner_[{pid, region_start}] = dst_mn;
    for (auto &client : clients_) {
        if (client->pid() == pid)
            client->redirectRegion(region_start, region, dst.nodeId());
    }

    // Modeled duration: region data over the inter-MN link at ~2/3
    // efficiency (the paper measured 1 GB in 1.3 s at 10 Gbps).
    report.duration = static_cast<Tick>(
        static_cast<double>(report.bytes_moved) *
        static_cast<double>(ticksPerByte(cfg_.net.link_bandwidth_bps)) *
        1.5);
    report.ok = true;
    report.region_start = region_start;
    report.dst_mn = dst_mn;
    return report;
}

std::vector<MigrationReport>
Cluster::balancePressure()
{
    std::vector<MigrationReport> reports;
    const double limit = 1.0 - cfg_.dist.pressure_threshold;
    for (std::uint32_t i = 0; i < mns_.size(); i++) {
        while (mns_[i]->memoryPressure() > limit) {
            // Migrate any region with data away from the hot MN. The
            // exception map alone is not enough (most regions are only
            // predicted), so walk each client's pid.
            MigrationReport done;
            for (const auto &client : clients_) {
                const ProcId pid = client->pid();
                const std::uint64_t region = cfg_.dist.region_size;
                for (std::uint64_t idx = 1; idx < nextRegionOf(pid);
                     idx++) {
                    if (regionOwnerIdx(pid, idx * region) != i)
                        continue;
                    done = migrateRegion(pid, i, idx * region);
                    if (done.ok && done.pages_moved > 0)
                        break;
                    done = MigrationReport{};
                }
                if (done.ok)
                    break;
            }
            if (!done.ok)
                break; // nothing movable
            reports.push_back(done);
        }
    }
    return reports;
}

} // namespace clio
