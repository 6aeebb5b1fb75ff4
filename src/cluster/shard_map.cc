#include "cluster/shard_map.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

namespace {

/** splitmix64 finalizer: cheap, well-mixed, platform-independent. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

ShardMap::ShardMap(std::uint32_t vnodes_per_mn) : vnodes_(vnodes_per_mn)
{
    clio_assert(vnodes_ > 0, "shard map needs at least one vnode per MN");
}

std::uint64_t
ShardMap::keyHash(ProcId pid, std::uint64_t region_index)
{
    return mix64((static_cast<std::uint64_t>(pid) << 24) ^ region_index);
}

void
ShardMap::addMn(std::uint32_t mn_idx, RackId rack)
{
    for (const auto &[mn, r] : members_)
        clio_assert(mn != mn_idx, "MN %u already in the shard map",
                    mn_idx);
    members_.emplace_back(mn_idx, rack);
    ring_.reserve(ring_.size() + vnodes_);
    for (std::uint32_t v = 0; v < vnodes_; v++) {
        // Ring points depend only on (mn, replica): re-adding an MN
        // recreates exactly its old points, restoring old placements.
        const std::uint64_t point =
            mix64((static_cast<std::uint64_t>(mn_idx) << 32) | v);
        ring_.push_back(VNode{point, mn_idx});
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const VNode &a, const VNode &b) {
                  return a.point != b.point ? a.point < b.point
                                            : a.mn < b.mn;
              });
    rebuildRackRing(rack);
}

void
ShardMap::removeMn(std::uint32_t mn_idx)
{
    auto member = std::find_if(members_.begin(), members_.end(),
                               [mn_idx](const auto &m) {
                                   return m.first == mn_idx;
                               });
    clio_assert(member != members_.end(), "MN %u not in the shard map",
                mn_idx);
    const RackId rack = member->second;
    members_.erase(member);
    ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                               [mn_idx](const VNode &v) {
                                   return v.mn == mn_idx;
                               }),
                ring_.end());
    rebuildRackRing(rack);
}

void
ShardMap::rebuildRackRing(RackId rack)
{
    std::vector<VNode> &sub = rack_rings_[rack];
    sub.clear();
    for (const VNode &v : ring_) {
        if (rackOf(v.mn) == rack)
            sub.push_back(v); // ring_ is sorted, so sub is too
    }
    if (sub.empty())
        rack_rings_.erase(rack);
}

RackId
ShardMap::rackOf(std::uint32_t mn_idx) const
{
    for (const auto &[mn, rack] : members_) {
        if (mn == mn_idx)
            return rack;
    }
    clio_panic("MN %u not in the shard map", mn_idx);
}

std::uint32_t
ShardMap::successor(const std::vector<VNode> &ring, std::uint64_t key)
{
    auto it = std::lower_bound(ring.begin(), ring.end(), key,
                               [](const VNode &v, std::uint64_t k) {
                                   return v.point < k;
                               });
    if (it == ring.end())
        it = ring.begin(); // wrap around
    return it->mn;
}

std::uint32_t
ShardMap::ownerOf(ProcId pid, std::uint64_t region_index) const
{
    clio_assert(!ring_.empty(), "shard map is empty");
    return successor(ring_, keyHash(pid, region_index));
}

std::uint32_t
ShardMap::ownerNear(ProcId pid, std::uint64_t region_index,
                    RackId preferred_rack) const
{
    // The key's successor on the rack's own sub-ring is the first
    // preferred-rack point clockwise from the key on the whole ring.
    const auto sub = rack_rings_.find(preferred_rack);
    if (sub == rack_rings_.end())
        return ownerOf(pid, region_index);
    return successor(sub->second, keyHash(pid, region_index));
}

} // namespace clio
