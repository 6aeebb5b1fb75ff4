/**
 * @file
 * Consistent-hash shard map: which MN serves a (pid, region) key.
 *
 * The global controller (§4.7) must place the regions of millions of
 * processes over many MNs without keeping per-process routing state
 * proportional to the region count. A consistent-hash ring does this
 * with O(vnodes * MNs) state total:
 *  - every MN contributes `vnodes_per_mn` points on a 64-bit ring;
 *  - a key (pid, region index) is hashed onto the ring and owned by
 *    the next point clockwise;
 *  - adding/removing an MN only remaps the keys adjacent to its
 *    points (~1/M of the keyspace), so a grown cluster keeps almost
 *    every existing placement — pinned by the stability unit tests.
 *
 * Rack awareness: ownerNear() looks the key up on the caller rack's
 * own sub-ring (the same ring restricted to that rack's MNs), so a
 * process gets rack-local memory whenever its rack hosts any MN at
 * all, while keys still spread uniformly and deterministically (no
 * RNG, no global state). Only a rack with no MNs left spills to
 * remote ones, via the whole ring.
 *
 * All hashing is an explicit splitmix64 — std::hash is implementation
 * defined and would break cross-platform determinism of placements.
 */

#ifndef CLIO_CLUSTER_SHARD_MAP_HH
#define CLIO_CLUSTER_SHARD_MAP_HH

#include <cstdint>
#include <map>
#include <vector>

#include "sim/types.hh"

namespace clio {

/** Placement of (pid, region) keys over MN indices. */
class ShardMap
{
  public:
    /** @param vnodes_per_mn ring points per MN; more points smooth
     * the load split at the cost of a larger (still tiny) ring. */
    explicit ShardMap(std::uint32_t vnodes_per_mn = 64);

    /** Add MN `mn_idx` (in rack `rack`) to the ring. */
    void addMn(std::uint32_t mn_idx, RackId rack);

    /** Remove an MN; keys it owned fall to their next ring successor. */
    void removeMn(std::uint32_t mn_idx);

    bool empty() const { return members_.empty(); }
    std::uint32_t mnCount() const
    {
        return static_cast<std::uint32_t>(members_.size());
    }

    /** Owning MN of a key, ignoring racks (pure ring successor). */
    std::uint32_t ownerOf(ProcId pid, std::uint64_t region_index) const;

    /**
     * Rack-aware owner: the key's successor on `preferred_rack`'s
     * sub-ring, i.e. the first MN of that rack clockwise from the key
     * (rack-local whenever the rack has MNs), and the plain ring
     * successor for a rack with no MNs. Deterministic for a given
     * ring + key + rack.
     */
    std::uint32_t ownerNear(ProcId pid, std::uint64_t region_index,
                            RackId preferred_rack) const;

    /** Rack an MN registered with. */
    RackId rackOf(std::uint32_t mn_idx) const;

  private:
    struct VNode
    {
        std::uint64_t point;
        std::uint32_t mn;
    };

    static std::uint64_t keyHash(ProcId pid, std::uint64_t region_index);

    /** Owner of `key` on a non-empty ring sorted by point: the MN of
     * its first point clockwise. */
    static std::uint32_t successor(const std::vector<VNode> &ring,
                                   std::uint64_t key);

    /** Rebuild a rack's sub-ring from `ring_` (add/remove paths). */
    void rebuildRackRing(RackId rack);

    /** Ring points sorted by `point`. */
    std::vector<VNode> ring_;
    /** Per-rack restriction of `ring_` (rack-local lookups). */
    std::map<RackId, std::vector<VNode>> rack_rings_;
    /** (mn_idx, rack) membership list. */
    std::vector<std::pair<std::uint32_t, RackId>> members_;
    std::uint32_t vnodes_;
};

} // namespace clio

#endif // CLIO_CLUSTER_SHARD_MAP_HH
