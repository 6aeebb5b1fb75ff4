/**
 * @file
 * Unit + property tests for the overflow-free hash page table and TLB.
 */

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <set>
#include <vector>

#include "pagetable/hash_page_table.hh"
#include "pagetable/tlb.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace clio {
namespace {

HashPageTable
makeTable(std::uint64_t phys = 2 * GiB)
{
    // Defaults from the paper: 4 MB pages, 8-slot buckets, 2x slots.
    return HashPageTable(phys, 4 * MiB, 8, 2.0);
}

Pte
makePte(ProcId pid, std::uint64_t vpn, PhysAddr frame, std::uint8_t perm,
        bool valid, bool present)
{
    Pte pte;
    pte.pid = pid;
    pte.vpn = vpn;
    pte.frame = frame;
    pte.perm = perm;
    pte.valid = valid;
    pte.present = present;
    return pte;
}

TEST(JenkinsHash, DeterministicAndSpread)
{
    EXPECT_EQ(jenkinsHash(1, 2), jenkinsHash(1, 2));
    EXPECT_NE(jenkinsHash(1, 2), jenkinsHash(2, 1));
    // Sequential vpns should spread across values.
    std::set<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 1000; v++)
        values.insert(jenkinsHash(7, v) % 128);
    EXPECT_GT(values.size(), 100u);
}

TEST(HashPageTable, GeometryMatchesPaper)
{
    auto pt = makeTable();
    // 2 GB / 4 MB = 512 frames; 2x overprovision = 1024 slots.
    EXPECT_EQ(pt.totalSlots(), 1024u);
    EXPECT_EQ(pt.bucketSlots(), 8u);
    // §4.2: table consumes ~0.4% of physical memory (here: 16 B PTEs).
    EXPECT_LT(static_cast<double>(pt.tableBytes()),
              0.004 * 2 * GiB);
}

TEST(HashPageTable, InsertLookupRemove)
{
    auto pt = makeTable();
    pt.insert(3, 100, kPermReadWrite);
    const Pte *pte = pt.lookup(3, 100);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->pid, 3u);
    EXPECT_EQ(pte->vpn, 100u);
    EXPECT_FALSE(pte->present);
    EXPECT_EQ(pt.liveEntries(), 1u);

    EXPECT_EQ(pt.lookup(3, 101), nullptr);
    EXPECT_EQ(pt.lookup(4, 100), nullptr);

    Pte removed = pt.remove(3, 100);
    EXPECT_TRUE(removed.valid);
    EXPECT_EQ(pt.lookup(3, 100), nullptr);
    EXPECT_EQ(pt.liveEntries(), 0u);
}

TEST(HashPageTable, BindFrameMakesPresent)
{
    auto pt = makeTable();
    pt.insert(1, 5, kPermRead);
    pt.bindFrame(1, 5, 8 * MiB);
    const Pte *pte = pt.lookup(1, 5);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->present);
    EXPECT_EQ(pte->frame, 8 * MiB);
}

TEST(HashPageTable, MultiProcessIsolation)
{
    auto pt = makeTable();
    // Same vpn under different pids are distinct entries.
    for (ProcId p = 1; p <= 5; p++)
        pt.insert(p, 42, kPermRead);
    EXPECT_EQ(pt.liveEntries(), 5u);
    for (ProcId p = 1; p <= 5; p++) {
        const Pte *pte = pt.lookup(p, 42);
        ASSERT_NE(pte, nullptr);
        EXPECT_EQ(pte->pid, p);
    }
}

TEST(HashPageTable, CanInsertCountsBatchDemand)
{
    auto pt = makeTable(64 * MiB); // 16 frames -> 32 slots, 4 buckets
    // Find 9 vpns that all land in the same bucket: demand 9 > K=8.
    std::vector<std::uint64_t> same_bucket;
    const std::uint64_t target = pt.bucketOf(1, 0);
    for (std::uint64_t v = 0; same_bucket.size() < 9; v++) {
        if (pt.bucketOf(1, v) == target)
            same_bucket.push_back(v);
    }
    EXPECT_FALSE(pt.canInsert(1, same_bucket));
    same_bucket.pop_back();
    EXPECT_TRUE(pt.canInsert(1, same_bucket));
}

TEST(HashPageTable, CanInsertReflectsExistingFill)
{
    auto pt = makeTable(64 * MiB);
    const std::uint64_t target = pt.bucketOf(9, 0);
    std::vector<std::uint64_t> bucket_vpns;
    for (std::uint64_t v = 0; bucket_vpns.size() < 9; v++) {
        if (pt.bucketOf(9, v) == target)
            bucket_vpns.push_back(v);
    }
    // Fill 8 slots; the 9th single insert must be rejected by the check.
    for (int i = 0; i < 8; i++)
        pt.insert(9, bucket_vpns[static_cast<std::size_t>(i)],
                  kPermRead);
    std::vector<std::uint64_t> one{bucket_vpns[8]};
    EXPECT_FALSE(pt.canInsert(9, one));
    EXPECT_EQ(pt.freeSlotsInBucket(9, bucket_vpns[8]), 0u);
}

TEST(HashPageTable, PropertyNoOverflowWhenGuardedByCanInsert)
{
    // Property: any insert admitted by canInsert() never overflows,
    // across random pids/vpns until the table is near-full.
    auto pt = makeTable(256 * MiB); // 128 slots
    Rng rng(21);
    std::set<std::pair<ProcId, std::uint64_t>> live;
    std::uint64_t inserted = 0, rejected = 0;
    while (inserted + rejected < 5000 &&
           pt.liveEntries() < pt.totalSlots()) {
        ProcId pid = static_cast<ProcId>(rng.uniformRange(1, 8));
        std::uint64_t vpn = rng.uniformInt(1 << 16);
        if (live.count({pid, vpn}))
            continue;
        std::vector<std::uint64_t> batch{vpn};
        if (pt.canInsert(pid, batch)) {
            pt.insert(pid, vpn, kPermReadWrite); // must not panic
            live.insert({pid, vpn});
            inserted++;
        } else {
            rejected++;
        }
    }
    EXPECT_GT(inserted, 0u);
    EXPECT_LE(pt.maxBucketFill(), pt.bucketSlots());
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(4);
    Pte pte = makePte(1, 10, 4 * MiB, kPermRead, true, true);
    tlb.insert(pte);
    const Pte *hit = tlb.lookup(1, 10);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->frame, 4 * MiB);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 0u);
}

TEST(Tlb, MissCounted)
{
    Tlb tlb(4);
    EXPECT_EQ(tlb.lookup(1, 10), nullptr);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2);
    tlb.insert(makePte(1, 1, 0, kPermRead, true, true));
    tlb.insert(makePte(1, 2, 0, kPermRead, true, true));
    // Touch vpn 1 so vpn 2 becomes LRU.
    EXPECT_NE(tlb.lookup(1, 1), nullptr);
    tlb.insert(makePte(1, 3, 0, kPermRead, true, true));
    EXPECT_NE(tlb.lookup(1, 1), nullptr);
    EXPECT_EQ(tlb.lookup(1, 2), nullptr); // evicted
    EXPECT_NE(tlb.lookup(1, 3), nullptr);
}

TEST(Tlb, InvalidateSingleAndProcess)
{
    Tlb tlb(8);
    for (std::uint64_t v = 0; v < 3; v++) {
        tlb.insert(makePte(1, v, 0, kPermRead, true, true));
        tlb.insert(makePte(2, v, 0, kPermRead, true, true));
    }
    tlb.invalidate(1, 0);
    EXPECT_EQ(tlb.lookup(1, 0), nullptr);
    EXPECT_NE(tlb.lookup(2, 0), nullptr);
    tlb.invalidateProcess(2);
    for (std::uint64_t v = 0; v < 3; v++)
        EXPECT_EQ(tlb.lookup(2, v), nullptr);
    EXPECT_NE(tlb.lookup(1, 1), nullptr);
    EXPECT_EQ(tlb.size(), 2u);
}

TEST(Tlb, ReinsertRefreshesLru)
{
    Tlb tlb(2);
    tlb.insert(makePte(1, 1, 0, kPermRead, true, true));
    tlb.insert(makePte(1, 2, 0, kPermRead, true, true));
    tlb.insert(makePte(1, 1, 4 * MiB, kPermRead, true, true)); // refresh
    tlb.insert(makePte(1, 3, 0, kPermRead, true, true));
    EXPECT_NE(tlb.lookup(1, 1), nullptr); // survived, vpn2 evicted
    EXPECT_EQ(tlb.lookup(1, 2), nullptr);
}

/** Reference LRU for the differential test: a plain list, front = MRU,
 * searched linearly. */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

    const Pte *
    lookup(ProcId pid, std::uint64_t vpn)
    {
        auto it = find(pid, vpn);
        if (it == lru_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it);
        return &lru_.front();
    }

    /** @return the evicted entry, if the insert evicted one. */
    std::optional<Pte>
    insert(const Pte &pte)
    {
        auto it = find(pte.pid, pte.vpn);
        std::optional<Pte> victim;
        if (it != lru_.end()) {
            lru_.erase(it);
        } else if (lru_.size() == capacity_) {
            victim = lru_.back();
            lru_.pop_back();
        }
        lru_.push_front(pte);
        return victim;
    }

    void
    invalidate(ProcId pid, std::uint64_t vpn)
    {
        auto it = find(pid, vpn);
        if (it != lru_.end())
            lru_.erase(it);
    }

    void
    invalidateProcess(ProcId pid)
    {
        lru_.remove_if([pid](const Pte &p) { return p.pid == pid; });
    }

    std::size_t size() const { return lru_.size(); }

  private:
    std::list<Pte>::iterator
    find(ProcId pid, std::uint64_t vpn)
    {
        for (auto it = lru_.begin(); it != lru_.end(); ++it) {
            if (it->pid == pid && it->vpn == vpn)
                return it;
        }
        return lru_.end();
    }

    std::size_t capacity_;
    std::list<Pte> lru_;
};

TEST(Tlb, MatchesReferenceLruUnderRandomOps)
{
    // Fast-path-shaped traffic (lookup, fill on miss) mixed with
    // refreshes and both invalidations, over more pages than fit.
    Rng rng(77);
    Tlb tlb(64);
    ReferenceLru ref(64);
    std::uint64_t hits = 0, victims = 0;
    for (std::uint32_t op = 0; op < 200000; op++) {
        const ProcId pid = static_cast<ProcId>(1 + rng.uniformInt(4));
        const std::uint64_t vpn = rng.uniformInt(40);
        const std::uint64_t kind = rng.uniformInt(100);
        if (kind < 85) {
            const Pte *got = tlb.lookup(pid, vpn);
            const Pte *want = ref.lookup(pid, vpn);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
            if (got) {
                ASSERT_EQ(got->frame, want->frame);
                hits++;
                continue;
            }
        }
        if (kind < 95) {
            const Pte pte = makePte(pid, vpn, op * 4 * MiB, kPermRead, true,
                                    true);
            tlb.insert(pte);
            if (auto victim = ref.insert(pte)) {
                // The same entry left the TLB (a miss promotes nothing).
                ASSERT_EQ(tlb.lookup(victim->pid, victim->vpn), nullptr);
                victims++;
            }
        } else if (kind < 99) {
            tlb.invalidate(pid, vpn);
            ref.invalidate(pid, vpn);
        } else {
            tlb.invalidateProcess(pid);
            ref.invalidateProcess(pid);
        }
        ASSERT_EQ(tlb.size(), ref.size()) << "op " << op;
    }
    EXPECT_GT(hits, 10000u);
    EXPECT_GT(victims, 10000u);
}

} // namespace
} // namespace clio
