/**
 * @file
 * Replicated remote memory (§8): the paper leaves failure handling to
 * services built on Clio and suggests offering "primitives like
 * replicated writes for users to build their own services". This is
 * that primitive: a region mirrored across two MNs, with writes going
 * to both replicas and reads served by the primary, failing over to
 * the backup when the primary does not answer.
 *
 * Consistency: writes complete when BOTH live replicas ack (write-all);
 * reads are served by one replica (read-one). Combined with Clio's
 * per-request ordering this gives linearizable single-writer
 * semantics; multi-writer applications coordinate with rlock as
 * usual.
 *
 * Liveness has one owner, the controller (§4.7): a replica is dead
 * only once the cluster declares its MN dead and calls markMnDead() —
 * at once on crashMn() with the health plane off, on the failure
 * detector's verdict with it on. A request that runs out of retries
 * proves nothing (a live MN inside a packet-loss window looks the
 * same), so the region never marks a replica itself:
 *  - a write leg that fails in transport (kTimeout, kRetryExceeded,
 *    kEpochFenced) is resent until it lands on the copy now in its slot
 *    or that replica is declared dead; other failures fail the write.
 *    With the health plane on, a write to a crashed replica waits for
 *    the detector's verdict, and a cut-off CN stops once the detector
 *    declares it dead (kTimeout). With it off, nothing declares a live
 *    node dead: a write across a partition waits until it heals. All
 *    attempts on one copy share a dedup key (T4), so one the CN gave up
 *    on cannot land after a later write; a late mirror (below) can;
 *  - a failed read fails over to the other replica;
 *  - a failed chunk read aborts a resync and leaves the survivor alone.
 *
 * Self-healing: regions register in the Cluster's ReplicaRegistry.
 * After a verdict the health plane drives beginResync() — an
 * asynchronous chunked copy from the survivor onto a replacement MN
 * that runs as ordinary simulator events, concurrently with foreground
 * traffic. A client's heal() starts the same copy and waits for it.
 * During resync, reads stay on the survivor (degraded mode) and
 * writes mirror into the read-issued prefix of the target, so the
 * region is consistent the instant the last chunk lands; the swap to
 * fully-redundant happens only then. A mirror must land after the
 * copy-write of every chunk it overlaps. For a chunk already
 * copy-written or being copy-written, the client's T2 ordering does
 * that: the mirror queues behind the copy-write (WAW on the target
 * VA). Nothing orders a mirror after a copy-write not yet issued, so a
 * write overlapping the chunk whose read is in flight is held until
 * that read's completion is handled, which issues the copy-write.
 * Every resend pass re-checks the hold and the mirror.
 */

#ifndef CLIO_CLIB_REPLICATION_HH
#define CLIO_CLIB_REPLICATION_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "clib/client.hh"
#include "clib/queue.hh"

namespace clio {

class ReplicatedRegion;

/**
 * The controller's replicated regions, in registration order, owned by
 * the Cluster and handed to every client. Ids are sequential and never
 * reused: the health plane keys its resync queue and salts replacement
 * probing by them (pointers would leak allocator nondeterminism).
 */
class ReplicaRegistry
{
  public:
    struct Entry
    {
        ReplicatedRegion *region = nullptr;
        std::uint64_t id = 0;
    };

    ReplicaRegistry() = default;
    ReplicaRegistry(const ReplicaRegistry &) = delete; // clients hold it
    ReplicaRegistry &operator=(const ReplicaRegistry &) = delete;
    void addRegion(ReplicatedRegion *r)
    {
        entries_.push_back({r, next_id_++});
    }
    /** No-op for a region that never registered. */
    void removeRegion(ReplicatedRegion *r)
    {
        std::erase_if(entries_, [r](const Entry &e) { return e.region == r; });
    }
    /** The region registered as `id`; null once it is gone. */
    ReplicatedRegion *find(std::uint64_t id) const;
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
    std::uint64_t next_id_ = 1;
};

/** A fixed-size region mirrored on two memory nodes. */
class ReplicatedRegion
{
  public:
    /**
     * Allocate `size` bytes on two distinct MNs.
     * @param primary_mn / @param backup_mn target boards.
     * ok() reports whether both allocations succeeded.
     */
    ReplicatedRegion(ClioClient &client, std::uint64_t size,
                     NodeId primary_mn, NodeId backup_mn);
    ~ReplicatedRegion();

    ReplicatedRegion(const ReplicatedRegion &) = delete;
    ReplicatedRegion &operator=(const ReplicatedRegion &) = delete;

    bool ok() const { return primary_ != 0 && backup_ != 0; }
    std::uint64_t size() const { return size_; }

    /** Offset-addressed write to BOTH live replicas: kOk once each
     * live copy holds it (see file docs); kRetryExceeded when none is
     * live, kTimeout when the client's CN is down or declared dead,
     * else the first non-transport failure. During a resync it also
     * mirrors into the already-copied prefix of the target. */
    Status write(std::uint64_t offset, const void *src,
                 std::uint64_t len);

    /** Offset-addressed read from the primary, failing over to the
     * backup when the primary is dead or its read fails. A failed read
     * marks nothing. */
    Status read(std::uint64_t offset, void *dst, std::uint64_t len);

    /** @{ Health introspection. */
    bool primaryAlive() const { return primary_alive_; }
    bool backupAlive() const { return backup_alive_; }
    std::uint64_t failovers() const { return failovers_; }
    std::uint64_t resyncs() const { return resyncs_; }
    bool degraded() const { return !primary_alive_ || !backup_alive_; }
    bool bothDead() const { return !primary_alive_ && !backup_alive_; }
    /** Both replicas healthy and no copy in flight. */
    bool fullyRedundant() const
    {
        return primary_alive_ && backup_alive_ && !resync_.active;
    }
    bool resyncActive() const { return resync_.active; }
    NodeId primaryMn() const { return primary_mn_; }
    NodeId backupMn() const { return backup_mn_; }
    ClioClient &client() { return client_; }
    /** @} */

    /**
     * Re-replicate after a replica died: the same beginResync() copy
     * the controller drives, pumped until it finishes — so writes
     * issued meanwhile mirror into the copy, and a controller resync
     * cannot start alongside it. `replacement_mn` (a restarted or
     * spare board) must differ from the survivor's MN. kOk when both
     * replicas are already healthy; kRetryExceeded when both are dead
     * (nothing left to copy from) or a resync is already running;
     * kTimeout when a chunk read from the survivor fails (the partial
     * copy is freed, the survivor stays live for a later heal()) or an
     * MN of the copy is declared dead mid-copy (the copy is abandoned);
     * otherwise the replacement's alloc or write status. A failed copy
     * is never marked healthy. The dead replica's old VA is NOT freed —
     * its board lost that state when it crashed.
     */
    Status heal(NodeId replacement_mn);

    /** @{ Controller hooks (cluster + health plane). */

    /** Mark any replica living on MN `mn` dead: the controller declared
     * the board dead (Cluster::onMnDeclaredDead), the only way a
     * replica dies. Aborts an active resync whose source or target
     * sits on that MN. */
    void markMnDead(NodeId mn);

    /**
     * Start an asynchronous controller-driven re-replication onto
     * `replacement_mn`: alloc, then a chunked read→write pipeline of
     * CLibConfig::resync_chunk_bytes per step, advanced by completion
     * events (no pumping). `done(status)` fires exactly once from an
     * event context, with the status heal() reports. @return false
     * when not applicable (healthy, both dead, already resyncing, or
     * replacement == survivor's MN).
     */
    bool beginResync(NodeId replacement_mn,
                     std::function<void(Status)> done);
    /** @} */

    /** Release both replicas (and unregister from the registry). */
    void destroy();

  private:
    /** Resync tags on resync_cq_. */
    static constexpr std::uint64_t kTagAlloc = 0;
    static constexpr std::uint64_t kTagRead = 1;
    static constexpr std::uint64_t kTagWrite = 2;

    /** Drain-hook target: advance the resync state machine. */
    void pumpResync();
    /** Issue the read of the next chunk (or finish when done). */
    void issueResyncRead();
    void finishResync(Status status);

    ClioClient &client_;
    std::uint64_t size_ = 0;
    VirtAddr primary_ = 0;
    VirtAddr backup_ = 0;
    NodeId primary_mn_ = 0;
    NodeId backup_mn_ = 0;
    bool primary_alive_ = true;
    bool backup_alive_ = true;
    std::uint64_t failovers_ = 0;
    std::uint64_t resyncs_ = 0;

    /** Asynchronous resync state (one chunk in flight at a time; the
     * concurrency cap across regions lives in the health plane). */
    struct Resync
    {
        bool active = false;
        /** Set when the source/target died mid-copy; the state machine
         * fails at the next completion. */
        bool aborting = false;
        NodeId target_mn = 0;
        VirtAddr target_va = 0;
        std::uint64_t chunk = 0;
        /** Next offset whose read has NOT been issued yet. Writes at
         * offsets below this mirror into the target (see file docs). */
        std::uint64_t read_issued_end = 0;
        /** Chunk currently in flight. */
        std::uint64_t cur_off = 0;
        std::uint64_t cur_len = 0;
        /** The chunk's read is issued and its completion not yet
         * handled (its copy-write is not issued). */
        bool reading = false;
        std::vector<std::uint8_t> buf;
        std::function<void(Status)> done;
    };
    Resync resync_;
    CompletionQueue resync_cq_;
};

} // namespace clio

#endif // CLIO_CLIB_REPLICATION_HH
