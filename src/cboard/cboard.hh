/**
 * @file
 * CBoard: the Clio memory node device (§3.2, §4, Fig. 3).
 *
 * One CBoard combines:
 *  - a hardware *fast path* (modeled ASIC/FPGA pipeline) of stages,
 *    each charged in one function: ingress (MAC), admitPipeline and
 *    parseStage (MAT routing), translateOne (TLB hit or page walk,
 *    bounded-cycle page fault), memoryAccess (DRAM), respondStage.
 *    The pipeline is smooth (II = 1): its occupancy is one datapath
 *    word per cycle, and its latency per request is a bounded, known
 *    number of cycles plus at most one DRAM access for translation;
 *  - a software *slow path* (modeled ARM SoC) that owns metadata:
 *    VA allocation (overflow-free, with retries), VA free, physical
 *    page pre-generation into the async buffer, and shadow copies;
 *  - an *extend path* hosting application offloads (§4.6);
 *  - the two pieces of bounded state the paper allows the MN: the
 *    dedup buffer for retried non-idempotent requests (T4) and the
 *    synchronization unit for rlock/rfence (T3).
 *
 * Every network request ends at complete(); reject() sends the NACK
 * and the epoch-fence reply. fast_path.cc holds ingress, the fast
 * path and both exits; slow_path.cc the ARM path and the async
 * buffer; offload_dispatch.cc the extend path and OffloadVm;
 * lifecycle.cc construction, crash/restart and the inflight table.
 *
 * Correctness-affecting operations mutate functional state (real bytes
 * in PhysicalMemory) at packet-arrival order, while the timing model
 * computes when the response is emitted; CLib's ordering layer (T2)
 * guarantees no two dependent requests are concurrently outstanding,
 * which makes this split sound.
 */

#ifndef CLIO_CBOARD_CBOARD_HH
#define CLIO_CBOARD_CBOARD_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cboard/dedup_buffer.hh"
#include "mem/frame_allocator.hh"
#include "mem/physical_memory.hh"
#include "net/network.hh"
#include "offload/offload.hh"
#include "offload/runtime.hh"
#include "pagetable/hash_page_table.hh"
#include "pagetable/tlb.hh"
#include "proto/messages.hh"
#include "proto/wire.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_index.hh"
#include "valloc/va_allocator.hh"

namespace clio {

/** Counters exported by one CBoard. */
struct CBoardStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t atomics = 0;
    std::uint64_t fences = 0;
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t offload_calls = 0;
    /** Chained offload plans dispatched (subset of offload_calls). */
    std::uint64_t offload_chains = 0;
    std::uint64_t page_faults = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t bad_address = 0;
    std::uint64_t perm_denied = 0;
    std::uint64_t out_of_memory = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t alloc_retries = 0;
    /** Times this board was crashed by the failure layer. */
    std::uint64_t crashes = 0;
    /** Duplicated request packets dropped by the per-part bitmap. */
    std::uint64_t dup_parts_dropped = 0;
    /** Request packets dropped as malformed: a part index or part count
     * that contradicts the request, or a write slice outside its data. */
    std::uint64_t malformed_parts_dropped = 0;
    /** Liveness beacons emitted (health plane). */
    std::uint64_t heartbeats_sent = 0;
    /** Requests rejected for carrying a stale membership epoch. */
    std::uint64_t epoch_fenced = 0;
    /** Locks force-released by the controller's CN-death GC. */
    std::uint64_t locks_reclaimed = 0;
};

/** The hardware memory node. */
class CBoard
{
  public:
    /**
     * Create a CBoard attached to `network`.
     * @param phys_bytes on-board DRAM capacity (0 = cfg.mn_phys_bytes).
     * @param rack rack whose ToR the board's port connects to.
     */
    CBoard(EventQueue &eq, Network &network, const ModelConfig &cfg,
           std::uint64_t phys_bytes = 0, RackId rack = 0);

    NodeId nodeId() const { return node_; }

    /** @{ Component access for tests, benches, and the controller. */
    HashPageTable &pageTable() { return page_table_; }
    Tlb &tlb() { return tlb_; }
    FrameAllocator &frames() { return frames_; }
    PhysicalMemory &memory() { return memory_; }
    VaAllocator &vaAllocator() { return valloc_; }
    DedupBuffer &dedupBuffer() { return dedup_; }
    const CBoardStats &stats() const { return stats_; }
    const ModelConfig &config() const { return cfg_; }
    /** @} */

    /**
     * Deploy an offload under its descriptor; it gets a fresh PID and
     * empty RAS. Offloads with a fixed schema provide their own
     * (e.g. ClioKvOffload::descriptor(id)); ad-hoc ones pass
     * `{.id = N}`. @return the offload's PID.
     */
    ProcId registerOffload(OffloadDescriptor desc,
                           std::shared_ptr<Offload> offload);

    /**
     * Deploy an offload that *shares* an existing address space
     * (Clio-DF style: CN computation and MN offloads on one RAS, §6).
     */
    void registerOffloadShared(OffloadDescriptor desc,
                               std::shared_ptr<Offload> offload,
                               ProcId pid);

    /** The extend-path runtime: registry, engine scheduler, stats. */
    OffloadRuntime &offloadRuntime() { return offload_rt_; }
    const OffloadRuntime &offloadRuntime() const { return offload_rt_; }

    /** Fraction of physical frames in use (controller pressure input,
     * §4.7); counts frames reserved in the async buffer as used. */
    double memoryPressure() const { return frames_.utilization(); }

    /**
     * Controller hook invoked when a process' VA windows on this MN
     * cannot fit an allocation; should add windows (via vaAllocator())
     * and return true to make the slow path retry once.
     */
    void
    setWindowRequestHook(
        std::function<bool(ProcId, std::uint64_t)> hook)
    {
        window_request_ = std::move(hook);
    }

    /**
     * Windowed mode (multi-MN clusters): every process must allocate
     * inside controller-assigned windows, so VAs handed out by
     * different MNs never collide. The window hook is consulted up
     * front for processes with no windows yet.
     */
    void setWindowedMode(bool on) { windowed_mode_ = on; }

    /**
     * Fast-path timing for one request, bypassing the network — used
     * by the developer simulator (§5), the on-board traffic generator
     * bench (Fig. 9) and the latency breakdown (Fig. 14). The request
     * runs the packet path as one part, so it mutates functional state,
     * charges time and fills its reply exactly like a network request
     * would (a failed request answers header-only).
     *
     * @param ready tick at which the request is at the pipeline head.
     * @param[out] resp filled with status, data and value.
     * @return tick at which the fast path completes the request.
     */
    Tick serviceFastPath(const RequestMsg &req, Tick ready,
                         ResponseMsg &resp);

    /** @{ Direct slow-path entry points (no network), used by offloads
     * and by the cluster controller during setup/migration. The Tick
     * return is the modeled processing cost (not including the
     * interconnect crossings a network request would pay).
     * @param populate bind physical frames eagerly (Fig. 12's
     *        Clio-Alloc-Phys series). */
    Tick slowPathAlloc(ProcId pid, std::uint64_t size, std::uint8_t perm,
                       ResponseMsg &resp, bool populate = false);
    Tick slowPathFree(ProcId pid, VirtAddr addr, ResponseMsg &resp);
    /** @} */

    /** Invoke a registered offload directly (no network) — the
     * developer-simulator path (§5) and offload unit tests.
     * @param split when non-null, receives the invocation's cost split.
     * @return modeled device time of the invocation. */
    Tick invokeOffloadLocal(std::uint32_t offload_id,
                            const std::vector<std::uint8_t> &arg,
                            OffloadResult &result,
                            OffloadCost *split = nullptr);

    /** Requests with packets received but no response yet, including
     * abandoned ones the GC has not collected (test hook). */
    std::size_t inflightEntries() const { return inflight_index_.size(); }

    /** Tear down a process: drop VA state, PTEs, frames, TLB entries. */
    void destroyProcess(ProcId pid);

    /** Zero a bound frame and return it to the allocator, so a frame
     * never carries one process's bytes to the next. Functional only:
     * it adds no modeled time. */
    void freeFrame(PhysAddr frame);

    /** @{ Failure layer (chaos engine). A crashed board ignores every
     * packet (its port should also be marked down in the Network so
     * in-flight traffic is dropped); restart() models a board coming
     * back EMPTY — DRAM, page table, TLB, VA state, dedup buffer, and
     * watermarks are all reinitialized, registered offloads re-run
     * init(). Durable state is the replication/controller layer's
     * problem, exactly like on real hardware. */
    bool alive() const { return alive_; }
    void crash();
    void restart();
    /** @} */

    /** @{ Health plane. The epoch fence rejects every request stamped
     * with an epoch older than `epoch`: the controller sets it when a
     * board rejoins after being declared dead, so clients that have
     * not yet learned of the new membership cannot write to the
     * zombie's (empty) address space (split-brain prevention). A fence
     * of 0 — the boot/restart value — never fences. */
    void setEpochFence(std::uint64_t epoch) { epoch_fence_ = epoch; }
    std::uint64_t epochFence() const { return epoch_fence_; }
    /** Start emitting liveness beacons to `controller` every `period`
     * ticks, first one at `phase` (staggered per board). Beacons are
     * real packets through the fabric, so rack kills and fault windows
     * genuinely delay or drop them. */
    void
    startHeartbeats(NodeId controller, Tick period, Tick phase)
    {
        heartbeat_.start(node_, controller, period, phase);
    }
    /** Monotonic restart count, carried in heartbeats so the
     * controller can spot a crash+restart inside one lease window. */
    std::uint64_t incarnation() const { return incarnation_; }

    /**
     * Force-release every lock owned by CN `cn` (controller GC after a
     * CN death): the lock word is functionally written back to 0 so
     * surviving clients can acquire it. @return locks released.
     */
    std::uint64_t releaseLocksOwnedBy(NodeId cn);
    /** @} */

    /** Offload VM access used by OffloadVm (translate + move bytes).
     * @param start the offload's logical time (>= now; an invocation
     *        accumulates cost ahead of the simulation clock).
     * @param split when non-null, accumulates the access' time per
     *        component (translate / dram).
     * @return completion tick, or kTickMax on fault. */
    Tick vmAccess(ProcId pid, VirtAddr addr, void *buf, std::uint64_t len,
                  bool is_write, Tick start, OffloadCost *split = nullptr);

  private:
    friend class OffloadVm;

    /** Per-inflight-request reassembly/completion state. */
    struct Inflight
    {
        PartTracker parts;
        /** Max completion tick over per-packet processing. */
        Tick done = 0;
        /** Set when any part failed translation/permission. */
        Status status = Status::kOk;
        /** Duplicate or retry suppressed by the dedup buffer. */
        bool suppressed = false;
        /** Reply value: an atomic's old value, or the cached value a
         * suppressed request replays. */
        std::uint64_t value = 0;
        /** Arrival tick of the most recent packet: an abandoned
         * request (remaining packets lost, client retried under a new
         * id) stops receiving packets, which is what the GC keys on.
         * Long multi-packet transfers keep refreshing it. */
        Tick last_seen = 0;
        /** The request, set by its first accepted part. */
        std::shared_ptr<const RequestMsg> req;
        /** Request id the entry is filed under, while `used`. */
        ReqId id = 0;
        bool used = false;
    };

    /** Slot of the inflight entry of request `id`, creating an empty
     * one if absent. Creating may grow the slot array, so take
     * Inflight references only after this returns. */
    std::uint32_t inflightSlot(ReqId id);

    /** Unfile and reset an inflight entry (its request reference is
     * dropped so the sender's MessagePool can recycle the message)
     * and free its slot. */
    void releaseInflight(std::uint32_t slot);

    /** Sweep inflight entries abandoned for longer than ~10x a client
     * timeout (their packets were lost; the client retried with a new
     * id). Runs opportunistically every few thousand packets. */
    void gcInflight();

    /** Ingress from the network. */
    void onPacket(Packet pkt);

    /** @{ Stages every path shares, each charged only here: the tick a
     * packet arriving now clears the MAC, and the parse (MAT routing)
     * and respond stages entered at `t`. */
    Tick ingress() const { return eq_.now() + cfg_.fast_path.mac_latency; }
    Tick
    parseStage(Tick t) const
    {
        return t + cfg_.fast_path.parse_cycles * cfg_.fast_path.cycle;
    }
    Tick
    respondStage(Tick t) const
    {
        return t + cfg_.fast_path.respond_cycles * cfg_.fast_path.cycle;
    }
    /** @} */

    /** Admit one request packet into its inflight entry: drop (and
     * count) a duplicated or malformed part, else record it. The first
     * accepted part binds the request and runs the dedup check for
     * writes, atomics, allocs and frees.
     * @return whether the part is new and should be processed. */
    bool acceptPart(const Packet &pkt, Inflight &inflight);

    /** Handle one fast-path part (read/write slice/atomic/fence) of
     * `req`, which reaches the pipeline head at `ready`.
     * @param resp the response, when this part completes the request:
     *        a read copies its data into it while translating. */
    void fastPathPacket(const RequestMsg &req, const Packet &pkt,
                        Tick ready, Inflight &inflight, ResponseMsg *resp);

    /** Occupy the fast-path pipeline (II = 1: one datapath word per
     * cycle) with `bytes` entering at `ready`, then the parse stage.
     * @return the tick the parsed request leaves the MAT. */
    Tick admitPipeline(Tick ready, std::uint64_t bytes);

    /** Translate one VA; handles TLB, page fault, permission.
     * @return PTE copy, or nullopt with `status` set; advances `t` by
     * the modeled translation time. */
    std::optional<Pte> translateOne(ProcId pid, VirtAddr va,
                                    bool is_write, Tick &t,
                                    Status &status);

    /** Charge one DRAM access of `bytes` at tick `t` (DMA setup +
     * latency + bandwidth occupancy); returns the completion tick. */
    Tick memoryAccess(Tick t, std::uint64_t bytes, bool is_write);

    /**
     * Access [va, va + len) page by page starting at tick `t`: per page
     * translateOne, then the byte copy to or from `buf` (none when
     * null), then memoryAccess. Stops at the first failed translation
     * with `status` set. The one place translation and DRAM time of a
     * data access are charged.
     * @param split when non-null, accumulates translate / dram time.
     * @param moved when non-null, accumulates the bytes accessed.
     * @param read_out when non-null (reads without `buf`), each page's
     *        bytes are appended to it, so a length that outruns the
     *        mapping never sizes it past the pages that translated.
     * @return tick the last access (or failed translation) completes.
     */
    Tick walkPages(ProcId pid, VirtAddr va, std::uint64_t len,
                   bool is_write, Tick t, Status &status,
                   std::uint8_t *buf = nullptr, OffloadCost *split = nullptr,
                   std::uint64_t *moved = nullptr,
                   std::vector<std::uint8_t> *read_out = nullptr);

    /** Set a completed fast-path request's reply: its status, no data
     * when it failed, an atomic's old value. */
    static void fillReply(const RequestMsg &req, const Inflight &inflight,
                          ResponseMsg &resp);

    /** End the request in inflight slot `slot` at `done`: record it in
     * the dedup buffer, advance the fence watermark to `done`, send
     * `resp` after the respond stage and the egress MAC, free `slot`. */
    void complete(std::uint32_t slot, Tick done,
                  std::shared_ptr<ResponseMsg> resp);

    /** Answer `pkt` header-only with `status` at `when`, keeping no
     * request state: the corrupt-packet NACK and the epoch-fence reply. */
    void reject(const Packet &pkt, Status status, Tick when);

    /** Run the complete slow-path request (alloc/free) in `slot`. */
    void slowPathRequest(std::uint32_t slot);

    /** Handle one accepted extend-path (offload) packet of the request
     * in inflight slot `slot`. */
    void extendPathPacket(const Packet &pkt, std::uint32_t slot);

    /** Boot-time async-buffer pre-fill (ctor and restart()). */
    void bootstrapAsyncBuffer();

    /** Schedule an async-buffer refill if one is not already pending. */
    void maybeScheduleRefill();

    /** Pop a pre-generated frame for a page fault; sets `t` to when a
     * frame is available (waits for refill when dry). Returns nullopt
     * only when physical memory is truly exhausted. */
    std::optional<PhysAddr> popFreeFrame(Tick &t);

    EventQueue &eq_;
    Network &net_;
    ModelConfig cfg_;
    NodeId node_;
    /** DRAM capacity, kept so restart() can rebuild the components. */
    std::uint64_t phys_bytes_ = 0;
    /** Cleared by crash(), set again by restart(). */
    bool alive_ = true;

    PhysicalMemory memory_;
    FrameAllocator frames_;
    HashPageTable page_table_;
    Tlb tlb_;
    VaAllocator valloc_;
    DedupBuffer dedup_;
    AsyncFreePageBuffer async_buffer_;

    /** @{ Resource-occupancy watermarks (timing model). */
    Tick pipeline_free_ = 0;  ///< fast-path pipeline (II=1 occupancy)
    Tick dram_free_ = 0;      ///< DRAM bandwidth occupancy
    Tick atomic_free_ = 0;    ///< synchronization unit serialization
    Tick arm_free_ = 0;       ///< slow-path ARM worker serialization
    Tick gate_open_ = 0;      ///< rfence gate: ops start after this
    Tick last_op_done_ = 0;   ///< latest `done` tick: what a fence awaits
    /** @} */

    /** Async-buffer refill bookkeeping. */
    bool refill_pending_ = false;
    Tick refill_done_ = 0;
    /** Max frames the buffer reserves (≤ capacity; bounded by a
     * quarter of physical memory for small configurations). */
    std::uint32_t reserve_cap_ = 0;

    /** @{ Inflight reassembly entries: a slot array recycled through
     * a free list (the GC walks it in slot order) and the id -> slot
     * index. */
    std::vector<Inflight> inflight_;
    std::vector<std::uint32_t> inflight_free_;
    FlatIndex<ReqId> inflight_index_;
    /** @} */
    std::uint64_t packets_since_gc_ = 0;

    /** Recycling ring for response messages (one per completed
     * request; alive ~one RTT until the CN's completion fires). */
    MessagePool<ResponseMsg> resp_pool_;

    /** Extend-path runtime (registry + engine scheduler). Deployments
     * are durable configuration: they survive crash()/restart(), which
     * re-runs init() via OffloadRuntime::reinit(). */
    OffloadRuntime offload_rt_;

    std::function<bool(ProcId, std::uint64_t)> window_request_;
    bool windowed_mode_ = false;

    /** @{ Health-plane state. Lock ownership is an ordered map so the
     * CN-death GC iterates (and thus writes memory) in a deterministic
     * order; keyed (pid, lock VA), value = owning CN's node. */
    std::map<std::pair<ProcId, VirtAddr>, NodeId> lock_owners_;
    std::uint64_t epoch_fence_ = 0;
    std::uint64_t incarnation_ = 0;
    HeartbeatSource heartbeat_;
    /** @} */

    CBoardStats stats_;
};

} // namespace clio

#endif // CLIO_CBOARD_CBOARD_HH
