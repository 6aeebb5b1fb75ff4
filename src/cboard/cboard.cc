#include "cboard/cboard.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

CBoard::CBoard(EventQueue &eq, Network &network, const ModelConfig &cfg,
               std::uint64_t phys_bytes, RackId rack)
    : eq_(eq), net_(network), cfg_(cfg),
      memory_(phys_bytes ? phys_bytes : cfg.mn_phys_bytes),
      frames_(memory_.capacity(), cfg.page_table.page_size),
      page_table_(memory_.capacity(), cfg.page_table.page_size,
                  cfg.page_table.bucket_slots,
                  cfg.page_table.overprovision),
      tlb_(cfg.fast_path.tlb_entries),
      valloc_(cfg.page_table.page_size, 1ull << 46),
      dedup_(cfg.dedup.entries),
      async_buffer_(cfg.slow_path.async_buffer_pages),
      offload_rt_(cfg.offload, cfg.fast_path.cycle),
      heartbeat_(eq, network, [this](HeartbeatMsg &hb) {
          if (!alive_)
              return false;
          hb.epoch = epoch_fence_;
          hb.incarnation = incarnation_;
          stats_.heartbeats_sent++;
          return true;
      })
{
    phys_bytes_ = phys_bytes ? phys_bytes : cfg.mn_phys_bytes;
    node_ = net_.addNode([this](Packet pkt) { onPacket(std::move(pkt)); },
                         rack);
    bootstrapAsyncBuffer();
}

void
CBoard::bootstrapAsyncBuffer()
{
    // Boot-time pre-generation: the ARM fills the async buffer before
    // the board starts serving (§4.3). Reservation is capped to a
    // quarter of physical memory so tiny test MNs keep frames
    // available for eager allocation and migration admission.
    reserve_cap_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        async_buffer_.capacity(),
        std::max<std::uint64_t>(1, frames_.totalFrames() / 4)));
    while (async_buffer_.vacancy() > 0 &&
           async_buffer_.size() < reserve_cap_) {
        auto frame = frames_.allocate();
        if (!frame)
            break;
        async_buffer_.push(*frame);
    }
}

void
CBoard::crash()
{
    if (!alive_)
        return;
    alive_ = false;
    stats_.crashes++;
    // The pipeline state and inflight reassembly die with the board.
    inflight_.clear();
    inflight_free_.clear();
    inflight_index_.clear();
    lock_owners_.clear();
}

void
CBoard::restart()
{
    if (alive_)
        return;
    // The board comes back EMPTY: volatile DRAM plus every structure
    // derived from it is rebuilt from scratch. Anything a client
    // stored here is gone unless the replication layer kept a copy.
    memory_ = PhysicalMemory(phys_bytes_);
    frames_ = FrameAllocator(memory_.capacity(),
                             cfg_.page_table.page_size);
    page_table_ = HashPageTable(memory_.capacity(),
                                cfg_.page_table.page_size,
                                cfg_.page_table.bucket_slots,
                                cfg_.page_table.overprovision);
    tlb_ = Tlb(cfg_.fast_path.tlb_entries);
    valloc_ = VaAllocator(cfg_.page_table.page_size, 1ull << 46);
    dedup_ = DedupBuffer(cfg_.dedup.entries);
    async_buffer_ = AsyncFreePageBuffer(cfg_.slow_path.async_buffer_pages);

    pipeline_free_ = 0;
    dram_free_ = 0;
    atomic_free_ = 0;
    arm_free_ = 0;
    gate_open_ = 0;
    last_op_done_ = 0;
    refill_pending_ = false;
    refill_done_ = 0;
    packets_since_gc_ = 0;
    lock_owners_.clear();
    // A rebooted board fences nothing until the controller observes
    // the rejoin and installs the new epoch; its empty address space
    // answers kBadAddress meanwhile, which is safe.
    epoch_fence_ = 0;
    incarnation_++;
    heartbeat_.resetSequence();
    alive_ = true;
    bootstrapAsyncBuffer();

    // Re-deploy registered offloads into the fresh board (sorted id
    // order, engine watermarks cleared).
    offload_rt_.reinit(*this);
}

// ---------------------------------------------------------------------
// Ingress + MAT routing
// ---------------------------------------------------------------------

std::uint32_t
CBoard::inflightSlot(ReqId id)
{
    std::uint32_t slot = inflight_index_.find(id);
    if (slot != inflight_index_.kNone)
        return slot;
    if (inflight_free_.empty()) {
        slot = static_cast<std::uint32_t>(inflight_.size());
        inflight_.emplace_back();
    } else {
        slot = inflight_free_.back();
        inflight_free_.pop_back();
    }
    inflight_[slot].id = id;
    inflight_[slot].used = true;
    inflight_index_.insert(id, slot);
    return slot;
}

void
CBoard::releaseInflight(std::uint32_t slot)
{
    inflight_index_.erase(inflight_[slot].id);
    inflight_[slot] = Inflight{};
    inflight_free_.push_back(slot);
}

void
CBoard::gcInflight()
{
    const Tick horizon = 10 * cfg_.clib.timeout;
    if (eq_.now() < horizon)
        return;
    const Tick cutoff = eq_.now() - horizon;
    for (std::uint32_t slot = 0; slot < inflight_.size(); slot++) {
        if (inflight_[slot].used && inflight_[slot].last_seen < cutoff)
            releaseInflight(slot);
    }
}

void
CBoard::onPacket(Packet pkt)
{
    if (!alive_)
        return; // crashed board: the port eats the packet silently
    if (++packets_since_gc_ >= 4096) {
        packets_since_gc_ = 0;
        gcInflight();
    }
    if (pkt.corrupted) {
        // Slim link layer: checksum fails, NACK immediately (§4.4).
        stats_.nacks_sent++;
        auto resp = resp_pool_.acquire();
        resp->req_id = pkt.req_id;
        resp->status = Status::kCorrupt;
        const Tick when = eq_.now() + cfg_.fast_path.mac_latency +
                          2 * cfg_.fast_path.cycle;
        respondAt(when, pkt.src, pkt.req_id, std::move(resp));
        return;
    }

    clio_assert(pkt.type != MsgType::kResponse &&
                    pkt.type != MsgType::kNack &&
                    pkt.type != MsgType::kHeartbeat,
                "MN received a non-request packet");

    // Epoch fence (split-brain guard): a request stamped with an epoch
    // older than this board's rejoin epoch comes from a client that has
    // not yet learned the board died and came back empty — reject it
    // before it can read stale void or write into the wrong incarnation.
    // Every packet of a fenced request is answered identically (the
    // board keeps no per-request state for them); the CN completes on
    // the first response and drops the rest as stale.
    if (epoch_fence_ != 0 &&
        static_cast<const RequestMsg &>(*pkt.msg).epoch < epoch_fence_) {
        stats_.epoch_fenced++;
        auto resp = resp_pool_.acquire();
        resp->req_id = pkt.req_id;
        resp->status = Status::kEpochFenced;
        const Tick when = eq_.now() + cfg_.fast_path.mac_latency +
                          cfg_.fast_path.parse_cycles * cfg_.fast_path.cycle;
        respondAt(when, pkt.src, pkt.req_id, std::move(resp));
        return;
    }

    // Every request is admitted part by part into its inflight entry,
    // then served by its path: the fast path per part, the slow and
    // extend paths once the request is complete.
    const std::uint32_t slot = inflightSlot(pkt.req_id);
    Inflight &inflight = inflight_[slot];
    if (!acceptPart(pkt, inflight))
        return;
    if (pkt.type == MsgType::kOffload) {
        extendPathPacket(pkt, slot);
        return;
    }
    if (pkt.type == MsgType::kAlloc || pkt.type == MsgType::kFree) {
        if (inflight.parts.complete()) {
            slowPathRequest(inflight);
            releaseInflight(slot);
        }
        return;
    }
    const auto &req = *inflight.req;
    const Tick ready = eq_.now() + cfg_.fast_path.mac_latency;
    if (!inflight.parts.complete()) {
        fastPathPacket(req, pkt, ready, inflight, nullptr);
        return;
    }
    auto resp = resp_pool_.acquire();
    fastPathPacket(req, pkt, ready, inflight, resp.get());
    resp->req_id = req.req_id;
    resp->status = inflight.status;
    if (inflight.status != Status::kOk)
        resp->data.clear(); // a failed read answers header-only
    else if (req.type == MsgType::kAtomic)
        resp->value = inflight.value;
    // Record non-idempotent completions in the dedup buffer under the
    // ORIGINAL attempt id (T4).
    if (inflight.status == Status::kOk && !inflight.suppressed &&
        (req.type == MsgType::kWrite || req.type == MsgType::kAtomic))
        dedup_.record(req.orig_req_id, inflight.value);
    const Tick when = inflight.done +
                      cfg_.fast_path.respond_cycles * cfg_.fast_path.cycle +
                      cfg_.fast_path.mac_latency;
    last_op_done_ = std::max(last_op_done_, inflight.done);
    respondAt(when, req.src, req.req_id, std::move(resp));
    releaseInflight(slot);
}

bool
CBoard::acceptPart(const Packet &pkt, Inflight &inflight)
{
    inflight.last_seen = eq_.now();
    const auto &req = inflight.req
                          ? *inflight.req
                          : static_cast<const RequestMsg &>(*pkt.msg);
    // The fast path copies a write slice straight out of the request's
    // data, so the slice must lie inside it.
    const bool slice_ok =
        req.type != MsgType::kWrite ||
        (pkt.payload_offset <= req.data.size() &&
         pkt.payload_len <= req.data.size() - pkt.payload_offset);
    // A switch-duplicated part must not be processed twice; re-execution
    // of whole duplicated REQUESTS after completion is the dedup
    // buffer's job.
    switch (slice_ok ? inflight.parts.add(pkt.part, pkt.total_parts)
                     : PartTracker::Verdict::kMalformed) {
      case PartTracker::Verdict::kNew:
        break;
      case PartTracker::Verdict::kDuplicate:
        stats_.dup_parts_dropped++;
        return false;
      case PartTracker::Verdict::kMalformed:
        stats_.malformed_parts_dropped++;
        return false;
    }
    if (!inflight.req) {
        inflight.req = std::static_pointer_cast<const RequestMsg>(pkt.msg);
        // Dedup check happens once per request (T4): a duplicate or
        // retry of a write/atomic/alloc/free whose original executed is
        // suppressed and replies with the original's value.
        const bool non_idempotent =
            req.type == MsgType::kWrite || req.type == MsgType::kAtomic ||
            req.type == MsgType::kAlloc || req.type == MsgType::kFree;
        if (non_idempotent) {
            if (auto cached = dedup_.find(req.orig_req_id)) {
                inflight.suppressed = true;
                inflight.value = *cached;
                dedup_.noteSuppressed();
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Fast path
// ---------------------------------------------------------------------

std::optional<Pte>
CBoard::translateOne(ProcId pid, VirtAddr va, bool is_write, Tick &t,
                     Status &status)
{
    const std::uint64_t page_size = cfg_.page_table.page_size;
    const std::uint64_t vpn = va / page_size;

    t += cfg_.fast_path.tlb_lookup_cycles * cfg_.fast_path.cycle;
    const Pte *cached = tlb_.lookup(pid, vpn);
    Pte pte;
    if (cached) {
        pte = *cached;
    } else {
        // Exactly one DRAM bucket fetch (§4.2).
        t += cfg_.dram.access_latency;
        const Pte *stored = page_table_.lookup(pid, vpn);
        if (!stored) {
            stats_.bad_address++;
            status = Status::kBadAddress;
            return std::nullopt;
        }
        pte = *stored;
        tlb_.insert(pte);
    }

    const std::uint8_t need = is_write ? kPermWrite : kPermRead;
    if ((pte.perm & need) != need) {
        stats_.perm_denied++;
        status = Status::kPermDenied;
        return std::nullopt;
    }

    if (!pte.present) {
        // Hardware page fault: constant cycles + async-buffer pop
        // (§4.3). PTE writeback and TLB insert happen in parallel with
        // resuming the faulting request, so they add no latency.
        stats_.page_faults++;
        t += cfg_.fast_path.page_fault_cycles * cfg_.fast_path.cycle;
        auto frame = popFreeFrame(t);
        if (!frame) {
            stats_.out_of_memory++;
            status = Status::kOutOfMemory;
            return std::nullopt;
        }
        page_table_.bindFrame(pid, vpn, *frame);
        pte.frame = *frame;
        pte.present = true;
        tlb_.insert(pte);
    }
    return pte;
}

Tick
CBoard::memoryAccess(Tick t, std::uint64_t bytes, bool is_write)
{
    // The DMA engine is non-pipelined (the FPGA IP the paper blames
    // for small-read throughput, Fig. 9): its per-request setup
    // occupies the engine, not just the request's latency.
    const Tick setup = is_write ? cfg_.fast_path.dma_write_setup
                                : cfg_.fast_path.dma_read_setup;
    const Tick xfer = static_cast<Tick>(bytes) *
                      ticksPerByte(cfg_.dram.bandwidth_bps);
    const Tick start = std::max(t, dram_free_);
    dram_free_ = start + setup + xfer;
    return start + setup + cfg_.dram.access_latency + xfer;
}

void
CBoard::fastPathPacket(const RequestMsg &req, const Packet &pkt, Tick ready,
                       Inflight &inflight, ResponseMsg *resp)
{
    // Fence gate, then the pipeline. Read responses stream their
    // payload back through the same datapath, so a read occupies the
    // pipeline for its response bytes as well.
    const std::uint64_t egress_bytes =
        req.type == MsgType::kRead && pkt.part == 0 ? req.size : 0;
    Tick t = admitPipeline(std::max(ready, gate_open_),
                           pkt.wire_bytes + egress_bytes);

    if (inflight.status != Status::kOk || inflight.suppressed) {
        // Earlier part failed, or duplicate: skip execution, keep
        // timing cheap for remaining parts.
        inflight.done = std::max(inflight.done, t);
        return;
    }

    Status status = Status::kOk;
    switch (req.type) {
      case MsgType::kRead:
        stats_.reads++;
        stats_.bytes_read += req.size;
        // The completing part streams the data into the response as it
        // translates: one translation per page per read.
        t = walkPages(req.pid, req.addr, req.size, false, t, status,
                      nullptr, nullptr, nullptr,
                      resp ? &resp->data : nullptr);
        break;
      case MsgType::kWrite:
        // This packet carries payload [payload_offset, +payload_len),
        // checked against req.data by acceptPart.
        if (pkt.part == 0) {
            stats_.writes++;
            stats_.bytes_written += req.size;
        }
        // walkPages only reads `buf` on a write.
        t = walkPages(req.pid, req.addr + pkt.payload_offset,
                      pkt.payload_len, true, t, status,
                      const_cast<std::uint8_t *>(req.data.data()) +
                          pkt.payload_offset);
        break;
      case MsgType::kAtomic: {
        stats_.atomics++;
        auto pte = translateOne(req.pid, req.addr, true, t, status);
        if (pte) {
            // The synchronization unit serializes atomics (T3).
            t = std::max(t, atomic_free_);
            const PhysAddr pa =
                pte->frame + req.addr % cfg_.page_table.page_size;
            t = memoryAccess(t, 8, true);
            const std::uint64_t old = memory_.read64(pa);
            switch (req.aop) {
              case AtomicOp::kTestAndSet:
                memory_.write64(pa, 1);
                // Successful rlock acquire: remember which CN holds
                // it so the controller's CN-death GC can release it.
                if (old == 0)
                    lock_owners_[{req.pid, req.addr}] = req.src;
                break;
              case AtomicOp::kStore:
                memory_.write64(pa, req.arg0);
                // runlock (store 0) releases ownership.
                if (req.arg0 == 0)
                    lock_owners_.erase({req.pid, req.addr});
                break;
              case AtomicOp::kFetchAdd:
                memory_.write64(pa, old + req.arg0);
                break;
              case AtomicOp::kCompareSwap:
                if (old == req.arg0)
                    memory_.write64(pa, req.arg1);
                break;
            }
            inflight.value = old;
            atomic_free_ = t;
        }
        break;
      }
      case MsgType::kFence: {
        stats_.fences++;
        // Block until every inflight op completes, and gate later
        // arrivals until then (T3).
        t = std::max(t, last_op_done_);
        gate_open_ = std::max(gate_open_, t);
        break;
      }
      default:
        clio_panic("non-fast-path type in fastPathPacket");
    }

    inflight.status = status;
    inflight.done = std::max(inflight.done, t);
}

Tick
CBoard::serviceFastPath(const RequestMsg &req, Tick ready,
                        ResponseMsg &resp)
{
    // The whole request as one part of the packet path: header-only
    // for a read, the whole payload for a write.
    Packet pkt;
    if (req.type == MsgType::kWrite) {
        clio_assert(req.size + kPacketHeaderBytes <= UINT32_MAX,
                    "whole-request write does not fit one part");
        pkt.payload_len = static_cast<std::uint32_t>(req.size);
    }
    pkt.wire_bytes = pkt.payload_len + kPacketHeaderBytes;
    Inflight inflight;
    resp.data.clear();
    fastPathPacket(req, pkt, ready, inflight, &resp);
    resp.req_id = req.req_id;
    resp.status = inflight.status;
    const Tick t =
        inflight.done + cfg_.fast_path.respond_cycles * cfg_.fast_path.cycle;
    last_op_done_ = std::max(last_op_done_, t);
    return t;
}

Tick
CBoard::admitPipeline(Tick ready, std::uint64_t bytes)
{
    const FastPathConfig &fp = cfg_.fast_path;
    const std::uint64_t datapath_bytes = fp.datapath_bits / 8;
    const std::uint64_t words = std::max<std::uint64_t>(
        1, (bytes + datapath_bytes - 1) / datapath_bytes);
    pipeline_free_ = std::max(ready, pipeline_free_) + words * fp.cycle;
    return pipeline_free_ + fp.parse_cycles * fp.cycle;
}

Tick
CBoard::walkPages(ProcId pid, VirtAddr va, std::uint64_t len, bool is_write,
                  Tick t, Status &status, std::uint8_t *buf,
                  OffloadCost *split, std::uint64_t *moved,
                  std::vector<std::uint8_t> *read_out)
{
    const std::uint64_t page_size = cfg_.page_table.page_size;
    while (len > 0) {
        const std::uint64_t in_page = va % page_size;
        const std::uint64_t n = std::min(len, page_size - in_page);
        const Tick start = t;
        const auto pte = translateOne(pid, va, is_write, t, status);
        if (!pte)
            break;
        const PhysAddr pa = pte->frame + in_page;
        if (buf) {
            if (is_write)
                memory_.write(pa, buf, n);
            else
                memory_.read(pa, buf, n);
            buf += n;
        } else if (read_out) {
            read_out->resize(read_out->size() + n);
            memory_.read(pa, read_out->data() + read_out->size() - n, n);
        }
        const Tick translated = t;
        t = memoryAccess(t, n, is_write);
        if (split) {
            split->translate += translated - start;
            split->dram += t - translated;
        }
        if (moved)
            *moved += n;
        va += n;
        len -= n;
    }
    return t;
}

// ---------------------------------------------------------------------
// Page-fault physical frames (async buffer, §4.3)
// ---------------------------------------------------------------------

void
CBoard::maybeScheduleRefill()
{
    if (refill_pending_)
        return;
    if (async_buffer_.size() * 2 >= reserve_cap_)
        return;
    if (frames_.freeFrames() == 0)
        return;
    refill_pending_ = true;
    const std::uint32_t batch = std::min<std::uint32_t>(
        reserve_cap_ - async_buffer_.size(),
        static_cast<std::uint32_t>(frames_.freeFrames()));
    // The ARM pre-generates `batch` frames in the background; the
    // refill reaches the hardware FIFO through the FPGA<->ARM
    // interconnect (§4.3 — the latency the buffer exists to hide).
    const Tick done = eq_.now() + cfg_.slow_path.interconnect_crossing +
                      cfg_.slow_path.palloc_per_page * batch;
    refill_done_ = done;
    eq_.schedule(done, [this, batch] {
        refill_pending_ = false;
        for (std::uint32_t i = 0; i < batch; i++) {
            if (async_buffer_.size() >= reserve_cap_)
                break;
            auto frame = frames_.allocate();
            if (!frame)
                break;
            async_buffer_.push(*frame);
        }
        maybeScheduleRefill();
    });
}

std::optional<PhysAddr>
CBoard::popFreeFrame(Tick &t)
{
    auto frame = async_buffer_.pop();
    if (frame) {
        maybeScheduleRefill();
        return frame;
    }
    // Buffer ran dry: the faulting request waits for the background
    // refill (this should be rare — the refill throughput exceeds
    // line rate in the paper's design).
    auto direct = frames_.allocate();
    if (!direct)
        return std::nullopt; // physical memory exhausted
    maybeScheduleRefill();
    t = std::max(t, refill_pending_
                        ? refill_done_
                        : t + cfg_.slow_path.interconnect_crossing +
                              cfg_.slow_path.palloc_per_page);
    return direct;
}

// ---------------------------------------------------------------------
// Slow path (ARM): allocation / free
// ---------------------------------------------------------------------

Tick
CBoard::slowPathAlloc(ProcId pid, std::uint64_t size, std::uint8_t perm,
                      ResponseMsg &resp, bool populate)
{
    if (windowed_mode_ && valloc_.windowBytes(pid) == 0 &&
        window_request_) {
        // First allocation of this process on this MN: get windows
        // from the global controller (§4.7).
        window_request_(pid, size);
    }
    auto res = valloc_.allocate(pid, size, perm, page_table_);
    if (!res && window_request_ && window_request_(pid, size))
        res = valloc_.allocate(pid, size, perm, page_table_);
    if (!res) {
        stats_.out_of_memory++;
        resp.status = Status::kOutOfMemory;
        return cfg_.slow_path.valloc_base;
    }
    for (auto vpn : res->vpns)
        page_table_.insert(pid, vpn, perm);
    Tick cost = cfg_.slow_path.valloc_base +
                cfg_.slow_path.valloc_per_page * res->vpns.size() +
                cfg_.slow_path.valloc_retry * res->retries;
    if (populate) {
        // Eagerly bind physical frames (Clio-Alloc-Phys in Fig. 12).
        for (auto vpn : res->vpns) {
            auto frame = frames_.allocate();
            if (!frame) {
                resp.status = Status::kOutOfMemory;
                // Roll back bindings is unnecessary: faulting later
                // pages on demand is still correct.
                break;
            }
            page_table_.bindFrame(pid, vpn, *frame);
            cost += cfg_.slow_path.palloc_per_page;
        }
    }
    stats_.allocs++;
    stats_.alloc_retries += res->retries;
    resp.status = Status::kOk;
    resp.value = res->addr;
    return cost;
}

Tick
CBoard::slowPathFree(ProcId pid, VirtAddr addr, ResponseMsg &resp)
{
    auto res = valloc_.free(pid, addr);
    if (!res) {
        resp.status = Status::kBadAddress;
        return cfg_.slow_path.valloc_base / 2;
    }
    for (auto vpn : res->vpns) {
        Pte pte = page_table_.remove(pid, vpn);
        if (pte.present)
            frames_.free(pte.frame);
        tlb_.invalidate(pid, vpn);
    }
    stats_.frees++;
    resp.status = Status::kOk;
    return cfg_.slow_path.valloc_base / 2 +
           cfg_.slow_path.vfree_per_page * res->vpns.size();
}

void
CBoard::slowPathRequest(const Inflight &inflight)
{
    const RequestMsg &req = *inflight.req;
    const FastPathConfig &fp = cfg_.fast_path;

    // Ingress + MAT + crossing to the ARM; one polling worker at a
    // time (the dedicated polling core hands tasks to workers, §5).
    Tick t = eq_.now() + fp.mac_latency + fp.parse_cycles * fp.cycle +
             cfg_.slow_path.interconnect_crossing;
    t = std::max(t, std::max(arm_free_, gate_open_));

    auto resp = resp_pool_.acquire();
    resp->req_id = req.req_id;
    if (inflight.suppressed) {
        // Replay: the original executed and succeeded (T4).
        resp->status = Status::kOk;
        resp->value = inflight.value;
    } else {
        t += req.type == MsgType::kAlloc
                 ? slowPathAlloc(req.pid, req.size, req.perm, *resp,
                                 req.populate)
                 : slowPathFree(req.pid, req.addr, *resp);
        if (resp->status == Status::kOk)
            dedup_.record(req.orig_req_id, resp->value);
    }
    arm_free_ = t;

    // Crossing back + response emission.
    t += cfg_.slow_path.interconnect_crossing +
         fp.respond_cycles * fp.cycle + fp.mac_latency;
    last_op_done_ = std::max(last_op_done_, t);
    respondAt(t, req.src, req.req_id, std::move(resp));
}

// ---------------------------------------------------------------------
// Extend path (offloads, §4.6)
// ---------------------------------------------------------------------

ProcId
CBoard::registerOffload(OffloadDescriptor desc,
                        std::shared_ptr<Offload> offload)
{
    // Deployment-time initialization happens inside the runtime (not
    // on the request path).
    return offload_rt_.deploy(*this, std::move(desc), std::move(offload));
}

void
CBoard::registerOffloadShared(OffloadDescriptor desc,
                              std::shared_ptr<Offload> offload, ProcId pid)
{
    offload_rt_.deployShared(*this, std::move(desc), std::move(offload),
                             pid);
}

void
CBoard::extendPathPacket(const Packet &pkt, std::uint32_t slot)
{
    Inflight &inflight = inflight_[slot];
    const FastPathConfig &fp = cfg_.fast_path;
    inflight.done =
        std::max(inflight.done,
                 admitPipeline(eq_.now() + fp.mac_latency, pkt.wire_bytes));
    if (!inflight.parts.complete())
        return;

    const auto &req = *inflight.req;
    auto resp = resp_pool_.acquire();
    resp->req_id = req.req_id;
    Tick done = std::max(inflight.done, gate_open_);

    stats_.offload_calls++;
    if (!req.chain.empty())
        stats_.offload_chains++;

    // Dedup for offloads with side effects (treated like atomics).
    if (auto cached = dedup_.find(req.orig_req_id)) {
        dedup_.noteSuppressed();
        resp->status = Status::kOk;
        resp->value = *cached;
    } else {
        OffloadResult result;
        if (!req.chain.empty()) {
            std::vector<OffloadStageReply> stage_replies;
            done = offload_rt_.runChain(*this, req, done, result,
                                        &stage_replies);
            resp->stages = std::move(stage_replies);
        } else {
            done = offload_rt_.runSingle(*this, req.offload_id,
                                         req.offload_arg, done, result);
        }
        resp->status = result.status;
        resp->value = result.value;
        resp->err_code = result.err_code;
        if (result.status == Status::kOk) {
            resp->data = std::move(result.data);
            dedup_.record(req.orig_req_id, result.value);
        } else {
            // A failed call carries the offload-defined message bytes
            // as its payload (satellite: errors name themselves).
            resp->data.assign(result.err_msg.begin(),
                              result.err_msg.end());
        }
    }

    done += fp.respond_cycles * fp.cycle + fp.mac_latency;
    last_op_done_ = std::max(last_op_done_, done);
    respondAt(done, req.src, req.req_id, std::move(resp));
    releaseInflight(slot);
}

Tick
CBoard::invokeOffloadLocal(std::uint32_t offload_id,
                           const std::vector<std::uint8_t> &arg,
                           OffloadResult &result, OffloadCost *split)
{
    stats_.offload_calls++;
    return offload_rt_.invokeLocal(*this, offload_id, arg, eq_.now(), result,
                                   split);
}

Tick
CBoard::vmAccess(ProcId pid, VirtAddr addr, void *buf, std::uint64_t len,
                 bool is_write, Tick start, OffloadCost *split)
{
    Status status = Status::kOk;
    std::uint64_t moved = 0;
    const Tick t = walkPages(pid, addr, len, is_write,
                             std::max(start, eq_.now()), status,
                             static_cast<std::uint8_t *>(buf), split, &moved);
    (is_write ? stats_.bytes_written : stats_.bytes_read) += moved;
    return status == Status::kOk ? t : kTickMax;
}

// ---------------------------------------------------------------------
// Misc
// ---------------------------------------------------------------------

void
CBoard::respondAt(Tick when, NodeId dst, ReqId req_id,
                  std::shared_ptr<ResponseMsg> resp)
{
    const std::uint64_t payload = responsePayloadBytes(*resp);
    const MsgType type = resp->status == Status::kCorrupt
                             ? MsgType::kNack
                             : MsgType::kResponse;
    sendSplit(eq_, net_, std::max(when, eq_.now()), node_, dst, req_id,
              type, payload, std::move(resp));
}

double
CBoard::memoryPressure() const
{
    return frames_.utilization();
}

void
CBoard::destroyProcess(ProcId pid)
{
    // Reclaim every PTE and bound frame of the process, then drop its
    // allocator state. Teardown is not performance critical, so a
    // linear table sweep is fine.
    page_table_.removeAllOfPid(pid, [this](const Pte &pte) {
        if (pte.present)
            frames_.free(pte.frame);
    });
    tlb_.invalidateProcess(pid);
    valloc_.removeProcess(pid);
    for (auto it = lock_owners_.begin(); it != lock_owners_.end();) {
        if (it->first.first == pid)
            it = lock_owners_.erase(it);
        else
            ++it;
    }
}

std::uint64_t
CBoard::releaseLocksOwnedBy(NodeId cn)
{
    // Functional (zero-time) release: the controller's GC runs on the
    // board's ARM, off the data path. The map is ordered, so memory is
    // written in a deterministic order.
    std::uint64_t released = 0;
    for (auto it = lock_owners_.begin(); it != lock_owners_.end();) {
        if (it->second != cn) {
            ++it;
            continue;
        }
        const auto [pid, va] = it->first;
        const std::uint64_t page_size = cfg_.page_table.page_size;
        const Pte *pte = page_table_.lookup(pid, va / page_size);
        if (pte && pte->present)
            memory_.write64(pte->frame + va % page_size, 0);
        it = lock_owners_.erase(it);
        released++;
    }
    stats_.locks_reclaimed += released;
    return released;
}

// ---------------------------------------------------------------------
// OffloadVm
// ---------------------------------------------------------------------

OffloadVm::OffloadVm(CBoard &board, ProcId pid)
    : OffloadVm(board, pid, board.eq_.now())
{
}

OffloadVm::OffloadVm(CBoard &board, ProcId pid, Tick start_at)
    : board_(board), pid_(pid), start_at_(start_at)
{
}

VirtAddr
OffloadVm::alloc(std::uint64_t size, std::uint8_t perm)
{
    ResponseMsg resp;
    const Tick cost = board_.slowPathAlloc(pid_, size, perm, resp);
    // Control-path hop to the ARM and back (§4.6: offload control
    // paths run on the ARM, data paths on the FPGA).
    cost_.control += cost + board_.cfg_.slow_path.interconnect_crossing;
    return resp.status == Status::kOk ? resp.value : 0;
}

bool
OffloadVm::free(VirtAddr addr)
{
    ResponseMsg resp;
    const Tick cost = board_.slowPathFree(pid_, addr, resp);
    cost_.control += cost + board_.cfg_.slow_path.interconnect_crossing;
    return resp.status == Status::kOk;
}

bool
OffloadVm::access(VirtAddr addr, void *buf, std::uint64_t len,
                  bool is_write)
{
    // The invocation's logical clock runs `cost_` ahead of its start
    // tick; resources (DRAM occupancy) are shared in absolute time.
    // vmAccess attributes the access' time per component; the deltas
    // sum to done - start, so the invariant cost_.total() ==
    // done - start_at_ is preserved exactly.
    const Tick start = start_at_ + cost_.total();
    OffloadCost delta;
    if (board_.vmAccess(pid_, addr, buf, len, is_write, start, &delta) ==
        kTickMax)
        return false; // fault: no time charged (existing semantics)
    cost_ += delta;
    return true;
}

bool
OffloadVm::read(VirtAddr addr, void *dst, std::uint64_t len)
{
    return access(addr, dst, len, false);
}

bool
OffloadVm::write(VirtAddr addr, const void *src, std::uint64_t len)
{
    // A write only reads from the buffer.
    return access(addr, const_cast<void *>(src), len, true);
}

std::optional<std::uint64_t>
OffloadVm::read64(VirtAddr addr)
{
    std::uint64_t value = 0;
    if (!read(addr, &value, sizeof(value)))
        return std::nullopt;
    return value;
}

bool
OffloadVm::write64(VirtAddr addr, std::uint64_t value)
{
    return write(addr, &value, sizeof(value));
}

void
OffloadVm::chargeCycles(std::uint64_t cycles)
{
    cost_.compute += cycles * board_.cfg_.fast_path.cycle;
}

} // namespace clio
