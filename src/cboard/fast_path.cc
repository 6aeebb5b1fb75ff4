#include "cboard/cboard.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

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
        reject(pkt, Status::kCorrupt, ingress() + 2 * cfg_.fast_path.cycle);
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
        reject(pkt, Status::kEpochFenced, parseStage(ingress()));
        return;
    }

    // Every request is admitted part by part into its inflight entry,
    // then served by its path: the fast path per part, the slow and
    // extend paths once the request is complete. Each path ends at
    // complete().
    const std::uint32_t slot = inflightSlot(pkt.req_id);
    Inflight &inflight = inflight_[slot];
    if (!acceptPart(pkt, inflight))
        return;
    if (pkt.type == MsgType::kOffload) {
        extendPathPacket(pkt, slot);
        return;
    }
    if (pkt.type == MsgType::kAlloc || pkt.type == MsgType::kFree) {
        if (inflight.parts.complete())
            slowPathRequest(slot);
        return;
    }
    const auto &req = *inflight.req;
    if (!inflight.parts.complete()) {
        fastPathPacket(req, pkt, ingress(), inflight, nullptr);
        return;
    }
    auto resp = resp_pool_.acquire();
    fastPathPacket(req, pkt, ingress(), inflight, resp.get());
    fillReply(req, inflight, *resp);
    complete(slot, inflight.done, std::move(resp));
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

void
CBoard::fillReply(const RequestMsg &req, const Inflight &inflight,
                  ResponseMsg &resp)
{
    resp.status = inflight.status;
    if (inflight.status != Status::kOk)
        resp.data.clear(); // a failed read answers header-only
    else if (req.type == MsgType::kAtomic)
        resp.value = inflight.value;
}

void
CBoard::complete(std::uint32_t slot, Tick done,
                 std::shared_ptr<ResponseMsg> resp)
{
    const Inflight &inflight = inflight_[slot];
    const RequestMsg &req = *inflight.req;
    // Every request but reads and fences is non-idempotent: file it
    // under the ORIGINAL attempt id, so a retry replays it (T4).
    if (resp->status == Status::kOk && !inflight.suppressed &&
        req.type != MsgType::kRead && req.type != MsgType::kFence)
        dedup_.record(req.orig_req_id, resp->value);
    // A fence waits for earlier work to be done, not for its response.
    last_op_done_ = std::max(last_op_done_, done);
    resp->req_id = req.req_id;
    const std::uint64_t payload = responsePayloadBytes(*resp);
    sendSplit(eq_, net_, respondStage(done) + cfg_.fast_path.mac_latency,
              node_, req.src, req.req_id, MsgType::kResponse, payload,
              std::move(resp));
    releaseInflight(slot);
}

void
CBoard::reject(const Packet &pkt, Status status, Tick when)
{
    auto resp = resp_pool_.acquire();
    resp->req_id = pkt.req_id;
    resp->status = status;
    sendSplit(eq_, net_, when, node_, pkt.src, pkt.req_id,
              status == Status::kCorrupt ? MsgType::kNack
                                         : MsgType::kResponse,
              0, std::move(resp));
}

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
    fillReply(req, inflight, resp);
    last_op_done_ = std::max(last_op_done_, inflight.done);
    return respondStage(inflight.done);
}

Tick
CBoard::admitPipeline(Tick ready, std::uint64_t bytes)
{
    const FastPathConfig &fp = cfg_.fast_path;
    const std::uint64_t datapath_bytes = fp.datapath_bits / 8;
    const std::uint64_t words = std::max<std::uint64_t>(
        1, (bytes + datapath_bytes - 1) / datapath_bytes);
    pipeline_free_ = std::max(ready, pipeline_free_) + words * fp.cycle;
    return parseStage(pipeline_free_);
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

Tick
CBoard::vmAccess(ProcId pid, VirtAddr addr, void *buf, std::uint64_t len,
                 bool is_write, Tick start, OffloadCost *split)
{
    // The offload data path; it lives beside walkPages so the call can
    // inline (the build has no LTO).
    Status status = Status::kOk;
    std::uint64_t moved = 0;
    const Tick t = walkPages(pid, addr, len, is_write,
                             std::max(start, eq_.now()), status,
                             static_cast<std::uint8_t *>(buf), split, &moved);
    (is_write ? stats_.bytes_written : stats_.bytes_read) += moved;
    return status == Status::kOk ? t : kTickMax;
}

} // namespace clio
