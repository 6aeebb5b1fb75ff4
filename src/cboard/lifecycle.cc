#include "cboard/cboard.hh"

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
CBoard::destroyProcess(ProcId pid)
{
    // Reclaim every PTE and bound frame of the process, then drop its
    // allocator state. Teardown is not performance critical, so a
    // linear table sweep is fine.
    page_table_.removeAllOfPid(pid, [this](const Pte &pte) {
        if (pte.present)
            freeFrame(pte.frame);
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

void
CBoard::freeFrame(PhysAddr frame)
{
    memory_.zero(frame, cfg_.page_table.page_size);
    frames_.free(frame);
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

} // namespace clio
