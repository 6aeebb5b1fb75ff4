#include "pagetable/tlb.hh"

#include "sim/logging.hh"

namespace clio {

Tlb::Tlb(std::uint32_t capacity) : lru_(capacity), ptes_(capacity)
{
    clio_assert(capacity > 0, "TLB capacity must be nonzero");
}

const Pte *
Tlb::lookup(ProcId pid, std::uint64_t vpn)
{
    const std::uint32_t slot = lru_.touch(Key{pid, vpn});
    if (slot == lru_.kNone) {
        misses_++;
        return nullptr;
    }
    hits_++;
    return &ptes_[slot];
}

void
Tlb::insert(const Pte &pte)
{
    const Key key{pte.pid, pte.vpn};
    std::uint32_t slot = lru_.touch(key);
    if (slot == lru_.kNone)
        slot = lru_.insert(key);
    ptes_[slot] = pte;
}

void
Tlb::invalidate(ProcId pid, std::uint64_t vpn)
{
    lru_.erase(Key{pid, vpn});
}

void
Tlb::invalidateProcess(ProcId pid)
{
    lru_.eraseIf([pid](const Key &k) { return k.pid == pid; });
}

} // namespace clio
