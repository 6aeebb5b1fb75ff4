#include "mem/physical_memory.hh"

#include <cstring>

#include "sim/logging.hh"

namespace clio {

PhysicalMemory::PhysicalMemory(std::uint64_t capacity)
    : capacity_(capacity)
{
    clio_assert(capacity > 0, "physical memory capacity must be nonzero");
}

std::uint8_t *
PhysicalMemory::chunkFor(std::uint64_t chunk_index) const
{
    auto it = chunks_.find(chunk_index);
    if (it != chunks_.end())
        return it->second.get();
    // make_unique<T[]> value-initializes: the chunk starts zeroed.
    auto chunk = std::make_unique<std::uint8_t[]>(kChunkBytes);
    auto *raw = chunk.get();
    chunks_.emplace(chunk_index, std::move(chunk));
    return raw;
}

void
PhysicalMemory::read(PhysAddr addr, void *dst, std::uint64_t len) const
{
    clio_assert(addr + len <= capacity_ && addr + len >= addr,
                "PA read out of range: addr=%llu len=%llu cap=%llu",
                (unsigned long long)addr, (unsigned long long)len,
                (unsigned long long)capacity_);
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const std::uint64_t chunk_index = addr / kChunkBytes;
        const std::uint64_t offset = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - offset);
        auto it = chunks_.find(chunk_index);
        if (it == chunks_.end()) {
            std::memset(out, 0, n); // untouched memory reads as zero
        } else {
            std::memcpy(out, it->second.get() + offset, n);
        }
        out += n;
        addr += n;
        len -= n;
    }
}

void
PhysicalMemory::write(PhysAddr addr, const void *src, std::uint64_t len)
{
    clio_assert(addr + len <= capacity_ && addr + len >= addr,
                "PA write out of range: addr=%llu len=%llu cap=%llu",
                (unsigned long long)addr, (unsigned long long)len,
                (unsigned long long)capacity_);
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const std::uint64_t chunk_index = addr / kChunkBytes;
        const std::uint64_t offset = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - offset);
        std::memcpy(chunkFor(chunk_index) + offset, in, n);
        in += n;
        addr += n;
        len -= n;
    }
}

std::uint64_t
PhysicalMemory::read64(PhysAddr addr) const
{
    std::uint64_t v = 0;
    read(addr, &v, sizeof(v));
    return v;
}

void
PhysicalMemory::write64(PhysAddr addr, std::uint64_t value)
{
    write(addr, &value, sizeof(value));
}

void
PhysicalMemory::zero(PhysAddr addr, std::uint64_t len)
{
    clio_assert(addr + len <= capacity_ && addr + len >= addr,
                "PA zero out of range");
    while (len > 0) {
        const std::uint64_t chunk_index = addr / kChunkBytes;
        const std::uint64_t offset = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - offset);
        auto it = chunks_.find(chunk_index);
        if (it != chunks_.end())
            std::memset(it->second.get() + offset, 0, n);
        addr += n;
        len -= n;
    }
}

} // namespace clio
