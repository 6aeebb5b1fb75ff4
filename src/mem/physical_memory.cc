#include "mem/physical_memory.hh"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace clio {

namespace {

constexpr std::uint64_t kPageBytes = 4 * KiB;
/** One 16-bit bitmap field per chunk. */
constexpr std::uint64_t kPagesPerChunk = 16;
constexpr std::uint64_t kChunkBytes = kPageBytes * kPagesPerChunk;

std::uint64_t
roundUp(std::uint64_t n, std::uint64_t unit)
{
    return (n + unit - 1) / unit * unit;
}

/** Offset of the page bitmap in a reservation. */
std::uint64_t
dataBytes(std::uint64_t capacity)
{
    return roundUp(capacity, kChunkBytes);
}

std::uint64_t
reservationBytes(std::uint64_t capacity)
{
    const std::uint64_t data = dataBytes(capacity);
    return data + roundUp(data / kChunkBytes * sizeof(std::uint16_t),
                          kPageBytes);
}

/** A released reservation: its written pages and bitmap are zero. */
struct PooledReservation
{
    std::uint64_t capacity;
    std::uint8_t *base;
};

/**
 * Released reservations, oldest first, reused by the next memory of the
 * same capacity. There is room for every MN of a cluster several times
 * over; a reservation released into a full pool is unmapped, and those
 * still pooled at exit go back with the process.
 */
constexpr std::size_t kPoolEntries = 32;
std::array<PooledReservation, kPoolEntries> pool;
std::size_t pool_size = 0;

std::uint8_t *
acquire(std::uint64_t capacity)
{
    clio_assert(capacity > 0, "physical memory capacity must be nonzero");
    // Oldest first: a cluster's MNs are destroyed front to back (as
    // libstdc++'s std::vector does), so each MN of a rebuilt cluster
    // gets its predecessor's reservation, whose resident pages are the
    // ones it will write.
    for (std::size_t i = 0; i < pool_size; i++) {
        if (pool[i].capacity == capacity) {
            std::uint8_t *base = pool[i].base;
            std::copy(pool.begin() + i + 1, pool.begin() + pool_size,
                      pool.begin() + i);
            pool_size--;
            return base;
        }
    }
    const std::uint64_t len = reservationBytes(capacity);
    void *p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        clio_fatal("cannot reserve %llu bytes of MN physical memory: %s",
                   (unsigned long long)capacity, std::strerror(errno));
    // A kernel built without THP rejects the advice and needs none.
    (void)madvise(p, len, MADV_NOHUGEPAGE);
    return static_cast<std::uint8_t *>(p);
}

} // namespace

PhysicalMemory::PhysicalMemory(std::uint64_t capacity)
    : capacity_(capacity), base_(acquire(capacity)),
      written_(reinterpret_cast<std::uint16_t *>(base_ + dataBytes(capacity)))
{
}

PhysicalMemory::~PhysicalMemory()
{
    release();
}

PhysicalMemory::PhysicalMemory(PhysicalMemory &&other) noexcept
    : capacity_(std::exchange(other.capacity_, 0)),
      base_(std::exchange(other.base_, nullptr)),
      written_(std::exchange(other.written_, nullptr)),
      written_chunks_(std::exchange(other.written_chunks_, {}))
{
}

PhysicalMemory &
PhysicalMemory::operator=(PhysicalMemory &&other) noexcept
{
    if (this != &other) {
        release();
        capacity_ = std::exchange(other.capacity_, 0);
        base_ = std::exchange(other.base_, nullptr);
        written_ = std::exchange(other.written_, nullptr);
        written_chunks_ = std::exchange(other.written_chunks_, {});
    }
    return *this;
}

void
PhysicalMemory::release()
{
    if (!base_)
        return;
    for (const std::uint64_t chunk : written_chunks_) {
        for (unsigned bits = written_[chunk]; bits != 0; bits &= bits - 1) {
            const std::uint64_t page =
                chunk * kPagesPerChunk + std::countr_zero(bits);
            std::memset(base_ + page * kPageBytes, 0, kPageBytes);
        }
        written_[chunk] = 0;
    }
    written_chunks_.clear();
    if (pool_size < kPoolEntries)
        pool[pool_size++] = {capacity_, base_};
    else
        munmap(base_, reservationBytes(capacity_));
    base_ = nullptr;
    written_ = nullptr;
}

void
PhysicalMemory::checkRange(PhysAddr addr, std::uint64_t len,
                           const char *what) const
{
    clio_assert(addr + len <= capacity_ && addr + len >= addr,
                "PA %s out of range: addr=%llu len=%llu cap=%llu", what,
                (unsigned long long)addr, (unsigned long long)len,
                (unsigned long long)capacity_);
}

void
PhysicalMemory::read(PhysAddr addr, void *dst, std::uint64_t len) const
{
    checkRange(addr, len, "read");
    if (len > 0)
        std::memcpy(dst, base_ + addr, len);
}

void
PhysicalMemory::write(PhysAddr addr, const void *src, std::uint64_t len)
{
    checkRange(addr, len, "write");
    if (len == 0)
        return;
    const std::uint64_t last = (addr + len - 1) / kPageBytes;
    for (std::uint64_t page = addr / kPageBytes; page <= last; page++) {
        std::uint16_t &field = written_[page / kPagesPerChunk];
        if (field == 0)
            written_chunks_.push_back(page / kPagesPerChunk);
        field = static_cast<std::uint16_t>(
            field | 1u << (page % kPagesPerChunk));
    }
    std::memcpy(base_ + addr, src, len);
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
    checkRange(addr, len, "zero");
    // Unwritten pages already read as zero; a memset would only fault
    // them in.
    while (len > 0) {
        const std::uint64_t page = addr / kPageBytes;
        const std::uint64_t n = std::min(len, kPageBytes - addr % kPageBytes);
        if (written_[page / kPagesPerChunk] >> (page % kPagesPerChunk) & 1u)
            std::memset(base_ + addr, 0, n);
        addr += n;
        len -= n;
    }
}

} // namespace clio
