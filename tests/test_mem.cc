/**
 * @file
 * Unit tests for the physical memory substrate and frame allocation.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <set>
#include <vector>

#include "mem/frame_allocator.hh"
#include "mem/physical_memory.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

TEST(PhysicalMemory, ReadWriteRoundTrip)
{
    PhysicalMemory mem(1 * MiB);
    const char msg[] = "disaggregated";
    mem.write(1000, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    mem.read(1000, out, sizeof(out));
    EXPECT_STREQ(out, msg);
}

TEST(PhysicalMemory, UntouchedReadsZero)
{
    PhysicalMemory mem(1 * MiB);
    std::uint8_t buf[64];
    std::memset(buf, 0xAB, sizeof(buf));
    mem.read(512 * KiB, buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.materializedChunks(), 0u);
}

TEST(PhysicalMemory, FreshChunkIsZeroAroundFirstWrite)
{
    // The first write materializes its 64 KiB chunk; every byte the
    // write did not cover must read zero, not leftover heap contents.
    PhysicalMemory mem(1 * MiB);
    const PhysAddr chunk = 3 * 64 * KiB;
    mem.write64(chunk + 32 * KiB, 0x0123456789ABCDEFull);
    ASSERT_EQ(mem.materializedChunks(), 1u);
    std::vector<std::uint8_t> out(64 * KiB, 0xAB);
    mem.read(chunk, out.data(), out.size());
    for (std::size_t i = 0; i < out.size(); i++) {
        if (i < 32 * KiB || i >= 32 * KiB + 8) {
            ASSERT_EQ(out[i], 0) << "byte " << i;
        }
    }
    EXPECT_EQ(mem.read64(chunk + 32 * KiB), 0x0123456789ABCDEFull);
}

TEST(PhysicalMemory, CrossChunkAccess)
{
    PhysicalMemory mem(1 * MiB);
    // 64 KiB chunks: write straddling the first boundary.
    std::vector<std::uint8_t> data(1000);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 7);
    mem.write(64 * KiB - 500, data.data(), data.size());
    std::vector<std::uint8_t> out(1000);
    mem.read(64 * KiB - 500, out.data(), out.size());
    EXPECT_EQ(out, data);
    EXPECT_EQ(mem.materializedChunks(), 2u);
}

TEST(PhysicalMemory, SparseHugeCapacity)
{
    // 4 TB capacity must not materialize anything until touched.
    PhysicalMemory mem(4 * TiB);
    mem.write64(3 * TiB, 0xDEADBEEFCAFEull);
    EXPECT_EQ(mem.read64(3 * TiB), 0xDEADBEEFCAFEull);
    EXPECT_EQ(mem.materializedChunks(), 1u);
}

TEST(PhysicalMemory, UnreservableCapacityStopsNamingIt)
{
    // 1 EiB is past any x86-64 or AArch64 user address space.
    EXPECT_EXIT(PhysicalMemory(1ull << 60), ::testing::ExitedWithCode(1),
                "cannot reserve 1152921504606846976 bytes");
}

TEST(PhysicalMemory, RebuiltMemoryReadsZeroWhereItsPredecessorWrote)
{
    // The second memory is built from the reservation the first one
    // returned to the pool (the capacity is unique to this test, and
    // not a whole number of pages).
    const std::uint64_t capacity = 1 * MiB + 12 * KiB + 5;
    std::vector<std::uint8_t> ones(10000, 0xFF);
    {
        PhysicalMemory first(capacity);
        first.write(0, ones.data(), 100);
        first.write(4 * KiB - 3, ones.data(), 6);
        first.write(64 * KiB - 500, ones.data(), ones.size());
        first.write(capacity - 8, ones.data(), 8);
    }
    PhysicalMemory second(capacity);
    EXPECT_EQ(second.materializedChunks(), 0u);
    std::vector<std::uint8_t> out(capacity, 0xAB);
    second.read(0, out.data(), out.size());
    for (std::size_t i = 0; i < out.size(); i++)
        ASSERT_EQ(out[i], 0) << "byte " << i;
}

/** This process's resident set, from /proc/self/statm. */
std::int64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::int64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * sysconf(_SC_PAGESIZE);
}

TEST(PhysicalMemory, SparseWritesKeepOnlyTheirPagesResident)
{
    // 8 B in each of 256 frames 4 MiB apart: the host holds about one
    // 4 KiB page per write, not a 64 KiB chunk (16 MiB in all).
    PhysicalMemory mem(1 * GiB);
    const std::int64_t before = residentBytes();
    for (std::uint64_t i = 0; i < 256; i++)
        mem.write64(i * 4 * MiB, i + 1);
    EXPECT_LT(residentBytes() - before, static_cast<std::int64_t>(4 * MiB));
    EXPECT_EQ(mem.materializedChunks(), 256u);
    EXPECT_EQ(mem.read64(255 * 4 * MiB), 256u);
}

TEST(PhysicalMemory, Word64Helpers)
{
    PhysicalMemory mem(1 * MiB);
    mem.write64(8, ~0ull);
    EXPECT_EQ(mem.read64(8), ~0ull);
    mem.write64(8, 1);
    EXPECT_EQ(mem.read64(8), 1u);
}

TEST(PhysicalMemory, ZeroRange)
{
    PhysicalMemory mem(1 * MiB);
    std::uint8_t ones[256];
    std::memset(ones, 0xFF, sizeof(ones));
    mem.write(100, ones, sizeof(ones));
    mem.zero(150, 50);
    std::uint8_t out[256];
    mem.read(100, out, sizeof(out));
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(out[i], 0xFF);
    for (int i = 50; i < 100; i++)
        EXPECT_EQ(out[i], 0x00);
    for (int i = 100; i < 256; i++)
        EXPECT_EQ(out[i], 0xFF);
}

TEST(PhysicalMemory, RandomizedRoundTrip)
{
    PhysicalMemory mem(8 * MiB);
    Rng rng(99);
    // Mirror model checking: random writes tracked in a host map.
    std::vector<std::uint8_t> mirror(8 * MiB, 0);
    for (int i = 0; i < 500; i++) {
        const std::uint64_t len = rng.uniformRange(1, 4096);
        const std::uint64_t addr = rng.uniformInt(8 * MiB - len);
        std::vector<std::uint8_t> data(len);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        mem.write(addr, data.data(), len);
        std::memcpy(mirror.data() + addr, data.data(), len);
    }
    std::vector<std::uint8_t> out(8 * MiB);
    mem.read(0, out.data(), out.size());
    EXPECT_EQ(out, mirror);
}

TEST(FrameAllocator, AllocatesDistinctAlignedFrames)
{
    FrameAllocator fa(64 * MiB, 4 * MiB);
    EXPECT_EQ(fa.totalFrames(), 16u);
    std::set<PhysAddr> seen;
    for (int i = 0; i < 16; i++) {
        auto frame = fa.allocate();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(*frame % (4 * MiB), 0u);
        EXPECT_TRUE(seen.insert(*frame).second);
    }
    EXPECT_FALSE(fa.allocate().has_value());
    EXPECT_DOUBLE_EQ(fa.utilization(), 1.0);
}

TEST(FrameAllocator, FreeMakesFrameReusable)
{
    FrameAllocator fa(16 * MiB, 4 * MiB);
    auto a = fa.allocate();
    auto b = fa.allocate();
    ASSERT_TRUE(a && b);
    fa.free(*a);
    EXPECT_EQ(fa.freeFrames(), 3u);
    // Exhaust and verify the freed frame comes back.
    std::set<PhysAddr> rest;
    while (auto f = fa.allocate())
        rest.insert(*f);
    EXPECT_TRUE(rest.count(*a));
    EXPECT_FALSE(rest.count(*b));
}

TEST(FrameAllocator, LowAddressesFirst)
{
    FrameAllocator fa(16 * MiB, 4 * MiB);
    EXPECT_EQ(*fa.allocate(), 0u);
    EXPECT_EQ(*fa.allocate(), 4 * MiB);
}

TEST(AsyncBuffer, FifoOrder)
{
    AsyncFreePageBuffer buf(4);
    EXPECT_TRUE(buf.push(100));
    EXPECT_TRUE(buf.push(200));
    EXPECT_EQ(*buf.pop(), 100u);
    EXPECT_EQ(*buf.pop(), 200u);
}

TEST(AsyncBuffer, CapacityAndUnderflow)
{
    AsyncFreePageBuffer buf(2);
    EXPECT_TRUE(buf.push(1));
    EXPECT_TRUE(buf.push(2));
    EXPECT_FALSE(buf.push(3)); // full
    EXPECT_EQ(buf.vacancy(), 0u);
    buf.pop();
    buf.pop();
    EXPECT_FALSE(buf.pop().has_value());
    EXPECT_EQ(buf.underflows(), 1u);
}

} // namespace
} // namespace clio
