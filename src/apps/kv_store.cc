#include "apps/kv_store.hh"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "sim/logging.hh"

namespace clio {

// ---------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
kvEncode(KvOp op, const std::string &key, const std::string &value)
{
    clio_assert(key.size() <= ClioKvOffload::kMaxKeyBytes,
                "key longer than Clio-KV's %llu-byte limit",
                (unsigned long long)ClioKvOffload::kMaxKeyBytes);
    std::vector<std::uint8_t> out;
    out.reserve(1 + 2 + key.size() + 4 + value.size());
    out.push_back(static_cast<std::uint8_t>(op));
    const std::uint16_t klen = static_cast<std::uint16_t>(key.size());
    out.push_back(static_cast<std::uint8_t>(klen));
    out.push_back(static_cast<std::uint8_t>(klen >> 8));
    out.insert(out.end(), key.begin(), key.end());
    if (op == KvOp::kPut) {
        const std::uint32_t vlen =
            static_cast<std::uint32_t>(value.size());
        for (int i = 0; i < 4; i++)
            out.push_back(static_cast<std::uint8_t>(vlen >> (8 * i)));
        out.insert(out.end(), value.begin(), value.end());
    }
    return out;
}

namespace {

struct Decoded
{
    KvOp op;
    std::string key;
    std::string value;
    bool ok = false;
};

Decoded
kvDecode(const std::vector<std::uint8_t> &arg)
{
    Decoded d;
    if (arg.size() < 3)
        return d;
    d.op = static_cast<KvOp>(arg[0]);
    const std::uint16_t klen =
        static_cast<std::uint16_t>(arg[1] | (arg[2] << 8));
    std::size_t pos = 3;
    if (arg.size() < pos + klen)
        return d;
    d.key.assign(reinterpret_cast<const char *>(arg.data() + pos), klen);
    pos += klen;
    if (d.op == KvOp::kPut) {
        if (arg.size() < pos + 4)
            return d;
        std::uint32_t vlen = 0;
        for (int i = 0; i < 4; i++)
            vlen |= static_cast<std::uint32_t>(arg[pos + i]) << (8 * i);
        pos += 4;
        if (arg.size() < pos + vlen)
            return d;
        d.value.assign(reinterpret_cast<const char *>(arg.data() + pos),
                       vlen);
    }
    d.ok = true;
    return d;
}

} // namespace

// ---------------------------------------------------------------------
// Offload
// ---------------------------------------------------------------------

ClioKvOffload::ClioKvOffload(std::uint32_t bucket_count)
    : bucket_count_(bucket_count)
{
    clio_assert(bucket_count > 0, "bucket count must be nonzero");
}

OffloadDescriptor
ClioKvOffload::descriptor(std::uint32_t id)
{
    return {.id = id,
            .name = "clio-kv",
            .arg_bytes = 0, // variable: op + key (+ value)
            .reply_bytes_hint = 1200,
            .lut = 14800.0,         // hash, chain walker, slab allocator
            .bram_bytes = 131072.0, // slot cache + burst buffers
            .cycles_per_call = 16,
            .cycles_per_element = 1};
}

std::uint64_t
ClioKvOffload::hashKey(const std::string &key)
{
    // FNV-1a 64.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : key) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    // Never produce 0: 0 means "empty entry".
    return h ? h : 1;
}

void
ClioKvOffload::init(OffloadVm &vm)
{
    // Bucket head array lives at the start of the offload's RAS.
    bucket_array_ = vm.alloc(bucket_count_ * 8);
    clio_assert(bucket_array_ != 0, "Clio-KV: bucket array alloc failed");
    // Heads start as 0 (fresh pages read as zero after fault). A
    // re-deploy after a restart gets a fresh address space, so the
    // slab cursor and the free stacks of the old one are dropped.
    slab_base_ = 0;
    slab_used_ = 0;
    free_blocks_.clear();
    free_count_ = 0;
}

std::uint64_t
ClioKvOffload::blockBytes(std::uint64_t n)
{
    return (std::max<std::uint64_t>(n, 8 + kMaxKeyBytes) + 7) & ~7ull;
}

std::uint64_t
ClioKvOffload::slabAlloc(OffloadVm &vm, std::uint64_t n)
{
    n = blockBytes(n);
    clio_assert(n <= kSlabBytes, "object larger than a slab");
    const auto it = free_blocks_.find(n);
    if (it != free_blocks_.end() && !it->second.empty()) {
        const std::uint64_t addr = it->second.back();
        it->second.pop_back();
        free_count_--;
        return addr;
    }
    if (slab_base_ == 0 || slab_used_ + n > kSlabBytes) {
        slab_base_ = vm.alloc(kSlabBytes);
        if (slab_base_ == 0)
            return 0;
        slab_used_ = 0;
        slabs_++;
    }
    const std::uint64_t addr = slab_base_ + slab_used_;
    slab_used_ += n;
    return addr;
}

void
ClioKvOffload::freeBlock(std::uint64_t addr, std::uint64_t n)
{
    if (free_count_ == kMaxFreeBlocks) {
        unreclaimed_++;
        return;
    }
    free_blocks_[blockBytes(n)].push_back(addr);
    free_count_++;
}

std::uint64_t
ClioKvOffload::matchBlock(OffloadVm &vm, std::uint64_t addr,
                          const std::string &key)
{
    std::uint32_t stored[2] = {};
    if (!vm.read(addr, stored, 8) || stored[0] > kMaxKeyBytes)
        return 0; // unreadable or foreign/corrupt block
    std::string stored_key(stored[0], '\0');
    vm.read(addr + 8, stored_key.data(), stored[0]);
    return stored_key == key ? 8 + std::uint64_t{stored[0]} + stored[1]
                             : 0;
}

bool
ClioKvOffload::readSlot(OffloadVm &vm, std::uint64_t addr, Slot &slot)
{
    return vm.read(addr, &slot, kSlotBytes);
}

bool
ClioKvOffload::writeSlot(OffloadVm &vm, std::uint64_t addr,
                         const Slot &slot)
{
    return vm.write(addr, &slot, kSlotBytes);
}

OffloadResult
ClioKvOffload::invoke(OffloadVm &vm, const std::vector<std::uint8_t> &arg)
{
    Decoded d = kvDecode(arg);
    if (!d.ok) {
        return offloadError(OffloadErrc::kBadArgument,
                            "clio-kv: malformed request");
    }
    if (d.key.size() > kMaxKeyBytes) {
        return offloadError(OffloadErrc::kValueTooLarge,
                            "clio-kv: key is " +
                                std::to_string(d.key.size()) +
                                " bytes, limit " +
                                std::to_string(kMaxKeyBytes));
    }
    switch (d.op) {
      case KvOp::kGet:
        gets_++;
        return get(vm, d.key);
      case KvOp::kPut:
        puts_++;
        return put(vm, d.key, d.value);
      case KvOp::kDelete:
        deletes_++;
        return del(vm, d.key);
    }
    return offloadError(OffloadErrc::kBadArgument,
                        "clio-kv: unknown opcode");
}

OffloadResult
ClioKvOffload::get(OffloadVm &vm, const std::string &key)
{
    OffloadResult res;
    const std::uint64_t h = hashKey(key);
    const VirtAddr head_addr = bucket_array_ + (h % bucket_count_) * 8;
    auto slot_addr = vm.read64(head_addr);
    if (!slot_addr) {
        return offloadError(OffloadErrc::kBadAddress,
                            "clio-kv: bucket head read faulted");
    }
    // Walk the bucket chain, fingerprint-first (§6).
    std::uint64_t cursor = *slot_addr;
    while (cursor) {
        Slot slot;
        if (!readSlot(vm, cursor, slot)) {
            return offloadError(OffloadErrc::kBadAddress,
                                "clio-kv: slot read faulted");
        }
        for (const Entry &entry : slot.entries) {
            if (entry.fp != h || entry.addr == 0)
                continue;
            // Fingerprint match: one speculative burst fetches the
            // header and the key together (hardware pulls a whole
            // DRAM burst anyway), then one more access for the value.
            std::uint8_t burst[8 + kMaxKeyBytes];
            if (!vm.read(entry.addr, burst, sizeof(burst)))
                continue;
            std::uint32_t lens[2];
            std::memcpy(lens, burst, 8);
            if (lens[0] > kMaxKeyBytes)
                continue; // foreign/corrupt block
            if (std::string_view(
                    reinterpret_cast<const char *>(burst + 8),
                    lens[0]) != key)
                continue; // fingerprint collision: keep searching
            res.data.resize(lens[1]);
            vm.read(entry.addr + 8 + lens[0], res.data.data(), lens[1]);
            res.value = 1; // found
            return res;
        }
        cursor = slot.next;
    }
    res.value = 0; // not found (status stays kOk)
    res.err_code = static_cast<std::uint32_t>(OffloadErrc::kNotFound);
    return res;
}

OffloadResult
ClioKvOffload::put(OffloadVm &vm, const std::string &key,
                   const std::string &value)
{
    OffloadResult res;
    const std::uint64_t h = hashKey(key);
    const VirtAddr head_addr = bucket_array_ + (h % bucket_count_) * 8;

    // Write the new block first (out of place), then flip the entry
    // pointer: readers see either the old or the new value, never a
    // mix (atomic-write consistency, §6).
    const std::uint64_t block_len = 8 + key.size() + value.size();
    if (block_len > kSlabBytes) {
        return offloadError(OffloadErrc::kValueTooLarge,
                            "clio-kv: object is " +
                                std::to_string(block_len) +
                                " bytes, slab is " +
                                std::to_string(kSlabBytes));
    }
    const std::uint64_t block = slabAlloc(vm, block_len);
    if (!block) {
        return offloadError(OffloadErrc::kAllocFailed,
                            "clio-kv: slab allocation failed",
                            Status::kOutOfMemory);
    }
    // From here on a failing put hands its fresh block (and a new slot
    // it has not linked) back.
    std::uint64_t new_slot_addr = 0;
    const auto fail = [&](const char *what) {
        freeBlock(block, block_len);
        if (new_slot_addr)
            freeBlock(new_slot_addr, kSlotBytes);
        return offloadError(OffloadErrc::kBadAddress,
                            std::string("clio-kv: ") + what + " faulted");
    };
    std::uint32_t lens[2] = {static_cast<std::uint32_t>(key.size()),
                             static_cast<std::uint32_t>(value.size())};
    if (!vm.write(block, lens, 8) ||
        !vm.write(block + 8, key.data(), key.size()) ||
        !vm.write(block + 8 + key.size(), value.data(), value.size()))
        return fail("block write");

    std::uint64_t head = vm.read64(head_addr).value_or(0);
    std::uint64_t cursor = head;
    std::uint64_t last_slot = 0;
    std::uint64_t free_slot = 0;
    int free_index = -1;
    while (cursor) {
        Slot slot;
        if (!readSlot(vm, cursor, slot))
            return fail("slot read");
        for (int i = 0; i < static_cast<int>(kEntriesPerSlot); i++) {
            Entry &entry = slot.entries[i];
            if (entry.fp == h && entry.addr != 0) {
                const std::uint64_t old_addr = entry.addr;
                const std::uint64_t old_len = matchBlock(vm, old_addr, key);
                if (old_len) {
                    // Overwrite: pointer flip to the new block. Then
                    // nothing points at the old one.
                    entry.addr = block;
                    if (!vm.write(cursor + 8 + i * 16, &entry, 16))
                        return fail("entry flip");
                    freeBlock(old_addr, old_len);
                    return res;
                }
            }
            if (entry.addr == 0 && free_index < 0) {
                free_slot = cursor;
                free_index = i;
            }
        }
        last_slot = cursor;
        cursor = slot.next;
    }

    Entry entry{h, block};
    if (free_index >= 0) {
        if (!vm.write(free_slot + 8 + free_index * 16, &entry, 16))
            return fail("entry fill");
        return res;
    }
    // All slots full (or bucket empty): allocate and link a new slot.
    new_slot_addr = slabAlloc(vm, kSlotBytes);
    if (!new_slot_addr) {
        freeBlock(block, block_len);
        return offloadError(OffloadErrc::kAllocFailed,
                            "clio-kv: slot allocation failed",
                            Status::kOutOfMemory);
    }
    Slot fresh{};
    fresh.entries[0] = entry;
    if (!writeSlot(vm, new_slot_addr, fresh))
        return fail("new slot write");
    // Link from the chain tail, or as the bucket's first slot.
    if (!vm.write64(last_slot ? last_slot : head_addr, new_slot_addr))
        return fail("chain link");
    return res;
}

OffloadResult
ClioKvOffload::del(OffloadVm &vm, const std::string &key)
{
    OffloadResult res;
    const std::uint64_t h = hashKey(key);
    const VirtAddr head_addr = bucket_array_ + (h % bucket_count_) * 8;
    std::uint64_t cursor = vm.read64(head_addr).value_or(0);
    while (cursor) {
        Slot slot;
        if (!readSlot(vm, cursor, slot)) {
            return offloadError(OffloadErrc::kBadAddress,
                                "clio-kv: slot read faulted");
        }
        for (int i = 0; i < static_cast<int>(kEntriesPerSlot); i++) {
            Entry &entry = slot.entries[i];
            if (entry.fp != h || entry.addr == 0)
                continue;
            const std::uint64_t len = matchBlock(vm, entry.addr, key);
            if (!len)
                continue;
            Entry cleared{};
            vm.write(cursor + 8 + i * 16, &cleared, 16);
            freeBlock(entry.addr, len); // no entry points at it now
            res.value = 1; // deleted
            return res;
        }
        cursor = slot.next;
    }
    res.value = 0; // absent
    res.err_code = static_cast<std::uint32_t>(OffloadErrc::kNotFound);
    return res;
}

// ---------------------------------------------------------------------
// CN-side client
// ---------------------------------------------------------------------

ClioKvClient::ClioKvClient(ClioClient &client, std::vector<NodeId> mns,
                           std::uint32_t offload_id)
    : client_(client), mns_(std::move(mns)), offload_id_(offload_id)
{
    clio_assert(!mns_.empty(), "Clio-KV needs at least one MN");
}

NodeId
ClioKvClient::mnForKey(const std::string &key) const
{
    return mns_[ClioKvOffload::hashKey(key) % mns_.size()];
}

bool
ClioKvClient::put(const std::string &key, const std::string &value)
{
    return client_
        .rcall(mnForKey(key), offload_id_,
               kvEncode(KvOp::kPut, key, value))
        .ok();
}

std::optional<std::string>
ClioKvClient::get(const std::string &key)
{
    const Result<OffloadReply> reply =
        client_.rcall(mnForKey(key), offload_id_,
                      kvEncode(KvOp::kGet, key),
                      /*expected_resp_bytes=*/1200);
    if (!reply || !reply->value)
        return std::nullopt;
    return std::string(reply->data.begin(), reply->data.end());
}

std::vector<std::optional<std::string>>
ClioKvClient::mget(const std::vector<std::string> &keys)
{
    std::vector<std::optional<std::string>> out(keys.size());
    // Group key indices by owning MN, preserving submission order.
    std::vector<std::vector<std::size_t>> groups(mns_.size());
    for (std::size_t i = 0; i < keys.size(); i++) {
        const std::uint64_t h = ClioKvOffload::hashKey(keys[i]);
        groups[h % mns_.size()].push_back(i);
    }
    const std::uint32_t max_depth =
        client_.cnode().config().offload.max_chain_depth;
    for (std::size_t g = 0; g < groups.size(); g++) {
        const std::vector<std::size_t> &idxs = groups[g];
        for (std::size_t base = 0; base < idxs.size();
             base += max_depth) {
            const std::size_t n =
                std::min<std::size_t>(idxs.size() - base, max_depth);
            // Independent kGet stages — no binds, just one round trip
            // for the whole batch; per-stage replies carry each value.
            ChainPlan plan;
            for (std::size_t j = 0; j < n; j++)
                plan.stage(offload_id_,
                           kvEncode(KvOp::kGet, keys[idxs[base + j]]));
            plan.perStageReplies();
            const Result<OffloadReply> reply = client_.rcall_chain(
                mns_[g], plan, /*expected_resp_bytes=*/n * 1200);
            if (!reply)
                continue; // whole batch failed: keys stay nullopt
            for (std::size_t j = 0;
                 j < n && j < reply->stages.size(); j++) {
                const OffloadStageReply &stage = reply->stages[j];
                if (stage.status == Status::kOk && stage.value)
                    out[idxs[base + j]] = std::string(
                        stage.data.begin(), stage.data.end());
            }
        }
    }
    return out;
}

bool
ClioKvClient::del(const std::string &key)
{
    const Result<OffloadReply> reply = client_.rcall(
        mnForKey(key), offload_id_, kvEncode(KvOp::kDelete, key));
    return reply.ok() && reply->value == 1;
}

} // namespace clio
