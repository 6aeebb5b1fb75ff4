#include "apps/radix_tree.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace clio {

// ---------------------------------------------------------------------
// Pointer-chase offload
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
PointerChaseOffload::encode(const Args &args)
{
    std::vector<std::uint8_t> out(sizeof(Args));
    std::memcpy(out.data(), &args, sizeof(Args));
    return out;
}

OffloadDescriptor
PointerChaseOffload::descriptor(std::uint32_t id)
{
    return {.id = id,
            .name = "pointer-chase",
            .arg_bytes = sizeof(Args),
            .reply_bytes_hint = 64,
            .lut = 5200.0,        // walker FSM + 64-bit comparator
            .bram_bytes = 2048.0, // one-node line buffer
            .cycles_per_call = 4,
            .cycles_per_element = 2};
}

OffloadResult
PointerChaseOffload::invoke(OffloadVm &vm,
                            const std::vector<std::uint8_t> &arg)
{
    OffloadResult res;
    if (arg.size() != sizeof(Args)) {
        return offloadError(OffloadErrc::kBadArgument,
                            "pointer-chase: argument is " +
                                std::to_string(arg.size()) +
                                " bytes, want " +
                                std::to_string(sizeof(Args)));
    }
    Args args;
    std::memcpy(&args, arg.data(), sizeof(Args));
    if (args.value_offset + 8 > args.node_bytes ||
        args.next_offset + 8 > args.node_bytes) {
        return offloadError(OffloadErrc::kBadArgument,
                            "pointer-chase: field offsets exceed node");
    }

    std::uint64_t cursor = args.start;
    std::vector<std::uint8_t> node(args.node_bytes);
    for (std::uint32_t step = 0; cursor && step < args.max_steps;
         step++) {
        visited_++;
        // One DRAM access per node: fetch the whole node, compare and
        // follow the link from the on-chip copy (§6's FPGA walker).
        if (!vm.read(cursor, node.data(), args.node_bytes)) {
            return offloadError(OffloadErrc::kBadAddress,
                                "pointer-chase: node read faulted",
                                Status::kBadAddress);
        }
        std::uint64_t value = 0, next = 0;
        std::memcpy(&value, node.data() + args.value_offset, 8);
        std::memcpy(&next, node.data() + args.next_offset, 8);
        if (value == args.target) {
            // Match: return the node's address and raw bytes so the
            // caller saves a follow-up read.
            res.value = cursor;
            res.data = node;
            return res;
        }
        cursor = next;
        // Per-node comparison logic on the FPGA.
        vm.chargeCycles(2);
    }
    res.value = 0; // null: no match in the list
    return res;
}

// ---------------------------------------------------------------------
// Remote radix tree
// ---------------------------------------------------------------------

RemoteRadixTree::RemoteRadixTree(ClioClient &client, NodeId mn,
                                 std::uint32_t chase_offload_id,
                                 std::uint64_t arena_bytes)
    : client_(client), mn_(mn), chase_id_(chase_offload_id),
      arena_bytes_(arena_bytes)
{
    arena_ = client_.ralloc(arena_bytes_).value_or(0);
    clio_assert(arena_ != 0, "radix arena allocation failed");
    root_ = allocNode();
    node(root_).write(NodeImage{});
}

VirtAddr
RemoteRadixTree::allocNode()
{
    if (arena_used_ + kNodeBytes > arena_bytes_)
        return 0;
    const VirtAddr addr = arena_ + arena_used_;
    arena_used_ += kNodeBytes;
    node_count_++;
    return addr;
}

bool
RemoteRadixTree::insert(const std::string &key, std::uint64_t value)
{
    clio_assert(value != 0, "0 marks non-terminal nodes");
    VirtAddr cur = root_;
    for (char c : key) {
        // Walk the child list looking for the edge character.
        const Result<NodeImage> cur_img = node(cur).read();
        if (!cur_img)
            return false;
        VirtAddr child = cur_img->child_head;
        VirtAddr found = 0;
        while (child) {
            const Result<NodeImage> img = node(child).read();
            if (!img)
                return false;
            if (img->ch == static_cast<std::uint64_t>(
                               static_cast<std::uint8_t>(c))) {
                found = child;
                break;
            }
            child = img->next;
        }
        if (!found) {
            found = allocNode();
            if (!found)
                return false;
            NodeImage fresh{};
            fresh.next = cur_img->child_head;
            fresh.ch = static_cast<std::uint8_t>(c);
            if (node(found).write(fresh) != Status::kOk)
                return false;
            // Push-front into the parent's child list (field at +8).
            RemotePtr<std::uint64_t> head(client_, cur + 8);
            if (head.write(found) != Status::kOk)
                return false;
        }
        cur = found;
    }
    // Terminal payload (field at +24).
    return RemotePtr<std::uint64_t>(client_, cur + 24).write(value) ==
           Status::kOk;
}

bool
RemoteRadixTree::bulkLoad(
    const std::vector<std::pair<std::string, std::uint64_t>> &kvs)
{
    // Build the tree in host memory using arena-relative node indices,
    // then upload the image in one write. Index 0 is the (existing)
    // root at arena_ + 0.
    clio_assert(arena_used_ == kNodeBytes && node_count_ == 1,
                "bulkLoad requires a fresh tree");
    std::vector<NodeImage> nodes(1);
    auto addr_of = [this](std::uint64_t index) {
        return arena_ + index * kNodeBytes;
    };
    for (const auto &[key, value] : kvs) {
        clio_assert(value != 0, "0 marks non-terminal nodes");
        std::uint64_t cur = 0;
        for (char c : key) {
            const std::uint64_t ch = static_cast<std::uint8_t>(c);
            // Find the edge in cur's child list.
            std::uint64_t child_addr = nodes[cur].child_head;
            std::uint64_t found = 0;
            while (child_addr) {
                const std::uint64_t idx =
                    (child_addr - arena_) / kNodeBytes;
                if (nodes[idx].ch == ch) {
                    found = idx;
                    break;
                }
                child_addr = nodes[idx].next;
            }
            if (!child_addr) {
                if ((nodes.size() + 1) * kNodeBytes > arena_bytes_)
                    return false;
                NodeImage fresh{};
                fresh.ch = ch;
                fresh.next = nodes[cur].child_head;
                found = nodes.size();
                nodes.push_back(fresh);
                nodes[cur].child_head = addr_of(found);
            }
            cur = found;
        }
        nodes[cur].value = value;
    }
    arena_used_ = nodes.size() * kNodeBytes;
    node_count_ = nodes.size();
    return client_.rwrite(arena_, nodes.data(),
                          nodes.size() * kNodeBytes) == Status::kOk;
}

RadixSearchResult
RemoteRadixTree::searchOffload(const std::string &key)
{
    RadixSearchResult out;
    // Read the root once to obtain the first child list head.
    const Result<NodeImage> root = node(root_).read();
    if (!root)
        return out;
    out.remote_reads++;
    NodeImage img = *root;
    for (char c : key) {
        if (!img.child_head)
            return out; // dead end
        PointerChaseOffload::Args args;
        args.start = img.child_head;
        args.target = static_cast<std::uint8_t>(c);
        args.value_offset = 16; // NodeImage::ch
        args.next_offset = 0;   // NodeImage::next
        args.node_bytes = kNodeBytes;
        const Result<OffloadReply> reply =
            client_.rcall(mn_, chase_id_,
                          PointerChaseOffload::encode(args),
                          kNodeBytes + 32);
        if (!reply)
            return out;
        out.offload_calls++;
        if (!reply->value)
            return out; // no such edge
        clio_assert(reply->data.size() == kNodeBytes,
                    "short chase reply");
        std::memcpy(&img, reply->data.data(), kNodeBytes);
    }
    if (img.value)
        out.value = img.value;
    return out;
}

RadixSearchResult
RemoteRadixTree::searchChained(const std::string &key)
{
    RadixSearchResult out;
    const Result<NodeImage> root = node(root_).read();
    if (!root)
        return out;
    out.remote_reads++;
    NodeImage img = *root;

    // One chase stage per key character, chained MN-side: stage i's
    // start address is bound from stage i-1's reply bytes [8, 16) —
    // the matched node's child_head. Long keys are split into plans of
    // max_chain_depth stages each.
    const std::uint32_t max_depth =
        client_.cnode().config().offload.max_chain_depth;
    std::size_t pos = 0;
    while (pos < key.size()) {
        if (!img.child_head)
            return out; // dead end
        const std::size_t depth =
            std::min<std::size_t>(key.size() - pos, max_depth);
        ChainPlan plan;
        for (std::size_t i = 0; i < depth; i++) {
            PointerChaseOffload::Args args;
            args.start = img.child_head; // stage 0; later stages bound
            args.target =
                static_cast<std::uint8_t>(key[pos + i]);
            args.value_offset = 16; // NodeImage::ch
            args.next_offset = 0;   // NodeImage::next
            args.node_bytes = kNodeBytes;
            plan.stage(chase_id_, PointerChaseOffload::encode(args));
            if (i > 0)
                plan.bindData(8, 0); // prev child_head -> args.start
            plan.stopOnZeroValue(); // miss at any level ends the chain
        }
        const Result<OffloadReply> reply =
            client_.rcall_chain(mn_, plan, kNodeBytes + 32);
        if (!reply)
            return out;
        out.offload_calls++;
        if (!reply->value)
            return out; // no such edge at some level
        clio_assert(reply->data.size() == kNodeBytes,
                    "short chase reply");
        std::memcpy(&img, reply->data.data(), kNodeBytes);
        pos += depth;
    }
    if (img.value)
        out.value = img.value;
    return out;
}

RadixSearchResult
RemoteRadixTree::searchDirect(const std::string &key)
{
    RadixSearchResult out;
    const Result<NodeImage> root = node(root_).read();
    if (!root)
        return out;
    out.remote_reads++;
    NodeImage img = *root;
    for (char c : key) {
        VirtAddr child = img.child_head;
        bool found = false;
        while (child) {
            const Result<NodeImage> next = node(child).read();
            if (!next)
                return out;
            img = *next;
            out.remote_reads++;
            if (img.ch == static_cast<std::uint64_t>(
                              static_cast<std::uint8_t>(c))) {
                found = true;
                break;
            }
            child = img.next;
        }
        if (!found)
            return out;
    }
    if (img.value)
        out.value = img.value;
    return out;
}

} // namespace clio
