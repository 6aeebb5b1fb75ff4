/**
 * @file
 * Remote radix-tree index with pointer-chasing offload (§6): builds a
 * dictionary index in remote memory and compares searching it with
 * the extend-path offload (one round trip per level) against plain
 * one-sided reads (one round trip per node).
 *
 *   $ ./radix_search
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/radix_tree.hh"
#include "cluster/cluster.hh"
#include "sim/rng.hh"

using namespace clio;

int
main()
{
    constexpr std::uint32_t kChaseId = 3;
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);

    // The pointer chaser shares the client's address space, so it can
    // walk the same nodes the client writes (§4.6).
    cluster.mn(0).registerOffloadShared(
        PointerChaseOffload::descriptor(kChaseId),
        std::make_shared<PointerChaseOffload>(), client.pid());

    RemoteRadixTree tree(client, cluster.mn(0).nodeId(), kChaseId,
                         64 * MiB);
    // Index some "words".
    Rng rng(2024);
    std::vector<std::string> words;
    for (int i = 0; i < 2000; i++) {
        std::string w;
        for (int c = 0; c < 7; c++)
            w.push_back(static_cast<char>('a' + rng.uniformInt(24)));
        words.push_back(w);
        if (!tree.insert(w, static_cast<std::uint64_t>(i) + 1)) {
            std::fprintf(stderr, "insert failed\n");
            return 1;
        }
    }
    std::printf("indexed %d words (%llu tree nodes in remote memory)\n",
                2000, (unsigned long long)tree.nodeCount());

    EventQueue &eq = cluster.eventQueue();
    Tick offload_total = 0, direct_total = 0;
    std::uint64_t offload_calls = 0, direct_reads = 0;
    bool correct = true;
    for (int i = 0; i < 50; i++) {
        const std::string &w =
            words[rng.uniformInt(words.size())];
        Tick t0 = eq.now();
        auto via_offload = tree.searchOffload(w);
        offload_total += eq.now() - t0;
        offload_calls += via_offload.offload_calls;

        t0 = eq.now();
        auto via_reads = tree.searchDirect(w);
        direct_total += eq.now() - t0;
        direct_reads += via_reads.remote_reads;

        correct = correct && via_offload.value.has_value() &&
                  via_offload.value == via_reads.value;
    }
    std::printf("pointer-chase offload: %.1f us/search "
                "(%.1f offload calls each)\n",
                ticksToUs(offload_total) / 50,
                static_cast<double>(offload_calls) / 50);
    std::printf("one-sided reads:       %.1f us/search "
                "(%.1f round trips each)\n",
                ticksToUs(direct_total) / 50,
                static_cast<double>(direct_reads) / 50);
    std::printf("results agree: %s\n", correct ? "yes" : "NO");
    return correct ? 0 : 1;
}
