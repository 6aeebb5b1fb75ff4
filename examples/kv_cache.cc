/**
 * @file
 * A distributed key-value cache on Clio-KV (§6): three MNs serve a
 * partitioned keyspace for several client processes, exactly how a
 * serverless platform would keep state in disaggregated memory.
 *
 *   $ ./kv_cache
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_store.hh"
#include "apps/ycsb.hh"
#include "cluster/cluster.hh"

using namespace clio;

int
main()
{
    constexpr std::uint32_t kOffloadId = 1;
    Cluster cluster(ModelConfig::prototype(), 2, 3);

    // Deploy the Clio-KV offload on every memory node.
    std::vector<NodeId> mns;
    for (std::uint32_t m = 0; m < cluster.mnCount(); m++) {
        cluster.mn(m).registerOffload(ClioKvOffload::descriptor(kOffloadId),
                                      std::make_shared<ClioKvOffload>());
        mns.push_back(cluster.mn(m).nodeId());
    }

    // Two client processes on different CNs share the cache.
    ClioClient &alice = cluster.createClient(0);
    ClioClient &bob = cluster.createClient(1);
    ClioKvClient alice_kv(alice, mns, kOffloadId);
    ClioKvClient bob_kv(bob, mns, kOffloadId);

    // Alice populates user sessions; Bob reads them from another CN.
    for (int i = 0; i < 200; i++) {
        const std::string key = YcsbGenerator::keyString(
            static_cast<std::uint64_t>(i));
        alice_kv.put(key, "session-state-" + std::to_string(i));
    }
    int hits = 0;
    for (int i = 0; i < 200; i++) {
        const std::string key = YcsbGenerator::keyString(
            static_cast<std::uint64_t>(i));
        auto value = bob_kv.get(key);
        if (value && *value == "session-state-" + std::to_string(i))
            hits++;
    }
    std::printf("bob saw %d/200 of alice's entries (cross-CN sharing "
                "through MN-side offloads)\n", hits);

    // Show the partitioning.
    for (std::uint32_t m = 0; m < cluster.mnCount(); m++) {
        std::printf("  MN%u served %llu offload calls\n", m,
                    (unsigned long long)
                        cluster.mn(m).stats().offload_calls);
    }

    // Deletes propagate too.
    alice_kv.del(YcsbGenerator::keyString(0));
    const bool gone = !bob_kv.get(YcsbGenerator::keyString(0));
    std::printf("delete visible across CNs: %s\n", gone ? "yes" : "no");
    return hits == 200 && gone ? 0 : 1;
}
