/**
 * @file
 * Fig. 15: Clio-KV throughput vs number of MNs (YCSB A/B/C).
 *
 * Keys are partitioned across MNs by the CN-side load balancer; with
 * more MNs the aggregate throughput scales until the CN side
 * saturates (paper Fig. 15).
 */

#include <memory>
#include <vector>

#include "apps/kv_store.hh"
#include "apps/runner.hh"
#include "apps/ycsb.hh"
#include "cluster/cluster.hh"
#include "harness.hh"

using namespace clio;

namespace {

constexpr std::uint32_t kOffloadId = 1;
constexpr std::uint64_t kKeys = 2000;
constexpr int kOpsPerClient = 400;
constexpr int kClients = 8;
constexpr std::uint32_t kValueBytes = 1024;

double
mops(std::uint32_t num_mns, YcsbWorkload workload)
{
    Cluster cluster(ModelConfig::prototype(), 2, num_mns);
    std::vector<NodeId> mns;
    for (std::uint32_t m = 0; m < num_mns; m++) {
        cluster.mn(m).registerOffload(ClioKvOffload::descriptor(kOffloadId),
                                      std::make_shared<ClioKvOffload>());
        mns.push_back(cluster.mn(m).nodeId());
    }

    // Preload via one client.
    ClioClient &loader = cluster.createClient(0);
    ClioKvClient load_kv(loader, mns, kOffloadId);
    const std::string value(kValueBytes, 'v');
    const std::uint64_t keys = bench::iters(kKeys);
    for (std::uint64_t k = 0; k < keys; k++)
        load_kv.put(YcsbGenerator::keyString(k), value);

    // Concurrent clients in closed loop over async offload calls.
    struct ClientState
    {
        ClioClient *client;
        std::unique_ptr<YcsbGenerator> gen;
        std::vector<NodeId> mns;
        int remaining = static_cast<int>(bench::iters(kOpsPerClient));
    };
    std::vector<std::unique_ptr<ClientState>> states;
    ClosedLoopRunner runner(cluster.eventQueue());
    for (int c = 0; c < kClients; c++) {
        auto st = std::make_unique<ClientState>();
        st->client = &cluster.createClient(
            static_cast<std::uint32_t>(c % 2));
        st->gen = std::make_unique<YcsbGenerator>(
            keys, workload, true, 0.99,
            static_cast<std::uint64_t>(c) * 7 + 1);
        st->mns = mns;
        states.push_back(std::move(st));
    }
    std::uint64_t completed = 0;
    for (auto &stp : states) {
        ClientState *st = stp.get();
        const std::string val = value;
        runner.addActor([st, val, &completed]() -> ActorStep {
            if (st->remaining-- <= 0)
                return ActorStep::done();
            completed++;
            const YcsbOp op = st->gen->next();
            const std::string key =
                YcsbGenerator::keyString(op.key_index);
            const NodeId mn =
                st->mns[ClioKvOffload::hashKey(key) % st->mns.size()];
            auto arg = op.is_set ? kvEncode(KvOp::kPut, key, val)
                                 : kvEncode(KvOp::kGet, key);
            return ActorStep::wait(st->client->offloadAsync(
                mn, kOffloadId, std::move(arg), kValueBytes + 64));
        });
    }
    const Tick elapsed = runner.run();
    return static_cast<double>(completed) / ticksToSeconds(elapsed) /
           1e6;
}

} // namespace

int
main()
{
    bench::banner("Fig. 15", "Clio-KV throughput (MOPS) vs number of "
                             "MNs, YCSB A/B/C, zipf 0.99, 1 KB values");
    bench::header({"MNs", "Workload-A", "Workload-B", "Workload-C"});
    for (std::uint32_t mns : {1u, 2u, 3u, 4u}) {
        bench::row(std::to_string(mns),
                   {mops(mns, YcsbWorkload::kA),
                    mops(mns, YcsbWorkload::kB),
                    mops(mns, YcsbWorkload::kC)});
    }
    bench::note("expected shape: throughput grows with MNs until the "
                "CN-side port saturates (paper Fig. 15).");
    return 0;
}
