/**
 * @file
 * Fig. 19: Clio-MV object read/write latency vs number of CNs
 * concurrently accessing one MN, 16 B objects, 50% read (random
 * versions) / 50% append, uniform and zipfian object popularity.
 * Array-based version storage makes reads of any version equal cost.
 */

#include <memory>
#include <vector>

#include "apps/mv_store.hh"
#include "apps/runner.hh"
#include "cluster/cluster.hh"
#include "harness.hh"
#include "sim/rng.hh"

using namespace clio;

namespace {

constexpr std::uint32_t kOffloadId = 2;
constexpr std::uint32_t kValueBytes = 16;
constexpr std::uint32_t kObjects = 256;
constexpr int kOpsPerCn = 250;

struct Result
{
    double read_us;
    double write_us;
};

Result
mvLatency(std::uint32_t cns, bool zipf)
{
    Cluster cluster(ModelConfig::prototype(), cns, 1);
    cluster.mn(0).registerOffload(
        {.id = kOffloadId},
        std::make_shared<ClioMvOffload>(kValueBytes, kObjects, 512));
    const NodeId mn = cluster.mn(0).nodeId();

    // Setup: create objects and seed one version each.
    ClioClient &setup_client = cluster.createClient(0);
    ClioMvClient setup(setup_client, mn, kOffloadId, kValueBytes);
    std::vector<std::uint64_t> ids;
    const std::string value(kValueBytes, 'm');
    for (std::uint32_t i = 0; i < kObjects; i++) {
        auto id = setup.create();
        if (!id)
            return {-1, -1};
        setup.append(*id, value);
        ids.push_back(*id);
    }

    struct CnState
    {
        std::unique_ptr<ClioClient> client_owner; // from cluster
        ClioClient *client;
        std::unique_ptr<Rng> rng;
        std::unique_ptr<ZipfianGenerator> zipfgen;
        int remaining = static_cast<int>(bench::iters(kOpsPerCn));
        Tick op_start = 0;
        bool last_was_set = false;
    };
    auto read_hist = std::make_shared<LatencyHistogram>();
    auto write_hist = std::make_shared<LatencyHistogram>();
    ClosedLoopRunner runner(cluster.eventQueue());
    std::vector<std::unique_ptr<CnState>> states;
    for (std::uint32_t c = 0; c < cns; c++) {
        auto st = std::make_unique<CnState>();
        st->client = &cluster.createClient(c);
        st->rng = std::make_unique<Rng>(c * 31 + 7);
        st->zipfgen = std::make_unique<ZipfianGenerator>(kObjects, 0.99,
                                                         c * 17 + 3);
        states.push_back(std::move(st));
    }
    EventQueue &eq = cluster.eventQueue();
    for (auto &stp : states) {
        CnState *st = stp.get();
        runner.addActor([st, &eq, &ids, zipf, value, mn, read_hist,
                         write_hist]() -> ActorStep {
            if (st->op_start) {
                (st->last_was_set ? *write_hist : *read_hist)
                    .record(eq.now() - st->op_start);
            }
            if (st->remaining-- <= 0)
                return ActorStep::done();
            const std::uint64_t idx =
                zipf ? st->zipfgen->next()
                     : st->rng->uniformInt(ids.size());
            const std::uint64_t id = ids[idx];
            st->op_start = eq.now();
            st->last_was_set = st->rng->chance(0.5);
            std::vector<std::uint8_t> arg =
                st->last_was_set
                    ? mvEncode(MvOp::kAppend, id, 0, value)
                    : mvEncode(MvOp::kReadLatest, id);
            return ActorStep::wait(st->client->offloadAsync(
                mn, kOffloadId, std::move(arg), kValueBytes + 48));
        });
    }
    runner.run();
    return {ticksToUs(read_hist->median()),
            ticksToUs(write_hist->median())};
}

} // namespace

int
main()
{
    bench::banner("Fig. 19", "Clio-MV object read/write latency "
                             "(median us), 16 B objects, 50R/50W");
    bench::header({"CNs", "Read-Uniform", "Write-Uniform", "Read-Zipf",
                   "Write-Zipf"});
    for (std::uint32_t cns : {1u, 2u, 3u, 4u}) {
        auto uni = mvLatency(cns, false);
        auto zip = mvLatency(cns, true);
        bench::row(std::to_string(cns), {uni.read_us, uni.write_us,
                                         zip.read_us, zip.write_us});
    }
    bench::note("expected shape: read and write latencies are nearly "
                "identical and stable across CNs and popularity "
                "distributions (array-based versions, paper Fig. 19).");
    return 0;
}
