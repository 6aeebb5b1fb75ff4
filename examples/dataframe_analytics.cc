/**
 * @file
 * Clio-DF analytics (§6): a DataFrame whose select/aggregate
 * operators run on the memory node while shuffle/histogram run on
 * the compute node, all over one shared remote address space.
 *
 * The demo query: of all students, select one gender, compute the
 * average final score, and histogram the distribution (the paper's
 * running example).
 *
 *   $ ./dataframe_analytics
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/dataframe.hh"
#include "cluster/cluster.hh"
#include "sim/rng.hh"

using namespace clio;

int
main()
{
    constexpr std::uint32_t kSelectId = 4;
    constexpr std::uint32_t kAggId = 5;
    Cluster cluster(ModelConfig::prototype(), 1, 1, 8 * GiB);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        SelectOffload::descriptor(kSelectId),
        std::make_shared<SelectOffload>(), client.pid());
    cluster.mn(0).registerOffloadShared(
        AggregateOffload::descriptor(kAggId),
        std::make_shared<AggregateOffload>(), client.pid());

    // A 1M-row table: fieldA = gender (0/1), fieldB = final score.
    const std::uint64_t kRows = 1'000'000;
    Rng rng(99);
    std::vector<std::uint8_t> gender(kRows);
    std::vector<std::int64_t> score(kRows);
    for (std::uint64_t i = 0; i < kRows; i++) {
        gender[i] = rng.chance(0.45) ? 1 : 0;
        score[i] = 40 + static_cast<std::int64_t>(rng.uniformInt(61));
    }
    ClioDataFrame df(client, cluster.mn(0).nodeId(), kSelectId, kAggId);
    if (!df.load(gender, score)) {
        std::fprintf(stderr, "table upload failed\n");
        return 1;
    }

    EventQueue &eq = cluster.eventQueue();
    Tick t0 = eq.now();
    auto offload_plan = df.runOffload(1);
    const double offload_ms = ticksToUs(eq.now() - t0) / 1000.0;
    t0 = eq.now();
    auto cn_plan = df.runAtCn(1);
    const double cn_ms = ticksToUs(eq.now() - t0) / 1000.0;

    std::printf("query: SELECT WHERE gender==1; AVG(score); "
                "HISTOGRAM(score)\n");
    std::printf("  MN-offload plan: %7.2f ms, %8llu bytes on wire, "
                "avg=%.2f over %llu rows\n", offload_ms,
                (unsigned long long)offload_plan.net_bytes,
                offload_plan.avg,
                (unsigned long long)offload_plan.selected);
    std::printf("  CN-only plan:    %7.2f ms, %8llu bytes on wire, "
                "avg=%.2f over %llu rows\n", cn_ms,
                (unsigned long long)cn_plan.net_bytes, cn_plan.avg,
                (unsigned long long)cn_plan.selected);

    const bool agree = offload_plan.ok && cn_plan.ok &&
                       offload_plan.selected == cn_plan.selected &&
                       offload_plan.histogram == cn_plan.histogram;
    std::printf("  plans agree: %s\n", agree ? "yes" : "NO");

    std::printf("  histogram: ");
    for (auto bin : offload_plan.histogram)
        std::printf("%llu ", (unsigned long long)bin);
    std::printf("\n");
    return agree ? 0 : 1;
}
