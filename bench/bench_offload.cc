/**
 * @file
 * Offload runtime crossover: chained MN-side pipelines vs CN-driven
 * batched access, plus the per-offload FPGA resource and energy
 * accounting the registry keeps for Fig. 21/22.
 *
 * Three strategies over the same remote radix tree:
 *   chained  one rcall_chain per max_chain_depth levels: chase stages
 *            linked MN-side (reply bytes patched into the next
 *            stage's start address), so a depth-D search costs
 *            ceil(D / max_chain_depth) round trips;
 *   looped   one rcall per level (the pre-chaining extend path):
 *            D round trips, each shipping one 32-byte node;
 *   batched  CN-driven bulk access (the RDMA-style plan): download
 *            the whole node arena in one large read and traverse
 *            locally. One round trip, but the payload is the entire
 *            structure — nodes * 32 bytes on the wire.
 *
 * Two sweeps locate the crossover:
 *   - chain depth (key length) at a fixed tree population: batched
 *     pays the same bulk download regardless of depth, so shallow
 *     searches favor it while depth >= 3 chains win;
 *   - tree population at a fixed depth: the batched payload grows
 *     linearly with the tree while the chained plan stays one small
 *     round trip.
 * A dataframe section measures the select->aggregate chain (one bound
 * plan) against the two-rcall offload plan and the CN-only plan.
 *
 * The accounting section drives every migrated offload (pointer-chase,
 * df-select, df-aggregate, clio-kv) on one board and reports each
 * one's registry stats together with its LUT/BRAM share (LUT
 * replicated per engine, BRAM shared — energy/resources.hh) and the
 * engine-busy energy (Fig. 21 model).
 *
 * Output: aligned-column text plus JSON ("clio.bench_offload.v1", no
 * timestamps) to CLIO_BENCH_JSON_OUT or ./BENCH_offload.json. Smoke
 * mode (CLIO_BENCH_SMOKE=1, the bench-smoke ctest) shrinks trees and
 * sweeps — announced explicitly so reduced data is never mistaken for
 * the real sweep.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/dataframe.hh"
#include "apps/kv_store.hh"
#include "apps/radix_tree.hh"
#include "cluster/cluster.hh"
#include "energy/energy.hh"
#include "energy/resources.hh"
#include "harness.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace clio {
namespace {

constexpr std::uint32_t kChaseId = 3;
constexpr std::uint32_t kSelectId = 4;
constexpr std::uint32_t kAggId = 5;
constexpr std::uint32_t kKvId = 6;

std::string
randomKey(Rng &rng, std::size_t len)
{
    std::string key;
    for (std::size_t c = 0; c < len; c++)
        key.push_back(static_cast<char>('a' + rng.uniformInt(26)));
    return key;
}

// -------------------------------------------------------------------
// Radix sweeps: chained vs looped vs CN-batched
// -------------------------------------------------------------------

struct ChasePoint
{
    std::string sweep; ///< "depth" or "elements"
    std::uint64_t depth = 0;
    std::uint64_t entries = 0;
    std::uint64_t nodes = 0;
    double chained_us = 0;
    double looped_us = 0;
    double batched_us = 0;
    /** Round trips one search costs under each strategy. */
    double chained_rtts = 0;
    double looped_rtts = 0;
    bool ok = false;
};

/** Local traversal of a downloaded arena image (the CN-driven plan's
 * compute half; its simulated cost is the bulk read). */
std::uint64_t
traverseImage(const std::vector<std::uint8_t> &image, VirtAddr base,
              const std::string &key)
{
    struct NodeImage
    {
        std::uint64_t next, child_head, ch, value;
    };
    auto at = [&](VirtAddr addr) {
        NodeImage img;
        std::memcpy(&img, image.data() + (addr - base), sizeof(img));
        return img;
    };
    NodeImage img = at(base); // root is the first node
    for (char c : key) {
        VirtAddr child = img.child_head;
        bool found = false;
        while (child) {
            img = at(child);
            if (img.ch == static_cast<std::uint64_t>(
                              static_cast<std::uint8_t>(c))) {
                found = true;
                break;
            }
            child = img.next;
        }
        if (!found)
            return 0;
    }
    return img.value;
}

ChasePoint
runChase(const std::string &sweep, std::uint64_t depth,
         std::uint64_t entries)
{
    ChasePoint p;
    p.sweep = sweep;
    p.depth = depth;
    p.entries = entries;

    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        PointerChaseOffload::descriptor(kChaseId),
        std::make_shared<PointerChaseOffload>(), client.pid());

    Rng rng(depth * 1000003 + entries);
    std::vector<std::pair<std::string, std::uint64_t>> kvs;
    kvs.reserve(entries);
    for (std::uint64_t i = 0; i < entries; i++)
        kvs.emplace_back(randomKey(rng, depth), i + 1);
    RemoteRadixTree tree(client, cluster.mn(0).nodeId(), kChaseId,
                         (entries * depth + 64) * 40);
    if (!tree.bulkLoad(kvs))
        return p;
    p.nodes = tree.nodeCount();

    EventQueue &eq = cluster.eventQueue();
    LatencyHistogram chained, looped, batched;
    std::uint64_t chained_calls = 0, looped_calls = 0;
    std::vector<std::uint8_t> image(tree.arenaUsed());

    // Warm the board: fault in and TLB-fill every arena page, and run
    // one search per strategy, so the measured loop is steady-state —
    // whichever strategy ran first would otherwise pay all the cold
    // misses for the others.
    if (client.rread(tree.arenaBase(), image.data(), image.size()) !=
        Status::kOk)
        return p;
    tree.searchChained(kvs.front().first);
    tree.searchOffload(kvs.front().first);

    const std::uint64_t searches = bench::iters(24);
    for (std::uint64_t i = 0; i < searches; i++) {
        const auto &key = kvs[rng.uniformInt(kvs.size())].first;

        Tick t0 = eq.now();
        const auto rc = tree.searchChained(key);
        chained.record(eq.now() - t0);
        chained_calls += rc.offload_calls;

        t0 = eq.now();
        const auto rl = tree.searchOffload(key);
        looped.record(eq.now() - t0);
        looped_calls += rl.offload_calls;

        // CN-driven batched plan: one bulk download, local chase.
        t0 = eq.now();
        if (client.rread(tree.arenaBase(), image.data(),
                         image.size()) != Status::kOk)
            return p;
        batched.record(eq.now() - t0);
        const std::uint64_t rb =
            traverseImage(image, tree.arenaBase(), key);

        if (!rc.value || !rl.value || *rc.value != *rl.value ||
            rb != *rc.value)
            return p; // strategies disagree -> p.ok stays false
    }
    p.chained_us = ticksToUs(chained.median());
    p.looped_us = ticksToUs(looped.median());
    p.batched_us = ticksToUs(batched.median());
    p.chained_rtts = static_cast<double>(chained_calls) /
                     static_cast<double>(searches);
    p.looped_rtts = static_cast<double>(looped_calls) /
                    static_cast<double>(searches);
    p.ok = true;
    return p;
}

// -------------------------------------------------------------------
// Dataframe: chained select->aggregate vs two rcalls vs CN-only
// -------------------------------------------------------------------

struct DfPoint
{
    int select_pct = 0;
    std::uint64_t rows = 0;
    double chained_us = 0;
    double offload_us = 0;
    double cn_us = 0;
    double chained_net_kib = 0;
    double cn_net_kib = 0;
    bool ok = false;
};

DfPoint
runDf(int select_pct, std::uint64_t rows)
{
    DfPoint p;
    p.select_pct = select_pct;
    p.rows = rows;

    Cluster cluster(ModelConfig::prototype(), 1, 1, 8 * GiB);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        SelectOffload::descriptor(kSelectId),
        std::make_shared<SelectOffload>(), client.pid());
    cluster.mn(0).registerOffloadShared(
        AggregateOffload::descriptor(kAggId),
        std::make_shared<AggregateOffload>(), client.pid());

    Rng rng(select_pct);
    std::vector<std::uint8_t> col_a(rows);
    std::vector<std::int64_t> col_b(rows);
    for (std::uint64_t i = 0; i < rows; i++) {
        col_a[i] = rng.chance(select_pct / 100.0) ? 1 : 0;
        col_b[i] = static_cast<std::int64_t>(rng.uniformInt(100));
    }
    ClioDataFrame df(client, cluster.mn(0).nodeId(), kSelectId, kAggId);
    if (!df.load(col_a, col_b))
        return p;

    EventQueue &eq = cluster.eventQueue();
    // Steady-state warmup (cold page faults would bill the first plan).
    if (!df.runOffloadChained(1).ok || !df.runOffload(1).ok ||
        !df.runAtCn(1).ok)
        return p;
    Tick t0 = eq.now();
    const auto chained = df.runOffloadChained(1);
    p.chained_us = ticksToUs(eq.now() - t0);
    t0 = eq.now();
    const auto offload = df.runOffload(1);
    p.offload_us = ticksToUs(eq.now() - t0);
    t0 = eq.now();
    const auto local = df.runAtCn(1);
    p.cn_us = ticksToUs(eq.now() - t0);

    p.chained_net_kib =
        static_cast<double>(chained.net_bytes) / KiB;
    p.cn_net_kib = static_cast<double>(local.net_bytes) / KiB;
    p.ok = chained.ok && offload.ok && local.ok &&
           chained.selected == local.selected &&
           chained.selected == offload.selected;
    return p;
}

// -------------------------------------------------------------------
// Per-offload resource + energy accounting (Fig. 21/22 wiring)
// -------------------------------------------------------------------

struct OffloadRow
{
    std::uint32_t id = 0;
    std::string name;
    double lut_pct = 0;
    double bram_pct = 0;
    std::uint64_t calls = 0;
    std::uint64_t chain_stages = 0;
    double busy_us = 0;
    double energy_mj = 0;
};

struct Accounting
{
    std::uint32_t engines = 0;
    double total_lut_pct = 0;
    double total_bram_pct = 0;
    double engine_busy_us = 0;
    double engine_wait_us = 0;
    double engine_energy_mj = 0;
    std::vector<OffloadRow> rows;
    bool ok = false;
};

/** One board hosting every migrated offload, driven by a small mixed
 * workload so the registry stats are live numbers, not zeros. */
Accounting
runAccounting()
{
    Accounting acc;
    auto cfg = ModelConfig::prototype();
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    mn.registerOffloadShared(PointerChaseOffload::descriptor(kChaseId),
                             std::make_shared<PointerChaseOffload>(),
                             client.pid());
    mn.registerOffloadShared(SelectOffload::descriptor(kSelectId),
                             std::make_shared<SelectOffload>(),
                             client.pid());
    mn.registerOffloadShared(AggregateOffload::descriptor(kAggId),
                             std::make_shared<AggregateOffload>(),
                             client.pid());
    mn.registerOffload(ClioKvOffload::descriptor(kKvId),
                       std::make_shared<ClioKvOffload>(1024));

    Rng rng(2022);
    // Radix searches (chained + looped).
    std::vector<std::pair<std::string, std::uint64_t>> kvs;
    for (std::uint64_t i = 0; i < 200; i++)
        kvs.emplace_back(randomKey(rng, 6), i + 1);
    RemoteRadixTree tree(client, mn.nodeId(), kChaseId, 2 * MiB);
    if (!tree.bulkLoad(kvs))
        return acc;
    for (int i = 0; i < 8; i++) {
        tree.searchChained(kvs[rng.uniformInt(kvs.size())].first);
        tree.searchOffload(kvs[rng.uniformInt(kvs.size())].first);
    }
    // One chained dataframe query.
    std::vector<std::uint8_t> col_a(4096);
    std::vector<std::int64_t> col_b(4096);
    for (std::size_t i = 0; i < col_a.size(); i++) {
        col_a[i] = rng.chance(0.1) ? 1 : 0;
        col_b[i] = static_cast<std::int64_t>(rng.uniformInt(100));
    }
    ClioDataFrame df(client, mn.nodeId(), kSelectId, kAggId);
    if (!df.load(col_a, col_b) || !df.runOffloadChained(1).ok)
        return acc;
    // KV traffic: singles plus a chained mget batch.
    ClioKvClient kv(client, {mn.nodeId()}, kKvId);
    std::vector<std::string> keys;
    for (int i = 0; i < 32; i++) {
        keys.push_back("key-" + std::to_string(i));
        if (!kv.put(keys.back(), "value-" + std::to_string(i)))
            return acc;
    }
    for (const auto &v : kv.mget(keys)) {
        if (!v)
            return acc;
    }

    const OffloadRuntime &rt = mn.offloadRuntime();
    acc.engines = rt.scheduler().engineCount();
    const auto util =
        offloadUtilization(rt.registry().descriptors(), acc.engines);
    const auto &stats = rt.scheduler().stats();
    acc.engine_busy_us = ticksToUs(stats.busy_ticks);
    acc.engine_wait_us = ticksToUs(stats.wait_ticks);
    acc.engine_energy_mj = offloadEnergyMj(cfg.energy, stats.busy_ticks);
    acc.total_lut_pct = util.front().lut_pct;
    acc.total_bram_pct = util.front().bram_pct;
    for (const auto &[id, entry] : rt.registry().entries()) {
        OffloadRow row;
        row.id = id;
        row.name = entry.desc.name;
        for (const auto &u : util) {
            if (u.name == entry.desc.name) {
                row.lut_pct = u.lut_pct;
                row.bram_pct = u.bram_pct;
            }
        }
        row.calls = entry.stats.calls;
        row.chain_stages = entry.stats.chain_stages;
        const Tick busy = entry.stats.cost.total();
        row.busy_us = ticksToUs(busy);
        row.energy_mj = offloadEnergyMj(cfg.energy, busy);
        if (row.calls + row.chain_stages == 0)
            return acc; // an offload the workload never exercised
        acc.rows.push_back(row);
    }
    acc.ok = acc.rows.size() == 4 && stats.busy_ticks > 0;
    return acc;
}

// -------------------------------------------------------------------
// JSON
// -------------------------------------------------------------------

void
writeJson(const std::vector<ChasePoint> &chase,
          const std::vector<DfPoint> &df, const Accounting &acc,
          std::uint64_t crossover_depth, std::uint64_t crossover_entries)
{
    bench::writeJson("offload", [&](std::FILE *f) {
        std::fprintf(f, "  \"engines\": %u,\n", acc.engines);
        std::fprintf(f, "  \"points\": [\n");
        for (std::size_t i = 0; i < chase.size(); i++) {
            const ChasePoint &p = chase[i];
            std::fprintf(
                f,
                "    {\"sweep\": \"%s\", \"depth\": %llu, "
                "\"entries\": %llu, \"nodes\": %llu, "
                "\"chained_us\": %.3f, \"looped_us\": %.3f, "
                "\"cn_batched_us\": %.3f, \"chained_rtts\": %.2f, "
                "\"looped_rtts\": %.2f, \"ok\": %s}%s\n",
                p.sweep.c_str(), static_cast<unsigned long long>(p.depth),
                static_cast<unsigned long long>(p.entries),
                static_cast<unsigned long long>(p.nodes), p.chained_us,
                p.looped_us, p.batched_us, p.chained_rtts, p.looped_rtts,
                p.ok ? "true" : "false",
                i + 1 < chase.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"dataframe\": [\n");
        for (std::size_t i = 0; i < df.size(); i++) {
            const DfPoint &p = df[i];
            std::fprintf(
                f,
                "    {\"select_pct\": %d, \"rows\": %llu, "
                "\"chained_us\": %.3f, \"offload_us\": %.3f, "
                "\"cn_us\": %.3f, \"chained_net_kib\": %.1f, "
                "\"cn_net_kib\": %.1f, \"ok\": %s}%s\n",
                p.select_pct, static_cast<unsigned long long>(p.rows),
                p.chained_us, p.offload_us, p.cn_us, p.chained_net_kib,
                p.cn_net_kib, p.ok ? "true" : "false",
                i + 1 < df.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n  \"crossover\": {\"chained_beats_cn_depth\": "
                     "%llu, \"chained_beats_cn_entries\": %llu},\n",
                     static_cast<unsigned long long>(crossover_depth),
                     static_cast<unsigned long long>(crossover_entries));
        std::fprintf(f, "  \"offloads\": [\n");
        for (std::size_t i = 0; i < acc.rows.size(); i++) {
            const OffloadRow &r = acc.rows[i];
            std::fprintf(
                f,
                "    {\"id\": %u, \"name\": \"%s\", \"lut_pct\": %.2f, "
                "\"bram_pct\": %.2f, \"calls\": %llu, "
                "\"chain_stages\": %llu, \"busy_us\": %.3f, "
                "\"energy_mj\": %.6f}%s\n",
                r.id, r.name.c_str(), r.lut_pct, r.bram_pct,
                static_cast<unsigned long long>(r.calls),
                static_cast<unsigned long long>(r.chain_stages), r.busy_us,
                r.energy_mj, i + 1 < acc.rows.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n  \"engine_totals\": {\"lut_pct\": %.2f, "
                     "\"bram_pct\": %.2f, \"busy_us\": %.3f, "
                     "\"wait_us\": %.3f, \"energy_mj\": %.6f}\n",
                     acc.total_lut_pct, acc.total_bram_pct,
                     acc.engine_busy_us, acc.engine_wait_us,
                     acc.engine_energy_mj);
    });
}

} // namespace
} // namespace clio

int
main()
{
    using namespace clio;

    bench::banner("offload",
                  "chained MN-side pipelines vs CN-driven batched "
                  "access, with per-offload FPGA resource and energy "
                  "accounting");
    const bool smoke = bench::smokeMode();
    if (smoke)
        bench::note("smoke mode: reduced trees, rows, and sweeps");

    std::vector<ChasePoint> chase;

    // Depth sweep: same populated tree scale, deeper and deeper keys.
    const std::uint64_t depth_entries = smoke ? 192 : 768;
    const std::vector<std::uint64_t> depths =
        smoke ? std::vector<std::uint64_t>{1, 3, 8}
              : std::vector<std::uint64_t>{1, 2, 3, 4, 6, 8, 12, 16};
    bench::header({"depth", "chained_us", "looped_us", "batched_us",
                   "chain_rtts"});
    for (const std::uint64_t d : depths) {
        ChasePoint p = runChase("depth", d, depth_entries);
        chase.push_back(p);
        bench::row(std::to_string(d), {p.chained_us, p.looped_us,
                                       p.batched_us, p.chained_rtts});
    }

    // Element sweep at a fixed depth: the batched download grows with
    // the tree; the chained plan does not.
    const std::uint64_t sweep_depth = 4;
    const std::vector<std::uint64_t> element_counts =
        smoke ? std::vector<std::uint64_t>{64, 512}
              : std::vector<std::uint64_t>{32, 64, 128, 256, 512, 1024,
                                           2048};
    bench::header({"entries", "chained_us", "looped_us", "batched_us",
                   "nodes"});
    for (const std::uint64_t n : element_counts) {
        ChasePoint p = runChase("elements", sweep_depth, n);
        chase.push_back(p);
        bench::row(std::to_string(n),
                   {p.chained_us, p.looped_us, p.batched_us,
                    static_cast<double>(p.nodes)});
    }

    // Dataframe: the select->aggregate chain saves one round trip over
    // the two-rcall plan; the CN plan ships whole columns.
    std::vector<DfPoint> df;
    bench::header({"select(%)", "chained_us", "offload_us", "cn_us",
                   "net_kib"});
    for (int pct : {5, 40}) {
        DfPoint p = runDf(pct, smoke ? 8000 : 120000);
        df.push_back(p);
        bench::row(std::to_string(pct),
                   {p.chained_us, p.offload_us, p.cn_us,
                    p.chained_net_kib});
    }

    Accounting acc = runAccounting();
    bench::header({"offload", "LUT(%)", "BRAM(%)", "calls+stages",
                   "busy_us", "energy_mj"});
    for (const OffloadRow &r : acc.rows) {
        bench::row(r.name,
                   {r.lut_pct, r.bram_pct,
                    static_cast<double>(r.calls + r.chain_stages),
                    r.busy_us, r.energy_mj});
    }

    // ---- Acceptance checks -----------------------------------------
    int failures = 0;
    for (const ChasePoint &p : chase) {
        if (!p.ok)
            failures++;
    }
    for (const DfPoint &p : df) {
        if (!p.ok)
            failures++;
    }
    if (!acc.ok)
        failures++;

    // The headline crossover: the shallowest depth-sweep point where
    // the chained pipeline beats the CN-driven batched download, and
    // the smallest element count where it does.
    std::uint64_t crossover_depth = 0, crossover_entries = 0;
    for (const ChasePoint &p : chase) {
        if (!p.ok || p.chained_us >= p.batched_us)
            continue;
        if (p.sweep == "depth" &&
            (crossover_depth == 0 || p.depth < crossover_depth))
            crossover_depth = p.depth;
        if (p.sweep == "elements" &&
            (crossover_entries == 0 || p.entries < crossover_entries))
            crossover_entries = p.entries;
    }
    bool depth3_win = false;
    for (const ChasePoint &p : chase) {
        if (p.sweep == "depth" && p.ok && p.depth >= 3 &&
            p.chained_us < p.batched_us && p.chained_us < p.looped_us)
            depth3_win = true;
    }
    if (!depth3_win) {
        bench::note("FAIL: no depth >= 3 point where the chained "
                    "pipeline beats both CN-batched and looped plans");
        failures++;
    }
    for (const DfPoint &p : df) {
        if (p.ok && p.chained_us > p.offload_us) {
            bench::note("FAIL: chained dataframe plan slower than the "
                        "two-rcall plan at select=" +
                        std::to_string(p.select_pct) + "%");
            failures++;
        }
    }
    if (failures > 0) {
        bench::note(std::to_string(failures) + " check(s) failed");
        return 1;
    }
    bench::note("expected shape: batched wins only shallow/small "
                "structures (one cheap download); from depth >= 3 the "
                "chained plan's one small round trip per "
                "max_chain_depth levels wins, and its lead grows with "
                "tree size");

    writeJson(chase, df, acc, crossover_depth, crossover_entries);
    return 0;
}
