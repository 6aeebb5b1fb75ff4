/**
 * @file
 * Self-healing MTTR: crash-to-redundancy latency of the health plane.
 *
 * The control plane (cluster/health.hh) promises automatic recovery:
 * lease-based detection declares a silent MN dead, the controller
 * picks a replacement and drives a chunked copy from the surviving
 * replica, and the region is fully redundant again with zero client
 * involvement. This bench measures that pipeline end to end and
 * splits the mean time to repair into its two phases:
 *
 *   detection  = kDead event - crash instant   (lease expiry)
 *   resync     = kResyncCompleted - kResyncStarted (chunked copy)
 *   MTTR       = kResyncCompleted - crash instant
 *
 * Two sweeps, both on a 1-CN / 3-MN cluster with a replicated region
 * (primary + backup; the third MN is the standby the controller
 * drafts):
 *   - resync chunk size at the default 20 us heartbeat: bigger chunks
 *     amortize per-op overhead but serialize longer on the wire;
 *   - heartbeat period at the default 256 KiB chunk, scaling the
 *     suspect/dead leases with the period (3x / 7.5x, the default
 *     ratios): faster beacons buy faster detection for more control
 *     traffic.
 *
 * Output: aligned-column text plus JSON ("clio.bench_recovery.v1", no
 * timestamps) to CLIO_BENCH_JSON_OUT or ./BENCH_recovery.json. Smoke
 * mode (CLIO_BENCH_SMOKE=1, the bench-smoke ctest) shrinks the region
 * and the sweeps — announced explicitly so reduced data is never
 * mistaken for the real sweep.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "clib/replication.hh"
#include "cluster/cluster.hh"
#include "cluster/health.hh"
#include "harness.hh"

namespace clio {
namespace {

struct PointResult
{
    std::string sweep;          ///< "chunk" or "heartbeat"
    std::uint64_t chunk_bytes = 0;
    Tick heartbeat_period = 0;
    std::uint64_t region_bytes = 0;
    bool recovered = false;
    double detect_us = 0.0;
    double resync_us = 0.0;
    double mttr_us = 0.0;
    /** Chunk copy reads issued against the surviving replica. */
    std::uint64_t copy_reads = 0;
};

/** One crash-and-heal episode; everything below is pure simulation. */
PointResult
runRecovery(const std::string &sweep, std::uint64_t chunk_bytes,
            Tick heartbeat_period, std::uint64_t region_bytes)
{
    PointResult r;
    r.sweep = sweep;
    r.chunk_bytes = chunk_bytes;
    r.heartbeat_period = heartbeat_period;
    r.region_bytes = region_bytes;

    auto cfg = ModelConfig::prototype();
    cfg.health.enabled = true;
    cfg.health.heartbeat_period = heartbeat_period;
    // Keep the default lease ratios (20/60/150 us) as the period
    // scales, so detection latency tracks the beacon rate.
    cfg.health.suspect_after = 3 * heartbeat_period;
    cfg.health.dead_after =
        7 * heartbeat_period + heartbeat_period / 2;
    cfg.clib.resync_chunk_bytes = chunk_bytes;

    Cluster cluster(cfg, 1, 3);
    ClioClient &client = cluster.createClient(0);
    HealthPlane *hp = cluster.health();
    EventQueue &eq = cluster.eventQueue();

    ReplicatedRegion region(client, region_bytes,
                            cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    if (!region.ok())
        return r;
    // Seed real data so the copy moves every byte of the region.
    std::uint64_t pattern = 0x5EED0001;
    for (std::uint64_t off = 0; off + 8 <= region_bytes;
         off += 64 * KiB) {
        pattern = pattern * 2862933555777941757ull + off;
        region.write(off, &pattern, 8);
    }
    eq.runUntilTime(eq.now() + 200 * kMicrosecond);

    const std::uint64_t reads_before = cluster.mn(1).stats().reads;
    const Tick crash_at = eq.now();
    cluster.crashMn(0);

    // Run until the controller reports the copy done (cap well past
    // any plausible repair: lease + full-region serialization + slack).
    const Tick cap = crash_at + cfg.health.dead_after +
                     200 * kMillisecond;
    while (eq.now() < cap) {
        eq.runUntilTime(eq.now() + kMillisecond);
        if (hp->stats().resyncs_completed > 0)
            break;
    }

    Tick dead_at = 0, started_at = 0, completed_at = 0;
    for (const HealthEvent &e : hp->events()) {
        if (e.at < crash_at)
            continue;
        if (e.kind == HealthEvent::Kind::kDead && dead_at == 0)
            dead_at = e.at;
        else if (e.kind == HealthEvent::Kind::kResyncStarted &&
                 started_at == 0)
            started_at = e.at;
        else if (e.kind == HealthEvent::Kind::kResyncCompleted &&
                 completed_at == 0)
            completed_at = e.at;
    }
    if (dead_at == 0 || started_at == 0 || completed_at == 0 ||
        !region.fullyRedundant())
        return r; // recovered stays false

    r.recovered = true;
    r.detect_us = ticksToUs(dead_at - crash_at);
    r.resync_us = ticksToUs(completed_at - started_at);
    r.mttr_us = ticksToUs(completed_at - crash_at);
    r.copy_reads = cluster.mn(1).stats().reads - reads_before;
    return r;
}

void
writeJson(const std::vector<PointResult> &results)
{
    bench::writeJson("recovery", [&](std::FILE *f) {
        std::fprintf(f, "  \"points\": [\n");
        for (std::size_t i = 0; i < results.size(); i++) {
            const PointResult &r = results[i];
            std::fprintf(
                f,
                "    {\"sweep\": \"%s\", \"chunk_kib\": %llu, "
                "\"heartbeat_us\": %.1f, \"region_mib\": %llu, "
                "\"recovered\": %s, \"detect_us\": %.3f, "
                "\"resync_us\": %.3f, \"mttr_us\": %.3f, "
                "\"copy_reads\": %llu}%s\n",
                r.sweep.c_str(),
                static_cast<unsigned long long>(r.chunk_bytes / KiB),
                ticksToUs(r.heartbeat_period),
                static_cast<unsigned long long>(r.region_bytes / MiB),
                r.recovered ? "true" : "false", r.detect_us, r.resync_us,
                r.mttr_us, static_cast<unsigned long long>(r.copy_reads),
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n");
    });
}

} // namespace
} // namespace clio

int
main()
{
    using namespace clio;

    bench::banner("recovery",
                  "self-healing MTTR: lease detection + controller "
                  "resync after an MN crash (no client heal call)");
    const bool smoke = bench::smokeMode();
    if (smoke)
        bench::note("smoke mode: reduced region and sweep points");

    const std::uint64_t region_bytes = smoke ? 1 * MiB : 4 * MiB;
    std::vector<std::uint64_t> chunks =
        smoke ? std::vector<std::uint64_t>{64 * KiB, 256 * KiB}
              : std::vector<std::uint64_t>{64 * KiB, 128 * KiB,
                                           256 * KiB, 512 * KiB,
                                           1 * MiB};
    std::vector<Tick> periods =
        smoke ? std::vector<Tick>{20 * kMicrosecond, 40 * kMicrosecond}
              : std::vector<Tick>{10 * kMicrosecond, 20 * kMicrosecond,
                                  40 * kMicrosecond,
                                  80 * kMicrosecond};

    std::vector<PointResult> results;

    bench::header({"chunk", "detect_us", "resync_us", "mttr_us",
                   "copy_reads"});
    for (const std::uint64_t chunk : chunks) {
        PointResult r = runRecovery("chunk", chunk, 20 * kMicrosecond,
                                    region_bytes);
        results.push_back(r);
        bench::row(std::to_string(chunk / KiB) + " KiB",
                   {r.detect_us, r.resync_us, r.mttr_us,
                    static_cast<double>(r.copy_reads)});
    }

    bench::header({"heartbeat", "detect_us", "resync_us", "mttr_us",
                   "copy_reads"});
    for (const Tick period : periods) {
        PointResult r =
            runRecovery("heartbeat", 256 * KiB, period, region_bytes);
        results.push_back(r);
        bench::row(std::to_string(period / kMicrosecond) + " us",
                   {r.detect_us, r.resync_us, r.mttr_us,
                    static_cast<double>(r.copy_reads)});
    }

    int failures = 0;
    for (const PointResult &r : results) {
        if (!r.recovered)
            failures++;
    }
    if (failures > 0) {
        bench::note(std::to_string(failures) +
                    " point(s) did NOT recover — investigate");
        return 1;
    }
    bench::note("detection tracks the lease (~dead_after); the copy "
                "scales with region size and chunking overhead");

    writeJson(results);
    return 0;
}
