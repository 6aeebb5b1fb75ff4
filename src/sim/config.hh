/**
 * @file
 * Model calibration parameters for the whole simulation.
 *
 * Every latency/bandwidth/capacity constant in the simulator lives here,
 * with the paper section or figure it was calibrated against. Two presets
 * are provided: prototype() models the ZCU106 FPGA prototype evaluated in
 * the paper (250 MHz fast path, 10 Gbps ports), and asicProjection()
 * models the paper's projected ASIC CBoard (2 GHz, faster DRAM path),
 * used for the Clio-ASIC series in Fig. 6.
 */

#ifndef CLIO_SIM_CONFIG_HH
#define CLIO_SIM_CONFIG_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace clio {

/** CBoard fast-path (hardware pipeline) timing, §5 and Fig. 14. */
struct FastPathConfig
{
    /** Clock period: 250 MHz FPGA prototype = 4 ns. */
    Tick cycle = 4 * kNanosecond;
    /** Datapath width in bits; 512 b/cycle gives 128 Gbps at 250 MHz. */
    std::uint32_t datapath_bits = 512;
    /** Cycles to parse an incoming request + MAT routing decision. */
    std::uint32_t parse_cycles = 4;
    /** Cycles for a TLB lookup (CAM, single cycle in the paper). */
    std::uint32_t tlb_lookup_cycles = 1;
    /** Extra cycles for the page-fault handler when a free PA is ready
     * (the paper's "constant three cycles", §4.3). */
    std::uint32_t page_fault_cycles = 3;
    /** Cycles to form and emit a response header. */
    std::uint32_t respond_cycles = 4;
    /** TLB capacity in entries (on-chip CAM, LRU replacement). */
    std::uint32_t tlb_entries = 1024;
    /** Fixed DMA engine setup cost per read request; the paper blames
     * its third-party non-pipelined DMA IP for read throughput being
     * below write throughput at small sizes (Fig. 9). */
    Tick dma_read_setup = 12 * kNanosecond;
    /** Fixed DMA engine setup cost per write request. */
    Tick dma_write_setup = 4 * kNanosecond;
    /** PHY+MAC ingress/egress processing latency (vendor IP). */
    Tick mac_latency = 150 * kNanosecond;
};

/** On-board DRAM timing, §5 ("slow board memory controller"). */
struct DramConfig
{
    /** One random access through the board's memory controller; this is
     * also the TLB-miss penalty (exactly one bucket fetch, §4.2). */
    Tick access_latency = 300 * kNanosecond;
    /** Sequential stream bandwidth of the on-board DRAM. */
    std::uint64_t bandwidth_bps = 150ull * 1000 * 1000 * 1000;
    /** Server DDR access latency, used for the ASIC projection. */
    Tick server_access_latency = 90 * kNanosecond;
};

/** Datacenter Ethernet model (ToR switch + links), §3.2. */
struct NetConfig
{
    /** Link bandwidth; the prototype ports are 10 Gbps SFP+. */
    std::uint64_t link_bandwidth_bps = 10ull * 1000 * 1000 * 1000;
    /** One-way propagation delay per link (NIC-to-switch). */
    Tick link_propagation = 150 * kNanosecond;
    /** Switch forwarding latency (cut-through ToR). */
    Tick switch_latency = 150 * kNanosecond;
    /** Mean exponential queueing jitter added per switch traversal. */
    Tick switch_jitter_mean = 30 * kNanosecond;
    /** Link-layer MTU in bytes. */
    std::uint32_t mtu = 1500;
    /** Per-packet drop probability (PFC keeps this near zero; raised by
     * fault-injection tests). */
    double loss_rate = 0.0;
    /** Per-packet corruption probability (caught by link-layer checksum,
     * triggers a NACK from the MN, §4.4). */
    double corrupt_rate = 0.0;
    /** Probability that a packet is delayed past its successor
     * (models multi-path / arbitration reordering). */
    double reorder_rate = 0.0;
    /** Extra delay applied to a reordered packet. */
    Tick reorder_delay = 2 * kMicrosecond;
    /** Switch output queue capacity in packets; overflow drops (tail
     * drop) unless lossless mode absorbs it. */
    std::uint32_t switch_queue_packets = 256;
    /** Lossless (PFC-like) mode: full queues back-pressure instead of
     * dropping (tx_start is delayed until the path has room). */
    bool lossless = true;

    /** @{ Multi-rack (leaf/spine) topology. These only matter when
     * nodes are spread across racks; the default single-rack cluster
     * never touches an aggregation link and degenerates to the
     * paper's one-ToR testbed (§3.2). */
    /** Leaf<->spine aggregation link bandwidth (uplinks are faster
     * than host links, 4:1 here like common 10G/40G fabrics). */
    std::uint64_t agg_bandwidth_bps = 40ull * 1000 * 1000 * 1000;
    /** One-way propagation delay of an aggregation link (longer runs
     * than the in-rack NIC-to-ToR cabling). */
    Tick agg_link_propagation = 500 * kNanosecond;
    /** Spine switch forwarding latency. */
    Tick spine_latency = 150 * kNanosecond;
    /** Output queue capacity of each uplink/downlink, in packets. */
    std::uint32_t agg_queue_packets = 1024;
    /** @} */
};

/** CN-side CLib + transport, §4.4/§5. */
struct CLibConfig
{
    /** Software overhead on the request path (half of the paper's 250 ns
     * total CLib overhead). */
    Tick send_overhead = 125 * kNanosecond;
    /** Software overhead on the response path. */
    Tick recv_overhead = 125 * kNanosecond;
    /** CN commodity NIC traversal latency per direction. */
    Tick nic_latency = 200 * kNanosecond;
    /** Request retry timeout for data-path ops (TIMEOUT in §4.5).
     * Must exceed target_rtt so delay-based congestion control reacts
     * before spurious retries fire. */
    Tick timeout = 60 * kMicrosecond;
    /** Retry timeout for slow-path (alloc/free), fence, and offload
     * requests, which legitimately take milliseconds (ARM crossings,
     * allocation retries, long offload scans). */
    Tick slow_op_timeout = 200 * kMillisecond;
    /** Max retries before reporting failure to the application. */
    std::uint32_t max_retries = 2;
    /** Exponential backoff base applied before a timeout-triggered
     * retry is retransmitted: attempt k waits retry_backoff * 2^(k-1),
     * capped at slow_op_timeout. NACK/corruption retries resend
     * immediately (the MN is alive, only the packet was bad). 0
     * disables backoff entirely. */
    Tick retry_backoff = 20 * kMicrosecond;
    /** Initial congestion window (outstanding requests per MN). */
    double cwnd_init = 8.0;
    /** Max congestion window. */
    double cwnd_max = 256.0;
    /** AIMD additive increase per acked request. */
    double cwnd_add_step = 0.5;
    /** AIMD multiplicative decrease factor on congestion. */
    double cwnd_mult_dec = 0.7;
    /** RTT above which the delay-based controller signals congestion. */
    Tick target_rtt = 25 * kMicrosecond;
    /** Incast window: max bytes of expected responses outstanding,
     * sized near the bandwidth-delay product of the 10 Gbps port. */
    std::uint64_t iwnd_bytes = 48 * KiB;
    /** Chunk size for replica heal/resync copy streams. Bigger chunks
     * finish resyncs faster but hold the incast window longer against
     * foreground traffic. */
    std::uint64_t resync_chunk_bytes = 256 * KiB;
};

/** Controller health plane: lease-based failure detection, epoch-fenced
 * membership, and automatic re-replication. Off by default — heartbeat
 * packets share the fabric with data traffic, so enabling the plane
 * legitimately perturbs packet-level RNG streams of existing seeds. */
struct HealthConfig
{
    /** Master switch. When false the cluster behaves exactly as before
     * this layer existed (no controller node, no heartbeats, no epoch
     * checks, crash/restart take effect instantly and heals stay
     * client-driven). */
    bool enabled = false;
    /** Interval between liveness beacons from each node. */
    Tick heartbeat_period = 20 * kMicrosecond;
    /** Lease slack before a silent node turns suspected. A node is
     * suspected once now - last_beacon >= suspect_after (deadlines are
     * inclusive: the transition fires exactly at lease expiry). */
    Tick suspect_after = 60 * kMicrosecond;
    /** Lease expiry: a suspected node is declared dead once
     * now - last_beacon >= dead_after (dead_after > suspect_after). */
    Tick dead_after = 150 * kMicrosecond;
    /** Max replica resyncs the controller drives concurrently; further
     * repairs queue so recovery traffic can't flatten foreground p99. */
    std::uint32_t max_concurrent_resyncs = 2;
    /** Backoff before re-attempting a resync whose source died or
     * whose chunk ops failed mid-copy. */
    Tick reheal_backoff = 50 * kMicrosecond;
};

/** CBoard slow path (ARM SoC) timing, §4.2/§4.3/§5 and Fig. 12/13. */
struct SlowPathConfig
{
    /** One FPGA<->ARM interconnect crossing (the paper measured 40 us
     * on the ZCU106). */
    Tick interconnect_crossing = 40 * kMicrosecond;
    /** Fixed cost of a VA allocation attempt in the ARM allocator
     * (tree search + hash tests), excluding retries. */
    Tick valloc_base = 10 * kMicrosecond;
    /** Incremental VA allocation cost per page (hash + shadow PTE). */
    Tick valloc_per_page = 600 * kNanosecond;
    /** Cost of one allocation retry after a hash overflow (§4.2:
     * "roughly 0.5 ms per retry"). */
    Tick valloc_retry = 500 * kMicrosecond;
    /** Cost of pre-generating one free physical page (background). */
    Tick palloc_per_page = 2 * kMicrosecond;
    /** Capacity of the async free-page buffer the fast path pulls from
     * (§4.3). */
    std::uint32_t async_buffer_pages = 64;
    /** VA free cost per page. */
    Tick vfree_per_page = 300 * kNanosecond;
};

/** Hash page table geometry, §4.2. */
struct PageTableConfig
{
    /** Default page size: 4 MB huge pages. */
    std::uint64_t page_size = 4 * MiB;
    /** Slots per hash bucket (a whole bucket is one DRAM fetch). */
    std::uint32_t bucket_slots = 8;
    /** Page-table overprovisioning factor: total slots = factor *
     * (physical pages). The paper defaults to 2x. */
    double overprovision = 2.0;
};

/** Dedup buffer for retried non-idempotent ops, §4.5 T4. */
struct DedupConfig
{
    /** Buffer capacity = 3 * TIMEOUT * bandwidth ("30 KB in our
     * setting"); expressed directly in entries here. */
    std::uint32_t entries = 512;
};

/** RNIC model for the RDMA baseline, §2.2 and Figs. 4-6, 12. */
struct RdmaConfig
{
    /** Base one-way NIC processing (send or receive side). */
    Tick nic_processing = 350 * kNanosecond;
    /** Host DRAM access from the RNIC over PCIe (cache-miss penalty). */
    Tick pcie_dram_access = 900 * kNanosecond;
    /** QP connection-context cache capacity (entries). */
    std::uint32_t qp_cache_entries = 256;
    /** PTE cache (MTT) capacity. */
    std::uint32_t pte_cache_entries = 4096;
    /** MR metadata cache (MPT) capacity. */
    std::uint32_t mr_cache_entries = 256;
    /** Hard limit: registration fails beyond 2^18 MRs (Fig. 5). */
    std::uint64_t max_mrs = 1ull << 18;
    /** ODP page fault cost: interrupt + host OS handling; the paper
     * measured 16.8 ms end to end. */
    Tick odp_page_fault = Tick(16800) * kMicrosecond;
    /** MR registration fixed cost. */
    Tick mr_register_base = 40 * kMicrosecond;
    /** MR registration per-4KB-page cost (pinning + MTT update). */
    Tick mr_register_per_page = 9 * kNanosecond;
    /** MR deregistration costs. */
    Tick mr_deregister_base = 30 * kMicrosecond;
    Tick mr_deregister_per_page = 5 * kNanosecond;
    /** ODP registration is cheap (no pinning) but faults later. */
    Tick mr_register_odp = 25 * kMicrosecond;
    /** Heavier tail than Clio: mean of the exponential jitter the host
     * memory system adds to each RNIC DRAM access. */
    Tick host_jitter_mean = 120 * kNanosecond;
    /** Probability of a long-tail stall (host cache/TLB interference). */
    double tail_stall_prob = 0.0015;
    /** Duration of such a stall. */
    Tick tail_stall = 60 * kMicrosecond;
};

/** Latency profiles for the remaining baseline systems (§7.1). */
struct BaselineConfig
{
    /** LegoOS software MN: per-request software handling cost on top of
     * RDMA-ish networking (hash lookup + thread-pool dispatch). */
    Tick legoos_sw_request = 2500 * kNanosecond;
    /** LegoOS peak data-path throughput (the paper measured 77 Gbps). */
    std::uint64_t legoos_peak_bps = 77ull * 1000 * 1000 * 1000;
    /** HERD RPC handler cost on a server CPU core. */
    Tick herd_cpu_handler = 2500 * kNanosecond;
    /** BlueField: crossing between the ConnectX chip and the ARM chip
     * (each direction), the dominant HERD-BF overhead. */
    Tick bluefield_chip_crossing = 1800 * kNanosecond;
    /** Clover-style PDM: extra round trips for writes (>= 2 RTT). */
    std::uint32_t clover_write_rtts = 2;
    /** Clover CN-side management cost per op (allocation metadata,
     * version chasing). */
    Tick clover_cn_overhead = 300 * kNanosecond;
};

/** Extend-path offload runtime (§4.6): engine count, chain limits,
 * dispatch overhead. */
struct OffloadConfig
{
    /** Replicated offload engines the scheduler arbitrates; each
     * invocation (or whole chained plan) occupies one engine for its
     * modeled duration. */
    std::uint32_t engines = 2;
    /** Max stages a chained plan may carry (kChainTooDeep beyond). */
    std::uint32_t max_chain_depth = 16;
    /** Fast-path cycles to decode + dispatch one invocation or chain
     * stage (MAT match, descriptor fetch, arg staging). */
    std::uint32_t dispatch_cycles = 8;
};

/** Node-level power draw for the energy model (Fig. 21, §7.3). */
struct EnergyConfig
{
    /** Whole compute-node server under load. */
    double cn_server_watts = 250.0;
    /** One CBoard (FPGA + ARM + DRAM, measured ~25 W class). */
    double cboard_watts = 25.0;
    /** A server-based MN (CPU MN for HERD / LegoOS). */
    double mn_server_watts = 150.0;
    /** BlueField SmartNIC MN (card + its host share). */
    double bluefield_watts = 75.0;
    /** A passive raw-memory node (Clover-style, DRAM + slim NIC). */
    double passive_mn_watts = 40.0;
    /** Per-active-core fraction attribution for CN-side accounting. */
    double cn_core_fraction = 0.5;
    /** Marginal draw of one busy offload engine (synthesized logic
     * active on the FPGA fabric), attributed per engine-busy time. */
    double offload_engine_watts = 1.5;
};

/** Distributed-MN management, §4.7. */
struct DistributedConfig
{
    /** Region granularity the global controller assigns (1 GB). */
    std::uint64_t region_size = 1 * GiB;
    /** Free-memory fraction below which an MN migrates regions away. */
    double pressure_threshold = 0.10;
};

/** Top-level bundle of every model parameter. */
struct ModelConfig
{
    FastPathConfig fast_path;
    DramConfig dram;
    NetConfig net;
    CLibConfig clib;
    SlowPathConfig slow_path;
    PageTableConfig page_table;
    DedupConfig dedup;
    OffloadConfig offload;
    RdmaConfig rdma;
    BaselineConfig baselines;
    EnergyConfig energy;
    DistributedConfig dist;
    HealthConfig health;

    /** Physical memory per MN; the ZCU106 boards carry 2 GB. */
    std::uint64_t mn_phys_bytes = 2 * GiB;

    /** Master RNG seed; derived streams add fixed offsets. */
    std::uint64_t seed = 42;

    /** Event-queue engine driving the cluster (kDefault resolves to
     * the timing wheel unless CLIO_EVENT_QUEUE=heap is set). Both
     * engines order events identically; kBinaryHeap exists for
     * differential testing. */
    EventQueueImpl event_queue_impl = EventQueueImpl::kDefault;

    /** The FPGA prototype configuration evaluated in the paper. */
    static ModelConfig prototype();

    /** The paper's ASIC projection: 2 GHz fast path, server-class DDR,
     * 100 Gbps ports (Fig. 6 "Clio-ASIC"). */
    static ModelConfig asicProjection();

    /** Fast-path bytes per cycle. */
    std::uint64_t
    datapathBytesPerCycle() const
    {
        return fast_path.datapath_bits / 8;
    }

    /** Fast-path peak bandwidth in bits per second. */
    std::uint64_t
    fastPathPeakBps() const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(fast_path.datapath_bits) *
            (static_cast<double>(kSecond) /
             static_cast<double>(fast_path.cycle)));
    }
};

} // namespace clio

#endif // CLIO_SIM_CONFIG_HH
