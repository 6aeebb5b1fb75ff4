#include "apps/dataframe.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace clio {

namespace {

/** Rows scanned per chunk by the offloads (bounded on-chip staging). */
constexpr std::uint64_t kScanChunkRows = 8192;

template <typename T>
std::vector<std::uint8_t>
encodeStruct(const T &args)
{
    std::vector<std::uint8_t> out(sizeof(T));
    std::memcpy(out.data(), &args, sizeof(T));
    return out;
}

template <typename T>
bool
decodeStruct(const std::vector<std::uint8_t> &arg, T &out)
{
    if (arg.size() != sizeof(T))
        return false;
    std::memcpy(&out, arg.data(), sizeof(T));
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Offloads
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
SelectOffload::encode(const Args &args)
{
    return encodeStruct(args);
}

OffloadDescriptor
SelectOffload::descriptor(std::uint32_t id)
{
    return {.id = id,
            .name = "df-select",
            .arg_bytes = sizeof(Args),
            .reply_bytes_hint = 32,
            .lut = 8400.0,         // predicate comparators + compaction
            .bram_bytes = 65536.0, // chunk staging buffers
            .cycles_per_call = 8,
            .cycles_per_element = 1};
}

OffloadResult
SelectOffload::invoke(OffloadVm &vm, const std::vector<std::uint8_t> &arg)
{
    OffloadResult res;
    Args args;
    if (!decodeStruct(arg, args)) {
        return offloadError(OffloadErrc::kBadArgument,
                            "df-select: argument is " +
                                std::to_string(arg.size()) +
                                " bytes, want " +
                                std::to_string(sizeof(Args)));
    }
    std::vector<std::uint8_t> a_chunk(kScanChunkRows);
    std::vector<std::int64_t> b_chunk(kScanChunkRows);
    std::vector<std::int64_t> out_chunk;
    std::uint64_t selected = 0;
    for (std::uint64_t row = 0; row < args.rows; row += kScanChunkRows) {
        const std::uint64_t n =
            std::min<std::uint64_t>(kScanChunkRows, args.rows - row);
        if (!vm.read(args.col_a_addr + row, a_chunk.data(), n) ||
            !vm.read(args.col_b_addr + row * 8, b_chunk.data(), n * 8)) {
            return offloadError(OffloadErrc::kBadAddress,
                                "df-select: column read faulted",
                                Status::kBadAddress);
        }
        out_chunk.clear();
        for (std::uint64_t i = 0; i < n; i++) {
            if (a_chunk[i] == args.match)
                out_chunk.push_back(b_chunk[i]);
        }
        if (!out_chunk.empty()) {
            if (!vm.write(args.out_addr + selected * 8,
                          out_chunk.data(), out_chunk.size() * 8)) {
                return offloadError(OffloadErrc::kBadAddress,
                                    "df-select: output write faulted",
                                    Status::kBadAddress);
            }
            selected += out_chunk.size();
        }
        // Per-row predicate evaluation on the FPGA (slower per element
        // than a CPU, §7.2).
        vm.chargeCycles(n);
    }
    res.value = selected;
    return res;
}

std::vector<std::uint8_t>
AggregateOffload::encode(const Args &args)
{
    return encodeStruct(args);
}

OffloadDescriptor
AggregateOffload::descriptor(std::uint32_t id)
{
    return {.id = id,
            .name = "df-aggregate",
            .arg_bytes = sizeof(Args),
            .reply_bytes_hint = 16,
            .lut = 3100.0,         // adder tree + divider
            .bram_bytes = 65536.0, // chunk staging buffer
            .cycles_per_call = 8,
            .cycles_per_element = 1};
}

OffloadResult
AggregateOffload::invoke(OffloadVm &vm,
                         const std::vector<std::uint8_t> &arg)
{
    OffloadResult res;
    Args args;
    if (!decodeStruct(arg, args)) {
        return offloadError(OffloadErrc::kBadArgument,
                            "df-aggregate: argument is " +
                                std::to_string(arg.size()) +
                                " bytes, want " +
                                std::to_string(sizeof(Args)));
    }
    std::vector<std::int64_t> chunk(kScanChunkRows);
    double sum = 0;
    for (std::uint64_t i = 0; i < args.count; i += kScanChunkRows) {
        const std::uint64_t n =
            std::min<std::uint64_t>(kScanChunkRows, args.count - i);
        if (!vm.read(args.values_addr + i * 8, chunk.data(), n * 8)) {
            return offloadError(OffloadErrc::kBadAddress,
                                "df-aggregate: values read faulted",
                                Status::kBadAddress);
        }
        for (std::uint64_t j = 0; j < n; j++)
            sum += static_cast<double>(chunk[j]);
        vm.chargeCycles(n);
    }
    const double avg =
        args.count ? sum / static_cast<double>(args.count) : 0.0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &avg, 8);
    res.value = bits;
    return res;
}

// ---------------------------------------------------------------------
// CN-side application
// ---------------------------------------------------------------------

ClioDataFrame::ClioDataFrame(ClioClient &client, NodeId mn,
                             std::uint32_t select_id, std::uint32_t agg_id,
                             Tick cn_ps_per_row)
    : client_(client), mn_(mn), select_id_(select_id), agg_id_(agg_id),
      cn_ps_per_row_(cn_ps_per_row)
{
}

bool
ClioDataFrame::load(const std::vector<std::uint8_t> &col_a,
                    const std::vector<std::int64_t> &col_b)
{
    clio_assert(col_a.size() == col_b.size(), "ragged columns");
    rows_ = col_a.size();
    col_a_ = client_.ralloc(std::max<std::uint64_t>(rows_, 1)).value_or(0);
    col_b_ =
        client_.ralloc(std::max<std::uint64_t>(rows_ * 8, 8)).value_or(0);
    scratch_ =
        client_.ralloc(std::max<std::uint64_t>(rows_ * 8, 8)).value_or(0);
    if (!col_a_ || !col_b_ || !scratch_)
        return false;
    // Upload both columns in one doorbell.
    return client_.rwritev({{col_a_, col_a.data(), rows_},
                            {col_b_, col_b.data(), rows_ * 8}}) ==
           Status::kOk;
}

void
ClioDataFrame::buildHistogram(const std::vector<std::int64_t> &values,
                              std::array<std::uint64_t, 16> &bins)
{
    bins.fill(0);
    if (values.empty())
        return;
    const auto [lo_it, hi_it] =
        std::minmax_element(values.begin(), values.end());
    const double lo = static_cast<double>(*lo_it);
    const double span =
        std::max(1.0, static_cast<double>(*hi_it) - lo);
    for (std::int64_t v : values) {
        auto bin = static_cast<std::size_t>(
            (static_cast<double>(v) - lo) / span * 15.999);
        bins[bin]++;
    }
}

void
ClioDataFrame::chargeCnCompute(std::uint64_t row_count)
{
    EventQueue &eq = client_.cnode().eventQueue();
    eq.runUntilTime(eq.now() + cn_ps_per_row_ * row_count);
}

DfQueryResult
ClioDataFrame::runOffload(std::uint8_t match)
{
    DfQueryResult out;
    // 1) select at the MN: compact matching fieldB values in place.
    SelectOffload::Args sel;
    sel.col_a_addr = col_a_;
    sel.col_b_addr = col_b_;
    sel.out_addr = scratch_;
    sel.rows = rows_;
    sel.match = match;
    const Result<OffloadReply> sel_reply =
        client_.rcall(mn_, select_id_, SelectOffload::encode(sel));
    if (!sel_reply)
        return out;
    out.net_bytes += sizeof(sel) + 32;
    const std::uint64_t selected = sel_reply->value;
    out.selected = selected;

    // 2) aggregate at the MN over the compacted values.
    AggregateOffload::Args agg;
    agg.values_addr = scratch_;
    agg.count = selected;
    const Result<OffloadReply> agg_reply =
        client_.rcall(mn_, agg_id_, AggregateOffload::encode(agg));
    if (!agg_reply)
        return out;
    out.net_bytes += sizeof(agg) + 32;
    const std::uint64_t avg_bits = agg_reply->value;
    std::memcpy(&out.avg, &avg_bits, 8);

    // 3) histogram at the CN: fetch ONLY the selected values.
    std::vector<std::int64_t> values(selected);
    if (selected) {
        if (client_.rread(scratch_, values.data(), selected * 8) !=
            Status::kOk)
            return out;
        out.net_bytes += selected * 8;
    }
    chargeCnCompute(selected);
    buildHistogram(values, out.histogram);
    out.ok = true;
    return out;
}

DfQueryResult
ClioDataFrame::runOffloadChained(std::uint8_t match)
{
    DfQueryResult out;
    // select→aggregate as one MN-side plan. The aggregate stage's
    // `count` field (Args offset 8) is patched from the select stage's
    // reply value — the CN never sees the intermediate match count.
    SelectOffload::Args sel;
    sel.col_a_addr = col_a_;
    sel.col_b_addr = col_b_;
    sel.out_addr = scratch_;
    sel.rows = rows_;
    sel.match = match;
    AggregateOffload::Args agg;
    agg.values_addr = scratch_;
    agg.count = 0; // bound MN-side

    ChainPlan plan;
    plan.stage(select_id_, SelectOffload::encode(sel))
        .stage(agg_id_, AggregateOffload::encode(agg))
        .bindValue(8)
        .perStageReplies();
    const Result<OffloadReply> reply = client_.rcall_chain(mn_, plan);
    if (!reply)
        return out;
    out.net_bytes += sizeof(sel) + sizeof(agg) + 16 + 32;
    clio_assert(reply->stages.size() == 2, "expected 2 stage replies");
    const std::uint64_t selected = reply->stages[0].value;
    out.selected = selected;
    const std::uint64_t avg_bits = reply->value;
    std::memcpy(&out.avg, &avg_bits, 8);

    // Histogram at the CN over only the selected values, as before.
    std::vector<std::int64_t> values(selected);
    if (selected) {
        if (client_.rread(scratch_, values.data(), selected * 8) !=
            Status::kOk)
            return out;
        out.net_bytes += selected * 8;
    }
    chargeCnCompute(selected);
    buildHistogram(values, out.histogram);
    out.ok = true;
    return out;
}

DfQueryResult
ClioDataFrame::runAtCn(std::uint8_t match)
{
    DfQueryResult out;
    // Ship both whole columns to the CN (the RDMA plan), then do
    // select, aggregate, and histogram locally.
    std::vector<std::uint8_t> col_a(rows_);
    std::vector<std::int64_t> col_b(rows_);
    if (client_.rreadv({{col_a_, col_a.data(), rows_},
                        {col_b_, col_b.data(), rows_ * 8}}) !=
        Status::kOk)
        return out;
    out.net_bytes += rows_ * 9;

    std::vector<std::int64_t> values;
    for (std::uint64_t i = 0; i < rows_; i++) {
        if (col_a[i] == match)
            values.push_back(col_b[i]);
    }
    chargeCnCompute(rows_); // CPU scan of both columns
    out.selected = values.size();
    double sum = 0;
    for (std::int64_t v : values)
        sum += static_cast<double>(v);
    out.avg = values.empty()
                  ? 0.0
                  : sum / static_cast<double>(values.size());
    chargeCnCompute(values.size());
    buildHistogram(values, out.histogram);
    out.ok = true;
    return out;
}

} // namespace clio
