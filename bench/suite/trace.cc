#include <algorithm>
#include <cstdio>
#include <functional>

#include "suite.hh"

namespace clio::suite {

const char *
spanName(Span s)
{
    switch (s) {
      case Span::kGenStep:
        return "gen.step";
      case Span::kClibSubmit:
        return "clib.submit";
      case Span::kSimPump:
        return "sim.pump";
      case Span::kCalibrate:
        return "calibrate";
      case Span::kCount:
        break;
    }
    return "?";
}

namespace {
constexpr std::uint64_t kSampleEvery = 1024;
/** Keeps the calibration kernel's result observable. */
volatile std::uint64_t g_cal_sink = 0;
} // namespace

double
calibrate()
{
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    static std::vector<std::uint64_t> table(std::size_t{1} << 21, 1);
    static std::vector<Event> heap = [] {
        std::vector<Event> h;
        for (std::uint32_t i = 0; i < 4096; i++)
            h.push_back({std::uint64_t{i} * 977, i});
        std::make_heap(h.begin(), h.end(), std::greater<>());
        return h;
    }();
    constexpr int kIterations = 40000;
    const std::uint64_t mask = table.size() - 1;
    std::uint64_t x = 0x9E3779B97F4A7C15ull, sum = 0;
    const auto t0 = HostClock::now();
    for (int i = 0; i < kIterations; i++) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        Event ev = heap.back();
        heap.pop_back();
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        sum += table[(x >> 40) & mask] + ev.second;
        table[(x >> 17) & mask] = sum;
        ev.first += (x >> 54) + 1;
        heap.push_back(ev);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    const double s = secondsSince(t0);
    g_cal_sink = g_cal_sink + sum;
    return s;
}

void
Tracer::begin(Span s, std::uint64_t op)
{
    stack_.push_back(Open{s, op, HostClock::now(), 0.0});
}

void
Tracer::end()
{
    const HostClock::time_point now = HostClock::now();
    const Open open = stack_.back();
    stack_.pop_back();
    const double dur =
        std::chrono::duration<double, std::nano>(now - open.start).count();
    Totals &t = totals_[static_cast<std::size_t>(open.span)];
    t.total_ns += dur;
    t.self_ns += dur - open.child_ns;
    if (!stack_.empty())
        stack_.back().child_ns += dur;
    if (open.op % kSampleEvery == 0) {
        Sampled s;
        s.span = open.span;
        s.has_parent = !stack_.empty();
        s.parent = s.has_parent ? stack_.back().span : open.span;
        s.op = open.op;
        s.start_us = std::chrono::duration<double, std::micro>(
                         open.start - epoch_)
                         .count();
        s.dur_us = dur / 1e3;
        sampled_.push_back(s);
    }
}

void
Tracer::reset()
{
    stack_.clear();
    totals_ = {};
    sampled_.clear();
    submit_packets = 0;
    epoch_ = HostClock::now();
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < sampled_.size(); i++) {
        const Sampled &s = sampled_[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"op\": %llu, \"parent\": \"%s\"}}%s\n",
                     spanName(s.span), s.start_us, s.dur_us,
                     static_cast<unsigned long long>(s.op),
                     s.has_parent ? spanName(s.parent) : "",
                     i + 1 < sampled_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

Tick
percentile(std::vector<Tick> &v, double p)
{
    if (v.empty())
        return 0;
    // Nearest rank: the smallest sample with at least p% at or below.
    const double rank = p / 100.0 * static_cast<double>(v.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (static_cast<double>(idx) < rank)
        idx++;
    idx = std::clamp<std::size_t>(idx, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    return v[idx];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace clio::suite
