#include "harness.hh"

#include <cstdio>
#include <cstdlib>

namespace clio::bench {

bool
smokeMode()
{
    const char *env = std::getenv("CLIO_BENCH_SMOKE");
    return env != nullptr && *env != '\0' && *env != '0';
}

std::uint64_t
iters(std::uint64_t full)
{
    if (!smokeMode())
        return full;
    // Divide by 8 but never below 8 (or below `full` itself when the
    // caller asked for fewer): a plain max(full/8, 1) collapses every
    // count under 8 to a single iteration, making distinct smoke
    // workloads indistinguishable.
    const std::uint64_t floor = full < 8 ? full : 8;
    const std::uint64_t reduced = full / 8;
    return reduced > floor ? reduced : floor;
}

void
banner(const std::string &fig, const std::string &caption)
{
    std::printf("\n=== %s: %s ===\n", fig.c_str(), caption.c_str());
}

void
header(const std::vector<std::string> &cols)
{
    for (std::size_t i = 0; i < cols.size(); i++)
        std::printf(i == 0 ? "%-18s" : "%14s", cols[i].c_str());
    std::printf("\n");
}

void
row(const std::string &label, const std::vector<double> &values)
{
    std::printf("%-18s", label.c_str());
    for (double v : values)
        std::printf("%14.3f", v);
    std::printf("\n");
}

void
note(const std::string &text)
{
    std::printf("  -- %s\n", text.c_str());
}

void
writeJson(const std::string &name,
          const std::function<void(std::FILE *)> &body)
{
    const char *env = std::getenv("CLIO_BENCH_JSON_OUT");
    const std::string path = env != nullptr && *env != '\0'
                                 ? env
                                 : "BENCH_" + name + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"schema\": \"clio.bench_%s.v1\",\n",
                 name.c_str());
    std::fprintf(f, "  \"smoke\": %s,\n", smokeMode() ? "true" : "false");
    body(f);
    std::fprintf(f, "}\n");
    std::fclose(f);
    note("JSON written to " + path);
}

} // namespace clio::bench
