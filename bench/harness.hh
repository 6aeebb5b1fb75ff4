/**
 * @file
 * Shared helpers for the figure-reproduction benchmark binaries.
 *
 * Each bench_figNN binary regenerates one table/figure of the paper's
 * evaluation (§7) and prints the same series the paper plots, in a
 * simple aligned-column text format that EXPERIMENTS.md references.
 */

#ifndef CLIO_BENCH_HARNESS_HH
#define CLIO_BENCH_HARNESS_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace clio::bench {

/** Print the figure banner (figure id + caption). */
void banner(const std::string &fig, const std::string &caption);

/** Print a header row of right-aligned 14-char columns. */
void header(const std::vector<std::string> &cols);

/** Print a data row: first cell is the x value label, rest numeric. */
void row(const std::string &label, const std::vector<double> &values);

/** Print a closing note (e.g. paper-shape expectation). */
void note(const std::string &text);

/**
 * Repetition count for a measurement loop: `full` normally, but
 * clamped to max(full / 8, 1) when CLIO_BENCH_SMOKE is set in the
 * environment. The `bench-smoke` ctest label runs every bench with
 * the variable set so the whole label stays fast in CI; run binaries
 * directly (no env var) for full-fidelity figure data.
 */
std::uint64_t iters(std::uint64_t full);

/** True when the reduced-iteration smoke mode is active. */
bool smokeMode();

/**
 * Write bench `name`'s JSON to the file CLIO_BENCH_JSON_OUT names
 * (default BENCH_<name>.json): the "clio.bench_<name>.v1" schema and
 * smoke-mode header, then `body`'s fields, then the closing brace.
 * Prints a note naming the file, or an error when it cannot be opened.
 */
void writeJson(const std::string &name,
               const std::function<void(std::FILE *)> &body);

} // namespace clio::bench

#endif // CLIO_BENCH_HARNESS_HH
