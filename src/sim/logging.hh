/**
 * @file
 * Error-reporting helpers in the gem5 spirit: panic() for internal
 * simulator bugs, fatal() for user/configuration errors, warn()/inform()
 * for status messages that never stop the simulation.
 */

#ifndef CLIO_SIM_LOGGING_HH
#define CLIO_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace clio {

namespace detail {

[[noreturn]] void terminateAbort(const char *kind, const std::string &msg,
                                 const char *file, int line);
[[noreturn]] void terminateExit(const char *kind, const std::string &msg,
                                const char *file, int line);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/** True once warnQuiet(true) was called; silences warn() in tests. */
extern bool warnings_suppressed;

/** Suppress (or re-enable) warn() output, e.g. in noisy tests. */
void warnQuiet(bool quiet);

/** Emit a warning (something works, but not as well as it should). */
void warnMsg(const std::string &msg);

} // namespace clio

/**
 * panic: an invariant of the simulator itself was violated. Aborts so a
 * core dump / debugger can inspect the state.
 */
#define clio_panic(...)                                                   \
    ::clio::detail::terminateAbort(                                       \
        "panic", ::clio::detail::strfmt(__VA_ARGS__), __FILE__, __LINE__)

/**
 * fatal: the simulation cannot continue because of a user-level error
 * (bad configuration, invalid arguments). Exits with status 1.
 */
#define clio_fatal(...)                                                   \
    ::clio::detail::terminateExit(                                        \
        "fatal", ::clio::detail::strfmt(__VA_ARGS__), __FILE__, __LINE__)

/** Check an internal invariant; panics with the condition text if false. */
#define clio_assert(cond, ...)                                            \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::clio::detail::terminateAbort(                               \
                "assert(" #cond ")",                                      \
                ::clio::detail::strfmt(__VA_ARGS__), __FILE__, __LINE__); \
        }                                                                 \
    } while (0)

#endif // CLIO_SIM_LOGGING_HH
