#include "sim/logging.hh"

#include <cstdarg>
#include <cstdio>

namespace clio {

bool warnings_suppressed = false;

void
warnQuiet(bool quiet)
{
    warnings_suppressed = quiet;
}

void
warnMsg(const std::string &msg)
{
    if (!warnings_suppressed)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

namespace detail {

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

void
terminateAbort(const char *kind, const std::string &msg, const char *file,
               int line)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", kind, msg.c_str(), file, line);
    std::abort();
}

void
terminateExit(const char *kind, const std::string &msg, const char *file,
              int line)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", kind, msg.c_str(), file, line);
    std::exit(1);
}

} // namespace detail
} // namespace clio
