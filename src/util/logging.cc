#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace javelin {
namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

} // namespace detail
} // namespace javelin
