#include "common/logging.hh"

#include <cstdlib>
#include <iostream>

#include "common/types.hh"

namespace ccache {

const char *
toString(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1: return "L1";
      case CacheLevel::L2: return "L2";
      case CacheLevel::L3: return "L3";
    }
    return "?";
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " @ " << file << ":" << line;
    // $CCACHE_PANIC_ABORT=1 trades containment for a core dump at the
    // failure site (debuggers, CI triage); the default throw lets
    // SweepRunner/ccbench record the point as errored and continue.
    const char *env = std::getenv("CCACHE_PANIC_ABORT");
    if (env && env[0] == '1') {
        std::cerr << os.str() << std::endl;
        std::abort();
    }
    throw SimError(os.str());
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "fatal: " << msg << " @ " << file << ":" << line;
    throw FatalError(os.str());
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace detail
} // namespace ccache
