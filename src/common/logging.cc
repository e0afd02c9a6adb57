#include "common/logging.hh"

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
