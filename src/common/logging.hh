/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn.
 *
 * Failure taxonomy (see DESIGN.md §9):
 *
 *  - panic() / CC_ASSERT are for broken simulator invariants — states
 *    that no configuration, however extreme, should be able to reach.
 *    They throw SimError so a sweep driver can contain one corrupted
 *    point (record a structured error, keep the other points) instead
 *    of losing a whole catalog run to std::abort(). In a debugger,
 *    `catch throw` stops at the failure site.
 *
 *  - fatal() is for unusable *configurations*: the user asked for
 *    something the model cannot simulate (zero cores, geometry that
 *    does not decompose, fault rates outside [0,1], a cache too small
 *    to stage a CC operand set). It throws FatalError so tests can
 *    assert on misconfiguration handling, and so one bad sweep point
 *    cannot kill a ccbench catalog run.
 *
 * The audit line between the two: if a CC_PANIC site is reachable by
 * feeding the public API valid-but-extreme parameters, it is
 * misclassified and must become CC_FATAL (the pinned-set exhaustion in
 * Hierarchy::allocateInL3 and mapPage's slice range are the converted
 * precedents). Unreachable enum-default panics (bad CacheLevel, bad
 * BulkKernel, unknown SplashApp) stay panics: hitting one means the
 * program itself is wrong, not its inputs.
 */

#ifndef CCACHE_COMMON_LOGGING_HH
#define CCACHE_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace ccache {

/** Exception thrown by fatal(): the simulation cannot continue due to a
 *  user-level configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * Exception thrown by panic()/CC_ASSERT: a simulator invariant broke.
 * Catchable so the sweep engine and ccbench can contain the failing
 * point/bench; carries an optional structured diagnostic (JSON text,
 * e.g. a CoherenceChecker violation report) alongside the message.
 */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &msg, std::string diagnostic = "")
        : std::runtime_error(msg), diagnostic_(std::move(diagnostic))
    {
    }

    /** Structured JSON diagnostic, empty when none was attached. */
    const std::string &diagnostic() const { return diagnostic_; }

  private:
    std::string diagnostic_;
};

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Fold a mixed argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace ccache

#define CC_PANIC(...)                                                       \
    ::ccache::detail::panicImpl(__FILE__, __LINE__,                         \
                                ::ccache::detail::concat(__VA_ARGS__))

#define CC_FATAL(...)                                                       \
    ::ccache::detail::fatalImpl(__FILE__, __LINE__,                         \
                                ::ccache::detail::concat(__VA_ARGS__))

/** Print "warn: <msg>" to stderr: a recoverable problem the caller
 *  reports and works around (a trace file that cannot be written, a
 *  malformed $CCACHE_JOBS). */
#define CC_WARN(...)                                                        \
    ::ccache::detail::warnImpl(::ccache::detail::concat(__VA_ARGS__))

/** Invariant check that survives NDEBUG builds; reports as a panic. */
#define CC_ASSERT(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            CC_PANIC("assertion failed: " #cond " ", __VA_ARGS__);          \
        }                                                                   \
    } while (0)

#endif // CCACHE_COMMON_LOGGING_HH
