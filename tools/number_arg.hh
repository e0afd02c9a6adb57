/**
 * @file
 * Strict numeric command-line arguments, shared by cc_server, ccstat,
 * ccbench and cc_trace.
 *
 * The whole argument must parse as a number that fits its field: no
 * leading space or sign on an unsigned value (strtoull would negate a
 * "-1" into a huge count), no trailing text ("12abc"), no silent
 * narrowing ("4294967297" into 32 bits) and no NaN or infinity. A bad
 * value is a usage error: the tool names the flag and exits 2.
 */

#ifndef CCACHE_TOOLS_NUMBER_ARG_HH
#define CCACHE_TOOLS_NUMBER_ARG_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace cctools {

/** Parse all of @p text as an unsigned integer in @p base (0 = C
 *  prefixes) that fits @p T; false on anything else. */
template <typename T>
bool
parseUnsigned(const char *text, int base, T *out)
{
    static_assert(std::is_unsigned_v<T>);
    if (!std::isxdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, base);
    if (errno != 0 || *end != '\0' || v > std::numeric_limits<T>::max())
        return false;
    *out = static_cast<T>(v);
    return true;
}

/** Parse all of @p text as a finite double; false on anything else. */
inline bool
parseFinite(const char *text, double *out)
{
    if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

/**
 * The value of @p tool's numeric flag @p flag given as @p text: an
 * unsigned integer in @p base, or a finite double. Anything else
 * prints a message naming the flag and exits 2.
 */
template <typename T>
T
numberArg(const char *tool, const char *flag, const char *text,
          int base = 10)
{
    T v{};
    if constexpr (std::is_floating_point_v<T>) {
        if (parseFinite(text, &v))
            return v;
        std::fprintf(stderr, "%s: bad %s value '%s' (want a finite "
                             "number)\n", tool, flag, text);
    } else {
        if (parseUnsigned(text, base, &v))
            return v;
        std::fprintf(stderr, "%s: bad %s value '%s' (want an integer in "
                             "[0, %llu])\n", tool, flag, text,
                     static_cast<unsigned long long>(
                         std::numeric_limits<T>::max()));
    }
    std::exit(2);
}

/** A decimal count where 0 means nothing (a worker count, an interval
 *  size): an integer in [1, max of @p T]. Anything else exits 2. */
template <typename T>
T
positiveArg(const char *tool, const char *flag, const char *text)
{
    T v{};
    if (parseUnsigned(text, 10, &v) && v >= 1)
        return v;
    std::fprintf(stderr, "%s: bad %s value '%s' (want an integer in "
                         "[1, %llu])\n", tool, flag, text,
                 static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()));
    std::exit(2);
}

/** A drift threshold of ccstat or ccbench: a finite fraction >= 0 (a
 *  NaN threshold would pass every comparison and silence the gate). */
inline double
thresholdArg(const char *tool, const char *flag, const char *text)
{
    double v = numberArg<double>(tool, flag, text);
    if (v < 0.0) {
        std::fprintf(stderr, "%s: %s must be at least 0\n", tool, flag);
        std::exit(2);
    }
    return v;
}

} // namespace cctools

#endif // CCACHE_TOOLS_NUMBER_ARG_HH
