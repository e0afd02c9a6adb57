/**
 * @file
 * 64-bit FNV-1a digest for the tests that pin a run's exact output to a
 * recorded value.
 */

#ifndef CCACHE_TESTS_DIGEST_HH
#define CCACHE_TESTS_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace ccache::test {

/** 64-bit FNV-1a over everything fed to it. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

} // namespace ccache::test

#endif // CCACHE_TESTS_DIGEST_HH
