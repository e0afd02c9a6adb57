/**
 * @file
 * CC-idiom converter pass: rewrite bulk memcpy / memcmp / memset loops
 * found in raw load/store traces into Compute Cache instructions
 * (DESIGN.md §16).
 *
 * External traces captured on conventional machines express bulk data
 * movement as block-granular load/store loops. This pass detects the
 * three idioms the Compute Cache ISA accelerates and rewrites them:
 *
 *   R a, W b, R a+64, W b+64, ...   ->  cc_copy a b n     (memcpy)
 *   R a, R b, R a+64, R b+64, ...   ->  cc_cmp  a b n     (memcmp)
 *   W a, W a+64, W a+128, ...       ->  cc_buz  a n       (memset)
 *
 * Detection is a per-core run automaton (interleaved cores do not
 * break each other's runs); a run must cover at least kMinRunBlocks
 * consecutive 64 B blocks to convert, and emitted instructions honor
 * the ISA caps (cc_copy/cc_buz 16 KB, cc_cmp 512 B) by splitting long
 * runs. Records that fit no idiom pass through unchanged, in order.
 *
 * Approximations, documented: traces carry no data values, so bulk
 * store runs convert to cc_buz (zeroing) and interleaved-read runs to
 * cc_cmp regardless of what the original program stored or compared —
 * the memory-system behaviour (blocks touched, operand locality,
 * sub-array occupancy) is what the rewrite preserves.
 */

#ifndef CCACHE_SAMPLE_IDIOM_HH
#define CCACHE_SAMPLE_IDIOM_HH

#include <cstdint>
#include <vector>

#include "sim/trace.hh"

namespace ccache::sample {

/** Minimum run length (in 64 B blocks) for a rewrite; shorter runs
 *  pass through raw. 4 blocks = 256 B, the break-even point below
 *  which CC setup cost beats nothing. */
inline constexpr std::size_t kMinRunBlocks = 4;

struct ConvertStats
{
    std::uint64_t recordsIn = 0;
    std::uint64_t recordsOut = 0;

    std::uint64_t copyRuns = 0;
    std::uint64_t copyBlocks = 0;   ///< blocks absorbed into cc_copy
    std::uint64_t cmpRuns = 0;
    std::uint64_t cmpBlocks = 0;    ///< block PAIRS absorbed into cc_cmp
    std::uint64_t zeroRuns = 0;
    std::uint64_t zeroBlocks = 0;   ///< blocks absorbed into cc_buz

    std::uint64_t convertedRecords() const
    {
        return 2 * copyBlocks + 2 * cmpBlocks + zeroBlocks;
    }
};

struct ConvertResult
{
    std::vector<sim::TraceRecord> records;
    ConvertStats stats;
};

/** Run the converter pass over @p records. */
ConvertResult convertIdioms(const std::vector<sim::TraceRecord> &records);

} // namespace ccache::sample

#endif // CCACHE_SAMPLE_IDIOM_HH
