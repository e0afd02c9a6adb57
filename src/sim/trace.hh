/**
 * @file
 * Trace-driven simulation: a small text format for replaying memory and
 * Compute Cache activity on the simulated machine, in the spirit of the
 * trace players that ship with gem5/Sniper-class simulators.
 *
 * Format (one record per line, '#' starts a comment):
 *
 *     R  <core> <addr>                        # block read
 *     W  <core> <addr>                        # block write
 *     CC <core> <mnemonic> <operands...> <n>  # Table II instruction
 *
 * Mnemonics follow Table II: cc_copy a b, cc_buz a, cc_cmp a b,
 * cc_search a k, cc_and/or/xor a b c, cc_not a b, cc_clmul64/128/256
 * a b c. <n> is the vector size in bytes. <core> must be below the
 * machine's core count, `cache::Hierarchy::kCores`.
 *
 * Every number (core, address, size) is 0x or 0X followed by hex
 * digits, or decimal digits; a leading zero is still decimal ("010" is
 * ten). It must fit 64 bits. A sign, a bare "0x" or trailing text is a
 * parse error. Tokens are separated by space, \t, \v, \f or \r.
 */

#ifndef CCACHE_SIM_TRACE_HH
#define CCACHE_SIM_TRACE_HH

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "cc/isa.hh"
#include "sim/system.hh"

namespace ccache::sim {

/** One parsed trace record. */
struct TraceRecord
{
    enum class Kind { Read, Write, CcOp };

    Kind kind = Kind::Read;
    CoreId core = 0;
    Addr addr = 0;                 ///< for Read/Write
    cc::CcInstruction instr;       ///< for CcOp
};

/** Parse errors carry the offending line for diagnostics. */
struct TraceParseError
{
    std::size_t lineNumber;
    std::string line;
    std::string message;
};

/** Parsed trace plus any per-line problems. */
struct ParsedTrace
{
    std::vector<TraceRecord> records;
    std::vector<TraceParseError> errors;

    bool ok() const { return errors.empty(); }
};

/** Longest accepted trace line. Longer lines are skipped and reported
 *  (one error record each) without ever buffering the whole line, so a
 *  corrupt multi-gigabyte line cannot balloon memory. */
inline constexpr std::size_t kMaxTraceLineBytes = 4096;

/** Parse a trace from text. Malformed lines are reported, not fatal. */
ParsedTrace parseTrace(std::istream &in);
ParsedTrace parseTrace(const std::string &text);

/**
 * Parse a trace file; "-" reads stdin (streamed, so `generator |
 * cc_trace -` works on traces far larger than memory would allow a
 * temp file for). An unopenable path yields a single pseudo-error at
 * line 0.
 */
ParsedTrace parseTraceFile(const std::string &path);

/** Outcome of replaying a trace. */
struct TraceReplayResult
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t ccInstructions = 0;
    Cycles cycles = 0;     ///< per-core makespan

    /** Demand (R/W) accesses by where the hierarchy served them:
     *  beyond-L1 and all-the-way-to-memory counts, for miss rates. @{ */
    std::uint64_t l1Misses = 0;
    std::uint64_t memAccesses = 0;
    /** @} */

    /** CC block ops executed (sub-array work units, DESIGN.md §13). */
    std::uint64_t ccBlockOps = 0;

    /** XOR of cmp/search result masks, as a replay checksum. */
    std::uint64_t resultChecksum = 0;

    /** Memory-served fraction of demand accesses. */
    double memMissRate() const
    {
        std::uint64_t a = reads + writes;
        return a ? static_cast<double>(memAccesses) /
                static_cast<double>(a) : 0.0;
    }

    /** CC block ops per kilocycle (CC-op throughput). */
    double ccOpsPerKCycle() const
    {
        return cycles ? 1000.0 * static_cast<double>(ccBlockOps) /
                static_cast<double>(cycles) : 0.0;
    }
};

/**
 * Replay one record on @p sys, accruing its latency to its core's
 * clock and its counts into @p res (res.cycles is NOT updated — that
 * is the caller's end-of-run sys.elapsed() snapshot). The sampled
 * runner replays interval slices through this same path, so full and
 * sampled runs cannot drift apart (DESIGN.md §16).
 */
void replayRecord(System &sys, const TraceRecord &rec,
                  TraceReplayResult &res);

/**
 * Replay a parsed trace on @p sys. Each record's latency accrues to its
 * core's clock; the returned cycle count is the slowest core.
 */
TraceReplayResult replayTrace(System &sys, const ParsedTrace &trace);

/** gem5-style end-of-run report: stats + energy, ready to print. */
std::string formatReport(System &sys, const TraceReplayResult &result);

} // namespace ccache::sim

#endif // CCACHE_SIM_TRACE_HH
