#include "apps/dbbitmap.hh"

#include <algorithm>
#include <bit>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::apps {

namespace {

/** Bins one range query ORs at most. */
constexpr std::size_t kMaxRangeBins = 6;

/** Simulated-memory layout: the index bins, then per-core result
 *  buffers. @{ */
constexpr Addr kBinsBase = 0x2000'0000;
constexpr Addr kResultBase = 0x3000'0000;
/** @} */

} // namespace

DbBitmap::DbBitmap(const DbBitmapConfig &config)
    : config_(config), index_(config.index)
{
    Rng rng(config.querySeed);
    for (std::size_t q = 0; q < config.numQueries; ++q) {
        BitmapQuery query;
        if (rng.chance(0.7)) {
            query.kind = BitmapQuery::Kind::RangeOr;
            std::size_t span = 2 + rng.below(kMaxRangeBins - 1);
            span = std::min(span, index_.bins());
            query.loBin = rng.below(index_.bins() - span + 1);
            query.hiBin = query.loBin + span - 1;
        } else {
            query.kind = BitmapQuery::Kind::JoinAnd;
            query.loBin = rng.below(index_.bins());
            query.hiBin = rng.below(index_.bins());
        }
        queries_.push_back(query);
    }
}

Addr
DbBitmap::binAddr(std::size_t b) const
{
    // Bins are page-aligned so any two bins (and the result buffer)
    // trivially satisfy operand locality (Section IV-C).
    std::size_t padded = alignUp(index_.binBytes(), kPageSize);
    return kBinsBase + b * padded;
}

AppRunResult
DbBitmap::run(sim::System &sys, Engine engine)
{
    return runParallel(sys, engine, 1);
}

AppRunResult
DbBitmap::runParallel(sim::System &sys, Engine engine, unsigned cores)
{
    auto &em = sys.energy();
    CC_ASSERT(cores >= 1 && cores <= cache::Hierarchy::kCores,
              "bad core count ", cores);

    // Load the index into simulated memory.
    std::size_t bin_bytes = index_.binBytes();
    for (std::size_t b = 0; b < index_.bins(); ++b) {
        auto bytes = index_.bin(b).toBytes();
        bytes.resize(bin_bytes, 0);
        sys.load(binAddr(b), bytes.data(), bytes.size());
    }

    std::vector<Cycles> core_cycles(cores, 0);
    Cycles total_cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t checksum = 0;

    std::size_t result_stride = alignUp(bin_bytes, kPageSize);
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
        const auto &query = queries_[qi];
        CoreId core = static_cast<CoreId>(qi % cores);
        Addr result_base = kResultBase + core * result_stride;
        Cycles query_cycles = 0;

        // Result accumulates into the result buffer: first a copy of the
        // first operand bin, then OR/AND with the remaining bins.
        if (engine == Engine::Cc) {
            sys.cc().mutableParams().forceLevel = CacheLevel::L3;
            auto copy_res = sys.ccEngine().copy(core,
                                                binAddr(query.loBin),
                                                result_base, bin_bytes);
            query_cycles += copy_res.cycles;
            instructions += copy_res.instructions;

            auto apply_bin = [&](std::size_t b, bool is_and) {
                // 2 KB chunks, all independent: one stream per bin.
                std::vector<cc::CcInstruction> chunk_ops;
                for (std::size_t off = 0; off < bin_bytes;
                     off += kChunkBytes) {
                    std::size_t len = std::min(kChunkBytes, bin_bytes - off);
                    Addr a = result_base + off;
                    Addr src = binAddr(b) + off;
                    chunk_ops.push_back(
                        is_and ? cc::CcInstruction::logicalAnd(a, src, a,
                                                               len)
                               : cc::CcInstruction::logicalOr(a, src, a,
                                                              len));
                }
                Cycles lat = 0;
                auto rs = sys.cc().executeStream(core, chunk_ops, &lat);
                query_cycles += lat;
                instructions += rs.size();
            };

            if (query.kind == BitmapQuery::Kind::RangeOr) {
                for (std::size_t b = query.loBin + 1; b <= query.hiBin;
                     ++b) {
                    apply_bin(b, false);
                }
            } else {
                apply_bin(query.hiBin, true);
            }
        } else {
            auto &eng = engine == Engine::Base32 ? sys.simd32()
                                                 : sys.scalar();
            auto copy_res = eng.copy(core, binAddr(query.loBin),
                                     result_base, bin_bytes);
            query_cycles += copy_res.cycles;
            instructions += copy_res.instructions;

            auto apply_bin = [&](std::size_t b, bool is_and) {
                auto r = is_and
                    ? eng.logicalAnd(core, result_base, binAddr(b),
                                     result_base, bin_bytes)
                    : eng.logicalOr(core, result_base, binAddr(b),
                                    result_base, bin_bytes);
                query_cycles += r.cycles;
                instructions += r.instructions;
            };

            if (query.kind == BitmapQuery::Kind::RangeOr) {
                for (std::size_t b = query.loBin + 1; b <= query.hiBin;
                     ++b) {
                    apply_bin(b, false);
                }
            } else {
                apply_bin(query.hiBin, true);
            }
        }

        // Result-scan phase common to both versions (FastBit converts
        // the answer bitmap into row ids before returning): stream the
        // result words and extract the set bits.
        {
            sim::CoreCostModel scan_cost;
            std::size_t set_bits = 0;
            for (std::size_t off = 0; off < bin_bytes; off += 32) {
                std::uint8_t buf[32];
                Cycles lat = sys.hierarchy().loadBytes(
                    core, result_base + off, buf,
                    std::min<std::size_t>(32, bin_bytes - off));
                scan_cost.addMemAccess(lat);
                scan_cost.addInstrs(2);  // popcount + branch
                for (std::size_t i = 0;
                     i < std::min<std::size_t>(32, bin_bytes - off); ++i)
                    set_bits += std::popcount(unsigned{buf[i]});
            }
            // Row-id extraction: ~1 instruction per 4 hits (SIMD
            // expansion of bit positions).
            scan_cost.addInstrs(set_bits / 4);
            em.chargeInstructions(bin_bytes / 32 * 2 + set_bits / 4);
            instructions += bin_bytes / 32 * 2 + set_bits / 4;
            query_cycles += scan_cost.cycles();
        }

        // Verify the query result against the reference evaluation.
        BitVector expect = query.kind == BitmapQuery::Kind::RangeOr
            ? index_.rangeQueryReference(query.loBin, query.hiBin)
            : index_.andReference(query.loBin, query.hiBin);
        auto got_bytes = sys.dump(result_base, bin_bytes);
        BitVector got = BitVector::fromBytes(got_bytes.data(),
                                             got_bytes.size());
        auto expect_bytes = expect.toBytes();
        expect_bytes.resize(bin_bytes, 0);
        BitVector expect_padded = BitVector::fromBytes(
            expect_bytes.data(), expect_bytes.size());
        CC_ASSERT(got == expect_padded, "query result mismatch");

        checksum = checksum * 1000003 + got.popcount();
        total_cycles += query_cycles;
        core_cycles[core] += query_cycles;
    }

    em.chargeInstructions(queries_.size() * 20);  // query planning
    instructions += queries_.size() * 20;

    avgQueryCycles_ = static_cast<double>(total_cycles) /
        static_cast<double>(queries_.size());

    AppRunResult res;
    // Wall-clock is the slowest core; single-core degenerates to the sum.
    res.cycles = *std::max_element(core_cycles.begin(),
                                   core_cycles.end());
    res.instructions = instructions;
    for (unsigned c = 0; c < cores; ++c)
        sys.advance(c, core_cycles[c]);
    res.dynamic = em.dynamic();
    res.totals = sys.totals();
    res.checksum = checksum;
    return res;
}

} // namespace ccache::apps
