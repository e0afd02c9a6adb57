/**
 * @file
 * Operand-locality-aware cache geometry (paper Section IV-C, Figure 5).
 *
 * The geometry makes two design choices that let software guarantee
 * operand locality with nothing more than page alignment:
 *
 *  1. all ways of a set map to the same block partition, so locality does
 *     not depend on runtime way selection;
 *  2. the low set-index bits select the bank and the block partition, so
 *     two addresses whose low (blockOffset + bank + bp) bits match are
 *     guaranteed to share bit-lines.
 *
 * Table III of the paper (minimum address bits that must match) is derived
 * from this geometry rather than hard-coded.
 */

#ifndef CCACHE_GEOMETRY_CACHE_GEOMETRY_HH
#define CCACHE_GEOMETRY_CACHE_GEOMETRY_HH

#include <cstddef>
#include <string>

#include "common/bit_util.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sram/subarray_params.hh"

namespace ccache::geometry {

/** Static description of one cache's physical organization. */
struct CacheGeometryParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * 1024;
    std::size_t ways = 8;
    std::size_t banks = 2;
    std::size_t blockPartitionsPerBank = 2;

    /** 64-byte blocks stored side-by-side in one sub-array row. */
    std::size_t blocksPerRow = 1;

    /** Per Table IV / Section VI-C. @{ */
    static CacheGeometryParams l1d();
    static CacheGeometryParams l2();
    static CacheGeometryParams l3Slice();
    /** @} */
};

/** Physical placement of a cache block. */
struct BlockPlace
{
    std::size_t bank;            ///< bank within the cache
    std::size_t subarray;        ///< sub-array within the bank
    std::size_t partition;       ///< block partition within the sub-array
    std::size_t row;             ///< word-line within the sub-array

    /** Globally comparable block-partition id within the cache. */
    std::size_t globalPartition = 0;

    bool operator==(const BlockPlace &) const = default;
};

/** Fields of a decomposed physical address (Figure 5(b) decoding). */
struct AddrFields
{
    Addr blockOffset;
    std::size_t bank;
    std::size_t bp;      ///< block partition selector within the bank
    std::size_t set;     ///< full set index
    Addr tag;
};

/** Derived, validated cache geometry. */
class CacheGeometry
{
  public:
    explicit CacheGeometry(const CacheGeometryParams &params);

    const CacheGeometryParams &params() const { return params_; }

    std::size_t numSets() const { return numSets_; }
    std::size_t numBlocks() const { return numBlocks_; }
    std::size_t setIndexBits() const { return setBits_; }
    std::size_t bankBits() const { return bankBits_; }
    std::size_t bpBits() const { return bpBits_; }
    std::size_t blockOffsetBits() const { return blockBits_; }

    /** Sub-arrays per bank (each holds blocksPerRow partitions). */
    std::size_t subarraysPerBank() const { return subarraysPerBank_; }

    /** Total sub-arrays in the cache. */
    std::size_t totalSubarrays() const
    {
        return subarraysPerBank_ * params_.banks;
    }

    /** Word-lines per sub-array, derived from capacity. */
    std::size_t rowsPerSubarray() const { return rowsPerSubarray_; }

    /** Total block partitions = banks x partitions-per-bank. */
    std::size_t totalBlockPartitions() const
    {
        return params_.banks * params_.blockPartitionsPerBank;
    }

    /** Cache blocks stored per block partition. */
    std::size_t blocksPerPartition() const
    {
        return numBlocks_ / totalBlockPartitions();
    }

    /**
     * Minimum low address bits that must be equal for two operands to be
     * guaranteed the same block partition (Table III):
     * blockOffsetBits + bankBits + bpBits.
     */
    unsigned minMatchBits() const
    {
        return static_cast<unsigned>(blockBits_ + bankBits_ + bpBits_);
    }

    /**
     * Decompose @p addr per the Figure 5(b) decoding. Inline: this sits
     * on the hit path of every cache access, so it must compile down to
     * a handful of shifts and masks.
     */
    AddrFields decode(Addr addr) const
    {
        AddrFields f;
        f.blockOffset = bits(addr, 0, static_cast<unsigned>(blockBits_));
        Addr block_addr = addr >> blockBits_;
        f.set = static_cast<std::size_t>(
            bits(block_addr, 0, static_cast<unsigned>(setBits_)));
        // Figure 5(b): low set-index bits choose bank then block partition.
        f.bank = static_cast<std::size_t>(
            bits(block_addr, 0, static_cast<unsigned>(bankBits_)));
        f.bp = static_cast<std::size_t>(
            bits(block_addr, static_cast<unsigned>(bankBits_),
                 static_cast<unsigned>(bpBits_)));
        f.tag = block_addr >> setBits_;
        return f;
    }

    /** Set index of @p addr. */
    std::size_t setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(
            bits(addr >> blockBits_, 0, static_cast<unsigned>(setBits_)));
    }

    /** Global block partition of every way of @p set: its low
     *  set-index bits select the bank, then the block partition
     *  (Figure 5(b)). Inline: CC staging records one per operand row. */
    std::size_t partitionOf(std::size_t set) const
    {
        std::size_t bank = set & ((std::size_t{1} << bankBits_) - 1);
        std::size_t bp = (set >> bankBits_) &
            ((std::size_t{1} << bpBits_) - 1);
        return bank * params_.blockPartitionsPerBank + bp;
    }

    /** Physical placement of (set, way): all ways of a set land in the
     *  same block partition, at consecutive rows. */
    BlockPlace place(std::size_t set, std::size_t way) const
    {
        CC_ASSERT(set < numSets_, "set ", set, " out of range");
        CC_ASSERT(way < params_.ways, "way ", way, " out of range");

        BlockPlace p;
        p.bank = set & ((std::size_t{1} << bankBits_) - 1);
        std::size_t bp = (set >> bankBits_) &
            ((std::size_t{1} << bpBits_) - 1);
        // blocksPerRow is a power of two: shift and mask, no divide.
        p.subarray = bp >> bprBits_;
        p.partition = bp & (params_.blocksPerRow - 1);

        // Sets sharing a (bank, bp) stack vertically; all ways of a set
        // are consecutive rows within the partition (design choice 1).
        std::size_t local_set = set >> (bankBits_ + bpBits_);
        p.row = local_set * params_.ways + way;
        CC_ASSERT(p.row < rowsPerSubarray_, "derived row ", p.row,
                  " exceeds sub-array rows ", rowsPerSubarray_);

        p.globalPartition = partitionOf(set);
        return p;
    }

    /** True iff the two block addresses map to the same block partition
     *  (in-place compute is possible between them). */
    bool sameBlockPartition(Addr a, Addr b) const;

    /** SubArrayParams matching this geometry (rows/cols derived). */
    sram::SubArrayParams subArrayParams() const;

  private:
    CacheGeometryParams params_;
    std::size_t numSets_;
    std::size_t numBlocks_;
    std::size_t blockBits_;
    std::size_t bankBits_;
    std::size_t bpBits_;
    std::size_t setBits_;
    std::size_t bprBits_;   ///< log2(blocksPerRow)
    std::size_t subarraysPerBank_;
    std::size_t rowsPerSubarray_;
};

} // namespace ccache::geometry

#endif // CCACHE_GEOMETRY_CACHE_GEOMETRY_HH
