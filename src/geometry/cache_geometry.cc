#include "geometry/cache_geometry.hh"

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::geometry {

CacheGeometryParams
CacheGeometryParams::l1d()
{
    CacheGeometryParams p;
    p.name = "L1-D";
    p.sizeBytes = 32 * 1024;
    p.ways = 8;
    p.banks = 2;
    p.blockPartitionsPerBank = 2;
    return p;
}

CacheGeometryParams
CacheGeometryParams::l2()
{
    CacheGeometryParams p;
    p.name = "L2";
    p.sizeBytes = 256 * 1024;
    p.ways = 8;
    p.banks = 8;
    p.blockPartitionsPerBank = 2;
    return p;
}

CacheGeometryParams
CacheGeometryParams::l3Slice()
{
    CacheGeometryParams p;
    p.name = "L3-slice";
    p.sizeBytes = 2 * 1024 * 1024;
    p.ways = 16;
    p.banks = 16;
    p.blockPartitionsPerBank = 4;
    return p;
}

CacheGeometry::CacheGeometry(const CacheGeometryParams &params)
    : params_(params)
{
    if (params_.sizeBytes == 0 || params_.ways == 0 || params_.banks == 0 ||
        params_.blockPartitionsPerBank == 0 || params_.blocksPerRow == 0) {
        CC_FATAL("cache geometry '", params_.name,
                 "' has a zero-valued parameter");
    }
    if (params_.sizeBytes % (kBlockSize * params_.ways) != 0)
        CC_FATAL("cache size not divisible into sets");

    numBlocks_ = params_.sizeBytes / kBlockSize;
    numSets_ = numBlocks_ / params_.ways;
    blockBits_ = log2Exact(kBlockSize);

    if (!isPowerOfTwo(numSets_) || !isPowerOfTwo(params_.banks) ||
        !isPowerOfTwo(params_.blockPartitionsPerBank) ||
        !isPowerOfTwo(params_.blocksPerRow)) {
        CC_FATAL("geometry '", params_.name,
                 "' parameters must be powers of two");
    }

    bankBits_ = log2Exact(params_.banks);
    bpBits_ = log2Exact(params_.blockPartitionsPerBank);
    setBits_ = log2Exact(numSets_);
    bprBits_ = log2Exact(params_.blocksPerRow);

    if (setBits_ < bankBits_ + bpBits_)
        CC_FATAL("geometry '", params_.name, "': set index (", setBits_,
                 " bits) too small for bank (", bankBits_, ") + BP (",
                 bpBits_, ") selection");

    if (params_.blockPartitionsPerBank % params_.blocksPerRow != 0)
        CC_FATAL("partitions per bank must be a multiple of blocks per row");
    subarraysPerBank_ =
        params_.blockPartitionsPerBank / params_.blocksPerRow;

    rowsPerSubarray_ = blocksPerPartition() / 1;
    if (!isPowerOfTwo(rowsPerSubarray_))
        CC_FATAL("derived rows per sub-array (", rowsPerSubarray_,
                 ") is not a power of two");
}

bool
CacheGeometry::sameBlockPartition(Addr a, Addr b) const
{
    AddrFields fa = decode(a);
    AddrFields fb = decode(b);
    return fa.bank == fb.bank && fa.bp == fb.bp;
}

sram::SubArrayParams
CacheGeometry::subArrayParams() const
{
    sram::SubArrayParams sp;
    sp.rows = rowsPerSubarray_;
    sp.cols = params_.blocksPerRow * 8 * kBlockSize;
    return sp;
}

} // namespace ccache::geometry
