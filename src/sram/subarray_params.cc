#include "sram/subarray_params.hh"

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::sram {

void
SubArrayParams::validate() const
{
    if (rows == 0 || cols == 0)
        CC_FATAL("sub-array must have nonzero dimensions");
    if (!isPowerOfTwo(rows) || !isPowerOfTwo(cols))
        CC_FATAL("sub-array dimensions must be powers of two: ",
                 rows, "x", cols);
    if (cols % (8 * kBlockSize) != 0)
        CC_FATAL("sub-array row width ", cols,
                 " must hold whole 64-byte blocks");
    if (wordlineUnderdrive <= 0.0 || wordlineUnderdrive > 1.0)
        CC_FATAL("word-line underdrive must be in (0, 1]: ",
                 wordlineUnderdrive);
}

} // namespace ccache::sram
