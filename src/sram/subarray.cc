#include "sram/subarray.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ccache::sram {

SubArray::SubArray(const SubArrayParams &params)
    : params_(params), cells_(params.rows, params.cols),
      xorTree_(8 * kBlockSize)
{
    params_.validate();
}

std::pair<std::size_t, std::size_t>
SubArray::columnRange(std::size_t p) const
{
    std::size_t width = 8 * kBlockSize;
    return {p * width, (p + 1) * width};
}

BitVector
SubArray::extractPartition(const BitVector &row_bits, std::size_t p) const
{
    auto [lo, hi] = columnRange(p);
    BitVector out(hi - lo);
    // Partitions are whole 64-bit words (the block width is 512 bits and
    // cols is a multiple of it), so the extraction is a word copy.
    const auto &src = row_bits.words();
    auto &dst = out.words();
    std::copy(src.begin() + lo / 64, src.begin() + lo / 64 + dst.size(),
              dst.begin());
    return out;
}

void
SubArray::checkLoc(const BlockLoc &loc) const
{
    CC_ASSERT(loc.partition < partitions(), "partition ", loc.partition,
              " out of range ", partitions());
    CC_ASSERT(loc.row < params_.rows, "row ", loc.row, " out of range ",
              params_.rows);
}

void
SubArray::checkSamePartition(const BlockLoc &a, const BlockLoc &b) const
{
    checkLoc(a);
    checkLoc(b);
    CC_ASSERT(a.partition == b.partition,
              "in-place operands must share a block partition (",
              a.partition, " vs ", b.partition, ")");
}

BitVector
SubArray::senseBlock(const BlockLoc &loc)
{
    // A single-row differential sense observes exactly the stored bits
    // (BL/BLB sit at 1.0 vs 0.4) and one active row can never disturb,
    // so the sense is a word copy of the packed row (DESIGN.md §13).
    return extractPartition(cells_.row(loc.row), loc.partition);
}

void
SubArray::storeBlock(const BlockLoc &loc, const BitVector &bits)
{
    CC_ASSERT(bits.size() == 8 * kBlockSize, "block bit width mismatch");
    cells_.writeWordsThroughBitlines(loc.row,
                                     columnRange(loc.partition).first / 64,
                                     bits);
}

Block
SubArray::read(const BlockLoc &loc)
{
    checkLoc(loc);
    return bitsToBlock(senseBlock(loc));
}

void
SubArray::write(const BlockLoc &loc, const Block &data)
{
    checkLoc(loc);
    storeBlock(loc, blockToBits(data));
}

SubArray::TwoRowSense
SubArray::activatePair(const BlockLoc &a, const BlockLoc &b)
{
    checkSamePartition(a, b);
    CC_ASSERT(a.row != b.row, "in-place op needs two distinct rows");
    pairRows_[0] = a.row;
    pairRows_[1] = b.row;
    auto digital =
        cells_.activateWords(pairRows_, params_.wordlineUnderdrive);
    return {extractPartition(digital.andBits, a.partition),
            extractPartition(digital.norBits, a.partition)};
}

SubArray::TwoRowSense
SubArray::logicalSense(const BlockLoc &a, const BlockLoc &b,
                       const BlockLoc &dst)
{
    checkSamePartition(a, b);
    checkSamePartition(a, dst);
    return activatePair(a, b);
}

void
SubArray::opAnd(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst)
{
    storeBlock(dst, logicalSense(a, b, dst).andBits);
}

void
SubArray::opOr(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst)
{
    // OR = NOT(NOR): the sense output is inverted before the write-back
    // driver.
    storeBlock(dst, ~logicalSense(a, b, dst).norBits);
}

void
SubArray::opXor(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst)
{
    // XOR = NOR(AND, NOR): neither both-ones nor both-zeros.
    auto sense = logicalSense(a, b, dst);
    storeBlock(dst, ~(sense.andBits | sense.norBits));
}

void
SubArray::opNor(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst)
{
    storeBlock(dst, logicalSense(a, b, dst).norBits);
}

void
SubArray::opNot(const BlockLoc &src, const BlockLoc &dst)
{
    checkSamePartition(src, dst);

    // Single-row activation; BLB carries the complement of the stored data.
    storeBlock(dst, ~extractPartition(cells_.row(src.row), src.partition));
}

void
SubArray::opCopy(const BlockLoc &src, const BlockLoc &dst)
{
    checkSamePartition(src, dst);
    CC_ASSERT(src.row != dst.row, "copy needs distinct rows");

    // Figure 4: the sense amplifiers read the source and their outputs are
    // fed straight back onto the bit-lines while the destination word-line
    // is write-enabled. The data never leaves the sub-array.
    BitVector sensed = senseBlock(src);
    storeBlock(dst, sensed);
}

void
SubArray::opBuz(const BlockLoc &loc)
{
    checkLoc(loc);

    // Resetting the input data latch before the write drives zeros.
    storeBlock(loc, BitVector(8 * kBlockSize));
}

CmpResult
SubArray::opCmp(const BlockLoc &a, const BlockLoc &b)
{
    checkSamePartition(a, b);

    // Bit-wise XOR computed on the bit-lines; per-word equality is the
    // wired-NOR of the 64 XOR outputs of that word. Each 64-bit block
    // word is exactly one packed word of the 512-bit partition, so the
    // wired-NOR is a zero test.
    auto sense = activatePair(a, b);
    BitVector xorBits = ~(sense.andBits | sense.norBits);
    const auto &xor_w = xorBits.words();

    CmpResult result;
    for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
        if (xor_w[w] == 0)
            result.wordEqualMask |= std::uint64_t{1} << w;
    }
    result.allEqual =
        result.wordEqualMask == (std::uint64_t{1} << kWordsPerBlock) - 1;
    return result;
}

CmpResult
SubArray::opSearch(const BlockLoc &key, const BlockLoc &data)
{
    return opCmp(key, data);
}

ClmulResult
SubArray::opClmul(const BlockLoc &a, const BlockLoc &b,
                  std::size_t word_bits)
{
    checkSamePartition(a, b);

    auto sense = activatePair(a, b);
    ClmulResult result;
    result.parities = xorTree_.reduceWords(sense.andBits, word_bits);
    return result;
}

void
SubArray::checkBitSerial(const BitSerialOperand &o, std::size_t width) const
{
    CC_ASSERT(width >= 1 && width <= 32, "bit-serial width ", width,
              " out of the 1..32 range");
    CC_ASSERT(o.partition < partitions(), "partition ", o.partition,
              " out of range ", partitions());
    CC_ASSERT(o.row0 + width <= params_.rows, "bit-slice rows ", o.row0,
              "..", o.row0 + width, " exceed sub-array height ",
              params_.rows);
}

void
SubArray::checkBitSerialOperands(const BitSerialOperand &a,
                                 const BitSerialOperand &b,
                                 const BitSerialOperand &dst,
                                 std::size_t width, bool exact_alias) const
{
    checkBitSerial(a, width);
    checkBitSerial(b, width);
    checkBitSerial(dst, width);
    CC_ASSERT(a.partition == b.partition && a.partition == dst.partition,
              "bit-serial operands must share a block partition");
    // Exact aliasing (dst == a or dst == b) is safe for add/sub -- slice
    // k is consumed before it is overwritten -- but a partially
    // overlapping destination would clobber not-yet-read source slices,
    // and mul's accumulator is read-modify-written per partial product,
    // so it cannot overlay a source at all.
    auto clear_of = [&](const BitSerialOperand &s) {
        return dst.row0 + width <= s.row0 || s.row0 + width <= dst.row0 ||
            (exact_alias && dst.row0 == s.row0);
    };
    CC_ASSERT(clear_of(a) && clear_of(b),
              exact_alias ? "bit-serial destination partially overlaps a "
                            "source"
                          : "bit-serial mul accumulator must not alias a "
                            "source");
}

void
SubArray::opBitSerialAdd(const BitSerialOperand &a, const BitSerialOperand &b,
                         const BitSerialOperand &dst, std::size_t width)
{
    checkBitSerialOperands(a, b, dst, width, /*exact_alias=*/true);

    carryLatch_ = BitVector(8 * kBlockSize);
    for (std::size_t k = 0; k < width; ++k) {
        // One dual-row activation senses AND on BL and NOR on BLB; the
        // enhanced sense amp derives XOR, folds in the carry latch and
        // drives the sum back while latching the next carry
        // (sum = a^b^c, c' = ab | c(a^b)).
        auto sense = activatePair(sliceLoc(a, k), sliceLoc(b, k));
        BitVector x = ~(sense.andBits | sense.norBits);
        BitVector sum = x ^ carryLatch_;
        carryLatch_ = sense.andBits | (x & carryLatch_);
        storeBlock(sliceLoc(dst, k), sum);
    }
}

void
SubArray::opBitSerialSub(const BitSerialOperand &a, const BitSerialOperand &b,
                         const BitSerialOperand &dst, std::size_t width)
{
    checkBitSerialOperands(a, b, dst, width, /*exact_alias=*/true);

    carryLatch_ = BitVector(8 * kBlockSize);  // borrow latch
    for (std::size_t k = 0; k < width; ++k) {
        // diff = a^b^borrow; borrow' = (~a & b) | (~(a^b) & borrow).
        // ~a & b is not directly sensed by the pair activation, but
        // b & (a^b) equals it, so one extra single-row sense of the b
        // slice recovers the borrow term.
        auto sense = activatePair(sliceLoc(a, k), sliceLoc(b, k));
        BitVector x = ~(sense.andBits | sense.norBits);
        BitVector bbits = senseBlock(sliceLoc(b, k));
        BitVector diff = x ^ carryLatch_;
        carryLatch_ = (bbits & x) | (~x & carryLatch_);
        storeBlock(sliceLoc(dst, k), diff);
    }
}

void
SubArray::opBitSerialMul(const BitSerialOperand &a, const BitSerialOperand &b,
                         const BitSerialOperand &dst, std::size_t width)
{
    checkBitSerialOperands(a, b, dst, width, /*exact_alias=*/false);

    // Zero the accumulator slices through the reset data latch.
    for (std::size_t k = 0; k < width; ++k)
        storeBlock(sliceLoc(dst, k), BitVector(8 * kBlockSize));

    // Shift-and-add: partial product j is (a & b_j) << j, accumulated
    // bit-serially into the dst slices; bits at or above width truncate
    // (mod 2^width, matching two's-complement wraparound).
    for (std::size_t j = 0; j < width; ++j) {
        carryLatch_ = BitVector(8 * kBlockSize);
        for (std::size_t k = 0; k + j < width; ++k) {
            // Dual-row activation of (a_k, b_j) senses the partial-
            // product bit on BL; the accumulator slice is sensed
            // single-row and the full-adder result written back.
            auto sense = activatePair(sliceLoc(a, k), sliceLoc(b, j));
            BitVector pp = sense.andBits;
            BitVector acc = senseBlock(sliceLoc(dst, j + k));
            BitVector x = acc ^ pp;
            BitVector sum = x ^ carryLatch_;
            carryLatch_ = (acc & pp) | (x & carryLatch_);
            storeBlock(sliceLoc(dst, j + k), sum);
        }
    }
}

BitSerialCmpResult
SubArray::opBitSerialCompare(const BitSerialOperand &a,
                             const BitSerialOperand &b, std::size_t width,
                             bool is_signed)
{
    checkBitSerial(a, width);
    checkBitSerial(b, width);
    CC_ASSERT(a.partition == b.partition,
              "bit-serial operands must share a block partition");

    BitSerialCmpResult res;
    res.lt = BitVector(8 * kBlockSize);
    res.gt = BitVector(8 * kBlockSize);
    BitVector decided(8 * kBlockSize);

    // MSB-first: the first differing bit decides each lane. The pair
    // activation yields a^b; a single-row sense of the a slice splits
    // the difference into a>b (a=1) and a<b (a=0). For signed compares
    // the sign-bit slice decides with the roles swapped (a negative,
    // b non-negative means a < b).
    for (std::size_t k = width; k-- > 0;) {
        auto sense = activatePair(sliceLoc(a, k), sliceLoc(b, k));
        BitVector x = ~(sense.andBits | sense.norBits);
        BitVector abits = senseBlock(sliceLoc(a, k));
        BitVector fresh = ~decided & x;
        bool sign_slice = is_signed && k == width - 1;
        if (sign_slice) {
            res.lt |= fresh & abits;
            res.gt |= fresh & ~abits;
        } else {
            res.gt |= fresh & abits;
            res.lt |= fresh & ~abits;
        }
        decided |= x;
    }
    res.eq = ~decided;
    return res;
}

SubArray::RawSense
SubArray::rawActivate(const std::vector<std::size_t> &rows)
{
    double underdrive = params_.wordlineUnderdrive;
    // Beyond the demonstrated safe activation count the bias against write
    // no longer holds; model that as losing the underdrive protection.
    if (rows.size() > params_.maxSafeActiveRows)
        underdrive = 1.0;

    auto digital =
        cells_.activateWords(rows, underdrive, /*track_margin=*/true);
    return {std::move(digital.andBits), std::move(digital.norBits),
            digital.margin};
}

double
monteCarloFailureRate(double margin, double offset_sigma,
                      std::size_t trials, Rng &rng)
{
    CC_ASSERT(trials > 0, "need at least one trial");
    std::size_t failures = 0;
    for (std::size_t i = 0; i < trials; ++i) {
        // Box-Muller transform for a Gaussian offset sample.
        double u1 = std::max(rng.uniform(), 1e-12);
        double u2 = rng.uniform();
        double gauss = std::sqrt(-2.0 * std::log(u1)) *
            std::cos(2.0 * M_PI * u2);
        if (std::abs(gauss * offset_sigma) >= margin)
            ++failures;
    }
    return static_cast<double>(failures) / static_cast<double>(trials);
}

} // namespace ccache::sram
