#include "sram/subarray.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"

namespace ccache::sram {

namespace {

/** Number of distinct BitlineOp values, for the op-count array. */
constexpr std::size_t kNumOps =
    static_cast<std::size_t>(BitlineOp::CmpStep) + 1;

std::size_t
opIndex(BitlineOp op)
{
    return static_cast<std::size_t>(op);
}

/** Set by the differential tests that run the per-bit reference path. */
std::atomic<bool> g_scalar_bitline{false};

} // namespace

bool
SubArray::scalarBitline()
{
    return g_scalar_bitline.load(std::memory_order_relaxed);
}

void
SubArray::forceScalarBitline(bool on)
{
    g_scalar_bitline.store(on, std::memory_order_relaxed);
}

SubArray::SubArray(const SubArrayParams &params)
    : params_(params), cells_(params.rows, params.cols),
      senseAmps_(params.cols), xorTree_(8 * kBlockSize),
      opCounts_(kNumOps, 0)
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
    if (!scalarBitline()) {
        // Partitions are whole 64-bit words (the block width is 512 bits
        // and cols is a multiple of it), so the extraction is a word copy.
        const auto &src = row_bits.words();
        auto &dst = out.words();
        std::copy(src.begin() + lo / 64, src.begin() + lo / 64 + dst.size(),
                  dst.begin());
        return out;
    }
    for (std::size_t c = lo; c < hi; ++c)
        out.set(c - lo, row_bits.get(c));
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

void
SubArray::attachFaults(fault::FaultInjector *injector,
                       std::uint64_t base_id)
{
    faults_ = injector;
    faultBaseId_ = base_id;
}

BitVector
SubArray::senseBlock(const BlockLoc &loc)
{
    BitVector bits;
    if (scalarBitline()) {
        auto levels = cells_.activate({loc.row}, params_.wordlineUnderdrive);
        auto full = senseAmps_.senseDifferential(levels);
        bits = extractPartition(full, loc.partition);
    } else {
        // A single-row differential sense observes exactly the stored bits
        // (BL/BLB sit at 1.0 vs 0.4) and one active row can never disturb,
        // so the sense is a word copy of the packed row (DESIGN.md §13).
        bits = extractPartition(cells_.row(loc.row), loc.partition);
    }

    // Single-row sensing sees full margin: only cell defects and
    // in-flight soft errors can corrupt the observed bits.
    lastSenseFault_ = fault::FaultEvent{};
    if (faults_ && faults_->enabled()) {
        Addr cell_key = loc.row * partitions() + loc.partition;
        fault::FaultEvent stuck =
            faults_->stuckAtFault(faultBaseId_, cell_key);
        fault::FaultInjector::corrupt(bits, stuck);
        fault::FaultEvent transient =
            faults_->drawOperandFault(faultBaseId_);
        fault::FaultInjector::corrupt(bits, transient);
        lastSenseFault_ = transient.none() ? stuck : transient;
    }
    return bits;
}

void
SubArray::storeBlock(const BlockLoc &loc, const BitVector &bits)
{
    CC_ASSERT(bits.size() == 8 * kBlockSize, "block bit width mismatch");
    auto [lo, hi] = columnRange(loc.partition);
    if (!scalarBitline()) {
        cells_.writeWordsThroughBitlines(loc.row, lo / 64, bits);
        return;
    }
    BitVector row = cells_.readRow(loc.row);
    for (std::size_t c = lo; c < hi; ++c)
        row.set(c, bits.get(c - lo));
    cells_.writeThroughBitlines(loc.row, row);
}

Block
SubArray::read(const BlockLoc &loc, OpCost *cost)
{
    checkLoc(loc);
    ++opCounts_[opIndex(BitlineOp::Read)];
    if (cost) {
        cost->delay = params_.opDelay(BitlineOp::Read);
        cost->energy = params_.opEnergy(BitlineOp::Read);
    }
    return bitsToBlock(senseBlock(loc));
}

void
SubArray::write(const BlockLoc &loc, const Block &data, OpCost *cost)
{
    checkLoc(loc);
    ++opCounts_[opIndex(BitlineOp::Write)];
    if (cost) {
        cost->delay = params_.opDelay(BitlineOp::Write);
        cost->energy = params_.opEnergy(BitlineOp::Write);
    }
    storeBlock(loc, blockToBits(data));
}

SubArray::TwoRowSense
SubArray::activatePair(const BlockLoc &a, const BlockLoc &b)
{
    checkSamePartition(a, b);
    CC_ASSERT(a.row != b.row, "in-place op needs two distinct rows");
    TwoRowSense sense;
    if (scalarBitline()) {
        auto levels = cells_.activate({a.row, b.row},
                                      params_.wordlineUnderdrive);
        sense.andBits = extractPartition(senseAmps_.senseBL(levels),
                                         a.partition);
        sense.norBits = extractPartition(senseAmps_.senseBLB(levels),
                                         a.partition);
    } else {
        pairRows_[0] = a.row;
        pairRows_[1] = b.row;
        auto digital =
            cells_.activateWords(pairRows_, params_.wordlineUnderdrive);
        sense.andBits = extractPartition(digital.andBits, a.partition);
        sense.norBits = extractPartition(digital.norBits, a.partition);
    }

    // Dual-row activation halves the worst-case sense margin: an
    // injected margin failure flips the weakest column's observation on
    // both the BL and BLB senses.
    lastMarginFailed_ = false;
    if (faults_ && faults_->enabled() &&
        faults_->drawMarginFailure(faultBaseId_)) {
        lastMarginFailed_ = true;
        std::size_t bit = faults_->drawBelow(sense.andBits.size());
        sense.andBits.set(bit, !sense.andBits.get(bit));
        sense.norBits.set(bit, !sense.norBits.get(bit));
    }
    return sense;
}

OpCost
SubArray::logicalOp(BitlineOp op, const BlockLoc &a, const BlockLoc &b,
                    const BlockLoc &dst)
{
    checkSamePartition(a, b);
    checkSamePartition(a, dst);
    ++opCounts_[opIndex(op)];

    auto sense = activatePair(a, b);
    BitVector result(8 * kBlockSize);
    switch (op) {
      case BitlineOp::And:
        result = sense.andBits;
        break;
      case BitlineOp::Nor:
        result = sense.norBits;
        break;
      case BitlineOp::Or:
        // OR = NOT(NOR): the sense output is inverted before the
        // write-back driver.
        result = ~sense.norBits;
        break;
      case BitlineOp::Xor:
        // XOR = NOR(AND, NOR): neither both-ones nor both-zeros.
        result = ~(sense.andBits | sense.norBits);
        break;
      default:
        CC_PANIC("not a two-operand logical op: ", toString(op));
    }
    storeBlock(dst, result);
    return {params_.opDelay(op), params_.opEnergy(op)};
}

OpCost
SubArray::opAnd(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst)
{
    return logicalOp(BitlineOp::And, a, b, dst);
}

OpCost
SubArray::opOr(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst)
{
    return logicalOp(BitlineOp::Or, a, b, dst);
}

OpCost
SubArray::opXor(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst)
{
    return logicalOp(BitlineOp::Xor, a, b, dst);
}

OpCost
SubArray::opNor(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst)
{
    return logicalOp(BitlineOp::Nor, a, b, dst);
}

OpCost
SubArray::opNot(const BlockLoc &src, const BlockLoc &dst)
{
    checkSamePartition(src, dst);
    ++opCounts_[opIndex(BitlineOp::Not)];

    // Single-row activation; BLB carries the complement of the stored data.
    BitVector result;
    if (scalarBitline()) {
        auto levels = cells_.activate({src.row}, params_.wordlineUnderdrive);
        result = extractPartition(senseAmps_.senseBLB(levels),
                                  src.partition);
    } else {
        result = ~extractPartition(cells_.row(src.row), src.partition);
    }
    storeBlock(dst, result);
    return {params_.opDelay(BitlineOp::Not),
            params_.opEnergy(BitlineOp::Not)};
}

OpCost
SubArray::opCopy(const BlockLoc &src, const BlockLoc &dst)
{
    checkSamePartition(src, dst);
    CC_ASSERT(src.row != dst.row, "copy needs distinct rows");
    ++opCounts_[opIndex(BitlineOp::Copy)];

    // Figure 4: the sense amplifiers read the source and their outputs are
    // fed straight back onto the bit-lines while the destination word-line
    // is write-enabled. The data never leaves the sub-array.
    BitVector sensed = senseBlock(src);
    storeBlock(dst, sensed);
    return {params_.opDelay(BitlineOp::Copy),
            params_.opEnergy(BitlineOp::Copy)};
}

OpCost
SubArray::opBuz(const BlockLoc &loc)
{
    checkLoc(loc);
    ++opCounts_[opIndex(BitlineOp::Buz)];

    // Resetting the input data latch before the write drives zeros.
    storeBlock(loc, BitVector(8 * kBlockSize));
    return {params_.opDelay(BitlineOp::Buz),
            params_.opEnergy(BitlineOp::Buz)};
}

CmpResult
SubArray::opCmp(const BlockLoc &a, const BlockLoc &b)
{
    checkSamePartition(a, b);
    ++opCounts_[opIndex(BitlineOp::Cmp)];

    // Bit-wise XOR computed on the bit-lines; per-word equality is the
    // wired-NOR of the 64 XOR outputs of that word.
    auto sense = activatePair(a, b);
    BitVector xorBits = ~(sense.andBits | sense.norBits);

    CmpResult result;
    if (!scalarBitline()) {
        // Each 64-bit block word is exactly one packed word of the 512-bit
        // partition, so the wired-NOR per word is a zero test.
        const auto &xor_w = xorBits.words();
        for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
            if (xor_w[w] == 0)
                result.wordEqualMask |= std::uint64_t{1} << w;
        }
    } else {
        for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
            bool any_diff = false;
            for (std::size_t bit = 0; bit < 64; ++bit)
                any_diff |= xorBits.get(w * 64 + bit);
            if (!any_diff)
                result.wordEqualMask |= std::uint64_t{1} << w;
        }
    }
    result.allEqual =
        result.wordEqualMask == (std::uint64_t{1} << kWordsPerBlock) - 1;
    result.cost = {params_.opDelay(BitlineOp::Cmp),
                   params_.opEnergy(BitlineOp::Cmp)};
    return result;
}

CmpResult
SubArray::opSearch(const BlockLoc &key, const BlockLoc &data)
{
    checkSamePartition(key, data);
    ++opCounts_[opIndex(BitlineOp::Search)];

    CmpResult result = opCmp(key, data);
    // opCmp above already counted itself; attribute the activity to search
    // instead so op counts stay meaningful.
    --opCounts_[opIndex(BitlineOp::Cmp)];
    result.cost = {params_.opDelay(BitlineOp::Search),
                   params_.opEnergy(BitlineOp::Search)};
    return result;
}

ClmulResult
SubArray::opClmul(const BlockLoc &a, const BlockLoc &b,
                  std::size_t word_bits)
{
    checkSamePartition(a, b);
    ++opCounts_[opIndex(BitlineOp::Clmul)];

    auto sense = activatePair(a, b);
    ClmulResult result;
    result.parities = xorTree_.reduceWords(sense.andBits, word_bits);
    result.cost = {params_.opDelay(BitlineOp::Clmul),
                   params_.opEnergy(BitlineOp::Clmul)};
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
SubArray::chargeStep(BitlineOp op, OpCost *cost)
{
    ++opCounts_[opIndex(op)];
    cost->delay += params_.opDelay(op);
    cost->energy += params_.opEnergy(op);
}

OpCost
SubArray::opBitSerialAdd(const BitSerialOperand &a, const BitSerialOperand &b,
                         const BitSerialOperand &dst, std::size_t width)
{
    checkBitSerial(a, width);
    checkBitSerial(b, width);
    checkBitSerial(dst, width);
    CC_ASSERT(a.partition == b.partition && a.partition == dst.partition,
              "bit-serial operands must share a block partition");
    // Exact aliasing (dst == a or dst == b) is safe -- slice k is
    // consumed before it is overwritten -- but a partially-overlapping
    // destination would clobber not-yet-read source slices.
    auto aligned_or_disjoint = [&](const BitSerialOperand &s) {
        return dst.row0 == s.row0 ||
            dst.row0 + width <= s.row0 || s.row0 + width <= dst.row0;
    };
    CC_ASSERT(aligned_or_disjoint(a) && aligned_or_disjoint(b),
              "bit-serial destination partially overlaps a source");

    OpCost cost;
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
        chargeStep(BitlineOp::AddStep, &cost);
    }
    return cost;
}

OpCost
SubArray::opBitSerialSub(const BitSerialOperand &a, const BitSerialOperand &b,
                         const BitSerialOperand &dst, std::size_t width)
{
    checkBitSerial(a, width);
    checkBitSerial(b, width);
    checkBitSerial(dst, width);
    CC_ASSERT(a.partition == b.partition && a.partition == dst.partition,
              "bit-serial operands must share a block partition");
    auto aligned_or_disjoint = [&](const BitSerialOperand &s) {
        return dst.row0 == s.row0 ||
            dst.row0 + width <= s.row0 || s.row0 + width <= dst.row0;
    };
    CC_ASSERT(aligned_or_disjoint(a) && aligned_or_disjoint(b),
              "bit-serial destination partially overlaps a source");

    OpCost cost;
    carryLatch_ = BitVector(8 * kBlockSize);  // borrow latch
    for (std::size_t k = 0; k < width; ++k) {
        // diff = a^b^borrow; borrow' = (~a & b) | (~(a^b) & borrow).
        // ~a & b is not directly sensed by the pair activation, but
        // b & (a^b) equals it, so one extra single-row sense of the b
        // slice recovers the borrow term (costed by SubStep).
        auto sense = activatePair(sliceLoc(a, k), sliceLoc(b, k));
        BitVector x = ~(sense.andBits | sense.norBits);
        BitVector bbits = senseBlock(sliceLoc(b, k));
        BitVector diff = x ^ carryLatch_;
        carryLatch_ = (bbits & x) | (~x & carryLatch_);
        storeBlock(sliceLoc(dst, k), diff);
        chargeStep(BitlineOp::SubStep, &cost);
    }
    return cost;
}

OpCost
SubArray::opBitSerialMul(const BitSerialOperand &a, const BitSerialOperand &b,
                         const BitSerialOperand &dst, std::size_t width)
{
    checkBitSerial(a, width);
    checkBitSerial(b, width);
    checkBitSerial(dst, width);
    CC_ASSERT(a.partition == b.partition && a.partition == dst.partition,
              "bit-serial operands must share a block partition");
    // The accumulator is read-modify-written per partial product, so it
    // cannot overlay either source.
    auto overlaps = [&](const BitSerialOperand &s) {
        return dst.row0 < s.row0 + width && s.row0 < dst.row0 + width;
    };
    CC_ASSERT(!overlaps(a) && !overlaps(b),
              "bit-serial mul accumulator must not alias a source");

    OpCost cost;
    // Zero the accumulator slices through the reset data latch.
    for (std::size_t k = 0; k < width; ++k) {
        storeBlock(sliceLoc(dst, k), BitVector(8 * kBlockSize));
        chargeStep(BitlineOp::Buz, &cost);
    }

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
            chargeStep(BitlineOp::Read, &cost);
            BitVector x = acc ^ pp;
            BitVector sum = x ^ carryLatch_;
            carryLatch_ = (acc & pp) | (x & carryLatch_);
            storeBlock(sliceLoc(dst, j + k), sum);
            chargeStep(BitlineOp::AddStep, &cost);
        }
    }
    return cost;
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
        chargeStep(BitlineOp::CmpStep, &res.cost);
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

    RawSense sense;
    if (scalarBitline()) {
        auto levels = cells_.activate(rows, underdrive);
        sense.andResult = senseAmps_.senseBL(levels);
        sense.norResult = senseAmps_.senseBLB(levels);
        double margin_bl = senseAmps_.senseMargin(levels.bl);
        double margin_blb = senseAmps_.senseMargin(levels.blb);
        sense.margin = margin_bl < margin_blb ? margin_bl : margin_blb;
    } else {
        auto digital =
            cells_.activateWords(rows, underdrive, /*track_margin=*/true);
        sense.andResult = std::move(digital.andBits);
        sense.norResult = std::move(digital.norBits);
        sense.margin = digital.margin;
    }

    // An injected margin failure collapses the observed margin and
    // corrupts the weakest column, like amplifier offset noise would.
    lastMarginFailed_ = false;
    if (faults_ && faults_->enabled() && rows.size() > 1 &&
        faults_->drawMarginFailure(faultBaseId_)) {
        lastMarginFailed_ = true;
        sense.margin = 0.0;
        std::size_t bit = faults_->drawBelow(sense.andResult.size());
        sense.andResult.set(bit, !sense.andResult.get(bit));
        sense.norResult.set(bit, !sense.norResult.get(bit));
    }
    return sense;
}

std::uint64_t
SubArray::opCount(BitlineOp op) const
{
    return opCounts_[opIndex(op)];
}

} // namespace ccache::sram
