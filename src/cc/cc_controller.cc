#include "cc/cc_controller.hh"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "cc/bitserial.hh"
#include "common/bit_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "verify/coherence_checker.hh"

namespace ccache::cc {

using cache::Cache;
using cache::LineRef;

Cycles &
CcController::PartitionClock::operator[](std::uint64_t key)
{
    if (slots.empty())
        slots.resize(256);
    else if (live * 4 >= slots.size() * 3)
        grow();
    std::size_t mask = slots.size() - 1;
    std::size_t i = mix64(key) & mask;
    while (true) {
        Slot &s = slots[i];
        if (s.epoch != epoch) {
            s.key = key;
            s.value = 0;
            s.epoch = epoch;
            ++live;
            return s.value;
        }
        if (s.key == key)
            return s.value;
        i = (i + 1) & mask;
    }
}

void
CcController::PartitionClock::clear()
{
    ++epoch;
    live = 0;
    if (epoch == 0) {
        // Epoch counter wrapped: stale slots could alias the new epoch,
        // so pay one full sweep every 2^32 clears.
        for (Slot &s : slots)
            s.epoch = 0;
        epoch = 1;
    }
}

void
CcController::PartitionClock::grow()
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{});
    std::size_t mask = slots.size() - 1;
    for (const Slot &s : old) {
        if (s.epoch != epoch)
            continue;
        std::size_t i = mix64(s.key) & mask;
        while (slots[i].epoch == epoch)
            i = (i + 1) & mask;
        slots[i] = s;
    }
}

void
CcController::ScheduleState::reset()
{
    streaming = false;
    issueClock = 0;
    horizon = 0;
    partitionFree.clear();
    nearFree.clear();
    powerSlots.clear();
    fetchLats.clear();
}

namespace {

/** Overlap a set of staging latencies MLP-deep: the longest miss
 *  dominates and the rest pipeline behind it. */
Cycles
foldFetchLatencies(std::vector<Cycles> &lats, unsigned mlp)
{
    if (lats.empty())
        return 0;
    std::sort(lats.begin(), lats.end(), std::greater<Cycles>());
    Cycles total = lats.front();
    Cycles rest = 0;
    for (std::size_t i = 1; i < lats.size(); ++i)
        rest += lats[i];
    return total + rest / std::max(1u, mlp);
}

/** True for CC opcodes whose in-place form activates two word-lines
 *  simultaneously (the reduced-margin sensing mode). */
bool
isDualRowOp(CcOpcode op)
{
    switch (op) {
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor:
      case CcOpcode::Cmp:
      case CcOpcode::Search:
      case CcOpcode::Clmul:
      // Every bit-serial step senses two rows at once (the a/b or
      // partial-product/accumulator slice pair).
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq:
        return true;
      case CcOpcode::Copy:
      case CcOpcode::Buz:
      case CcOpcode::Not:
        return false;
    }
    return false;
}

/** Energy class of one in-place activation of @p op. */
energy::CacheOp
costOp(CcOpcode op)
{
    switch (op) {
      case CcOpcode::Copy: return energy::CacheOp::Copy;
      case CcOpcode::Buz: return energy::CacheOp::Buz;
      case CcOpcode::Cmp:
      case CcOpcode::Search: return energy::CacheOp::Cmp;
      case CcOpcode::Not: return energy::CacheOp::Not;
      case CcOpcode::Clmul: return energy::CacheOp::Clmul;
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor:
      // Every bit-serial step is a dual-row logic activation.
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq: return energy::CacheOp::Logic;
    }
    return energy::CacheOp::Read;
}

/** The functional kernel of one CC-RW block op: result rows @p d from
 *  the source rows @p a / @p b. */
void
computeRows(const CcInstruction &instr, const std::vector<Block> &a,
            const std::vector<Block> &b, std::vector<Block> &d)
{
    if (isBitSerial(instr.op)) {
        // One 64-byte block per slice row, and vector<Block> is
        // contiguous: the stacks' slice stride is kBlockSize.
        BitSerialCompute::apply(instr, d[0].data(), a[0].data(),
                                b[0].data(), kBlockSize);
    } else {
        d[0] = BlockCompute::apply(instr.op, a[0], b[0],
                                   instr.clmulWordBits);
    }
}

/** Merge block op @p index's clmul parities (word 0 of @p parities)
 *  into its slot of the packed destination block @p dst; returns the
 *  slot's bit offset. */
std::size_t
packParities(Block &dst, const Block &parities, const CcInstruction &instr,
             std::size_t index)
{
    std::size_t bits_per_op = instr.clmulBitsPerBlock();
    std::size_t ops_per_dest = (8 * kBlockSize) / bits_per_op;
    std::size_t bit_off = (index % ops_per_dest) * bits_per_op;
    std::size_t word = bit_off / 64;
    std::size_t shift = bit_off % 64;
    std::uint64_t mask = bits_per_op == 64
        ? ~std::uint64_t{0}
        : ((std::uint64_t{1} << bits_per_op) - 1) << shift;
    std::uint64_t w = blockWord(dst, word);
    w = (w & ~mask) | ((blockWord(parities, 0) << shift) & mask);
    setBlockWord(dst, word, w);
    return bit_off;
}

} // namespace

CcController::CcController(cache::Hierarchy &hier,
                           energy::EnergyModel *energy, StatRegistry *stats,
                           const CcControllerParams &params)
    : hier_(hier), energy_(energy), stats_(stats), params_(params),
      nearPlace_(energy, stats), faults_(params.faults)
{
    // A StagedRow packs a way and a cache index into 16 bits each.
    static_assert(cache::Hierarchy::kCores <= 0xffff &&
                      noc::Ring::kNodes <= 0xffff,
                  "a StagedRow's cache index is 16 bits");
    const cache::HierarchyParams &hp = hier.params();
    for (const cache::CacheParams *cp : {&hp.l1, &hp.l2, &hp.l3}) {
        if (cp->geometry.ways > 0xffff)
            CC_FATAL(cp->geometry.name, ": ", cp->geometry.ways,
                     " ways exceed the controller's 65535");
    }

    if (params_.verifyCircuit) {
        sram::SubArrayParams sp;
        // Three bit-serial slice stacks of up to kMaxBitSerialWidth rows
        // must fit alongside the single-block scratch rows.
        sp.rows = 128;
        sp.cols = 8 * kBlockSize;
        circuit_ = std::make_unique<sram::SubArray>(sp);
    }

    if (stats_) {
        instrLatencyHist_ = &stats_->histogram(
            "cc.instr_latency", 64.0, 64,
            "per-CC-instruction completion latency (cycles)");
        faultScrubCyclesAccum_ = &stats_->accum("cc.fault.scrub_cycles");
        instructionsStat_ = &stats_->counter("cc.instructions");
        pageSplitExceptionsStat_ =
            &stats_->counter("cc.page_split_exceptions");
        lockRetriesStat_ = &stats_->counter("cc.lock_retries");
        operandRefetchesStat_ = &stats_->counter("cc.operand_refetches");
        inPlaceOpsStat_ = &stats_->counter("cc.in_place_ops");
        nearPlaceOpsStat_ = &stats_->counter("cc.near_place_ops");
        blockOpsStat_ = &stats_->counter("cc.block_ops");
        circuitVerificationsStat_ =
            &stats_->counter("cc.circuit_verifications");
        riscFallbacksStat_ = &stats_->counter("cc.risc_fallbacks");
        stagingRacesStat_ = &stats_->counter("cc.staging_races");
        keyReplicationsStat_ = &stats_->counter("cc.key_replications");
        faultRiscRecoveriesStat_ =
            &stats_->counter("cc.fault.risc_recoveries");
        faultDegradedNearPlaceStat_ =
            &stats_->counter("cc.fault.degraded_near_place");
        faultRetriesStat_ = &stats_->counter("cc.fault.retries");
        faultMarginFailuresStat_ =
            &stats_->counter("cc.fault.margin_failures");
        faultEccUncorrectableStat_ =
            &stats_->counter("cc.fault.ecc_uncorrectable");
        faultEccCorrectedStat_ = &stats_->counter("cc.fault.ecc_corrected");
        faultSilentCorruptionsStat_ =
            &stats_->counter("cc.fault.silent_corruptions");
        faultScrubVisitsStat_ = &stats_->counter("cc.fault.scrub_visits");
        faultScrubRefillsStat_ = &stats_->counter("cc.fault.scrub_refills");
        faultScrubCorrectionsStat_ =
            &stats_->counter("cc.fault.scrub_corrections");
        for (CacheLevel lvl :
             {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3})
            levelOpsStat_[static_cast<unsigned>(lvl)] = &stats_->counter(
                std::string("cc.level_") + ccache::toString(lvl));
    }
}

CcExecResult
CcController::execute(CoreId core, const CcInstruction &instr)
{
    CcExecResult res = executeInstr(core, instr);

    if (checker_) {
        // The controller wrote the cache arrays directly, below the
        // hierarchy's transaction hooks: audit every operand block now
        // that the instruction (and any fault-ladder recovery) retired.
        OpPlan(instr).forEachRow(
            [&](Addr blk, bool) { checker_->onTransaction(blk); });
    }

    if (stats_) {
        instrLatencyHist_->sample(static_cast<double>(res.latency));
    }
    if (trace_ && trace_->enabled()) {
        Json args = Json::object();
        args["size"] = static_cast<std::uint64_t>(instr.size);
        args["level"] = ccache::toString(res.level);
        args["block_ops"] = static_cast<std::uint64_t>(res.blockOps);
        args["in_place_ops"] = static_cast<std::uint64_t>(res.inPlaceOps);
        args["near_place_ops"] =
            static_cast<std::uint64_t>(res.nearPlaceOps);
        if (res.riscFallback)
            args["risc_fallback"] = true;
        trace_->complete(tracecat::kCc, toString(instr.op),
                         static_cast<int>(core),
                         trace_->now(static_cast<int>(core)), res.latency,
                         std::move(args));
    }
    return res;
}

CcExecResult
CcController::executeInstr(CoreId core, const CcInstruction &instr)
{
    instr.validate();

    if (stats_)
        instructionsStat_->inc();
    if (energy_)
        energy_->chargeVectorInstructions(1);

    if (faults_.enabled()) {
        // Between instructions: background upsets strike resident
        // blocks, and the scrubber walks a few of them.
        faults_.backgroundTick();
        scrubTick();
    }

    if (!instr.spansPage())
        return executeBlockOps(core, instr);

    // Section IV-D: page-spanning operands raise a pipeline exception and
    // the handler splits the instruction per page.
    if (stats_)
        pageSplitExceptionsStat_->inc();
    CcExecResult total;
    total.latency = kPageSplitPenalty;
    std::size_t result_bits = 0;
    for (const CcInstruction &piece : instr.splitAtPageBoundaries()) {
        CcExecResult r = executeBlockOps(core, piece);
        total.latency += r.latency;
        total.fetchLatency += r.fetchLatency;
        total.computeLatency += r.computeLatency;
        total.blockOps += r.blockOps;
        total.inPlaceOps += r.inPlaceOps;
        total.nearPlaceOps += r.nearPlaceOps;
        total.keyReplications += r.keyReplications;
        total.lockRetries += r.lockRetries;
        total.riscFallback |= r.riscFallback;
        total.faultRetries += r.faultRetries;
        total.faultDegradedOps += r.faultDegradedOps;
        total.faultRiscRecoveries += r.faultRiscRecoveries;
        total.level = r.level;
        ++total.pageSplits;
        if (isCcR(instr.op)) {
            std::size_t bits = piece.size / 8;
            total.result |= r.result << result_bits;
            result_bits += bits;
        }
    }
    return total;
}

std::vector<CcExecResult>
CcController::executeStream(CoreId core,
                            const std::vector<CcInstruction> &instrs,
                            Cycles *total_latency)
{
    sched_.reset();
    sched_.streaming = true;
    std::vector<CcExecResult> results;
    results.reserve(instrs.size());
    for (const CcInstruction &instr : instrs)
        results.push_back(execute(core, instr));
    sched_.streaming = false;

    if (total_latency) {
        Cycles fetch = foldFetchLatencies(sched_.fetchLats, kFetchMlp);
        // One completion notification covers the drained stream.
        *total_latency = sched_.horizon + fetch +
            hier_.ring().send(0, core % cache::Hierarchy::kCores,
                              noc::MsgClass::Control);
    }
    return results;
}

void
CcController::traceFault(const char *name, Addr addr, CacheLevel level)
{
    if (!trace_ || !trace_->enabled())
        return;
    Json args = Json::object();
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(addr));
    args["addr"] = buf;
    args["level"] = ccache::toString(level);
    trace_->instant(tracecat::kFault, name, EventTrace::kGlobalTrack,
                    trace_->now(EventTrace::kGlobalTrack),
                    std::move(args));
}

std::optional<Cycles>
CcController::stageOperand(CoreId core, Addr addr, CacheLevel level,
                           bool exclusive, bool for_overwrite)
{
    Cycles latency = 0;
    for (unsigned attempt = 0; attempt <= kMaxLockRetries; ++attempt) {
        cache::StageResult s = hier_.fetchToLevel(core, addr, level,
                                                  exclusive, for_overwrite);
        latency += s.latency;
        if (LineRef line = s.line) {
            // Pin + promote to MRU so the operand survives until issue
            // (Section IV-E).
            Cache &cache = hier_.cacheInstance(level, s.cacheIndex);
            cache.pin(line);
            cache.promoteMRU(line);
            faults_.noteResident(addr);
            scratchStaged_.push_back(
                {static_cast<std::uint32_t>(line.set()),
                 static_cast<std::uint16_t>(line.way()),
                 static_cast<std::uint16_t>(s.cacheIndex),
                 static_cast<std::uint32_t>(
                     cache.geom().partitionOf(line.set()))});
            return latency;
        }
        if (stats_)
            lockRetriesStat_->inc();
    }
    return std::nullopt;
}

std::size_t
CcController::rowPartition(std::size_t rec, const ResolvedRow &row) const
{
    const StagedRow &r = scratchStaged_[rec];
    return row.line == LineRef(r.set, r.way)
        ? r.partition
        : row.cache.placeOf(row.line).globalPartition;
}

CcController::OpPlan::OpPlan(const CcInstruction &instr)
    : src1(instr.src1), src2(instr.src2), dest(instr.dest)
{
    if (isBitSerial(instr.op)) {
        // A lane group: one 64-byte block per slice row, sequenced
        // through the carry latch.
        steps = instr.size / kBlockSize;
        srcRows = instr.laneBits;
        dstRows = instr.sliceCount(instr.dest);
        bitlineSteps = BitSerialCompute::steps(instr.op, srcRows);
        holdsPartition = true;
        // Near-place: 2W slice reads stream through the word-serial
        // logic unit.
        nearPlaceCycles = 2 * srcRows;
        // RISC: every slice moves through a register, plus the
        // shift/mask ALU work of the software recurrences.
        riscBlocks = 2 * srcRows + dstRows;
        riscInstrs = (riscBlocks + bitlineSteps) * kWordsPerBlock;
        riscCycles = bitlineSteps;
        return;
    }
    // A Table II op: one row per operand per 64-byte block. The search
    // key and a replicated clmul source are one block every op reads; a
    // replicated clmul packs its parities densely into dest.
    steps = divCeil(instr.size, kBlockSize);
    sharedSrc2 = instr.op == CcOpcode::Search || instr.src2Replicated;
    dstRows = instr.dest && !instr.src2Replicated ? 1 : 0;
    destOverwritten = instr.op != CcOpcode::Clmul || instr.src2Replicated;
    if (instr.src2Replicated) {
        opsPerDestBlock = (8 * kBlockSize) / instr.clmulBitsPerBlock();
        packedDestBlocks = divCeil(steps, opsPerDestBlock);
    }
    // RISC: word-granular loads, ALU op and store per word; the ALU ops
    // overlap the misses.
    riscInstrs = 3 * kWordsPerBlock;
    riscCycles = kWordsPerBlock;
}

CcController::BlockOp
CcController::OpPlan::step(std::size_t i) const
{
    BlockOp op;
    op.index = i;
    Addr off = i * kBlockSize;
    op.src1 = src1 ? src1 + off : 0;
    op.src2 = sharedSrc2 ? src2 : (src2 ? src2 + off : 0);
    if (opsPerDestBlock)
        op.dest = dest + (i / opsPerDestBlock) * kBlockSize;
    else
        op.dest = dest ? dest + off : 0;
    return op;
}

CcController::BlockOpOutcome
CcController::performBlockOp(CoreId core, const CcInstruction &instr,
                             const OpPlan &plan, BlockOp &op,
                             CacheLevel level)
{
    BlockOpOutcome out;

    // Staged rows are reached through their staging records (@p rec).
    // An unused operand (address 0) reads as zeros.
    auto read_block = [&](Addr addr, std::size_t rec, Block &dst) {
        if (!addr) {
            dst = Block{};
            return;
        }
        auto [c, line] = resolveRow(level, rec, addr);
        if (line) {
            dst = c.peek(line);
            return;
        }
        // A staged operand can be lost to an unexpected invalidation;
        // re-fetch it instead of aborting the simulation.
        if (stats_)
            operandRefetchesStat_->inc();
        dst = Block{};
        out.extraLatency += hier_.read(core, addr, &dst, level).latency;
    };

    auto write_block = [&](Addr a, std::size_t rec, const Block &data) {
        auto [c, line] = resolveRow(level, rec, a);
        if (line) {
            c.poke(line, data);
            c.markDirty(line);
            return;
        }
        if (stats_)
            operandRefetchesStat_->inc();
        out.extraLatency += hier_.write(core, a, &data, level).latency;
    };

    // Source row k of both operands as stored; every rung that starts
    // over from the true data re-reads through here.
    std::vector<Block> &a = scratchA_;
    std::vector<Block> &b = scratchB_;
    auto read_row = [&](std::size_t k) {
        read_block(OpPlan::row(op.src1, k), plan.src1Record(op.index, k),
                   a[k]);
        read_block(OpPlan::row(op.src2, k), plan.src2Record(op.index, k),
                   b[k]);
    };
    for (std::size_t k = 0; k < plan.srcRows; ++k)
        read_row(k);

    const bool bit_serial = isBitSerial(instr.op);
    const bool packed = plan.opsPerDestBlock != 0;
    // A Table II near-place op senses through the near-place unit's own
    // single-row reads: a retry costs that unit's latency, and a
    // persistent failure has no lower unit to degrade to.
    const bool unit_reads = !bit_serial && !packed && !op.inPlace;
    const energy::CacheOp cost_op = costOp(instr.op);

    // Final rung of the degradation ladder: the operands' cells are
    // unusable (multi-bit defect or persistent margin loss) -- discard
    // the cached copies, refill clean data from memory into fresh
    // cells, and run this op on the scalar core.
    auto risc_recover = [&]() {
        out.riscRecovered = true;
        if (stats_)
            faultRiscRecoveriesStat_->inc();
        traceFault("fault.risc_recovery", op.src1, level);
        for (std::size_t k = 0; k < plan.srcRows; ++k) {
            for (Addr addr :
                 {OpPlan::row(op.src1, k), OpPlan::row(op.src2, k)}) {
                if (!addr)
                    continue;
                faults_.clearLatent(addr);
                faults_.remap(addr);
                if (energy_ && !bit_serial)
                    energy_->chargeDram(1);
            }
            read_row(k);
        }
        out.extraLatency += kFaultRefillLatency;
        if (energy_) {
            // A lane group refills its slice stacks as one burst.
            if (bit_serial)
                energy_->chargeDram(2 * plan.srcRows);
            energy_->chargeInstructions(plan.riscInstrs);
        }
    };

    // Rung 2: re-sense through the near-place path (single rows at full
    // margin, so margin failures cannot recur) with one more ECC check
    // round; an error that still persists is a cell defect and falls
    // through to the final rung.
    auto degrade = [&]() {
        out.degradedNearPlace = true;
        if (stats_)
            faultDegradedNearPlaceStat_->inc();
        traceFault("fault.degrade_near_place", op.src1, level);
        out.extraLatency += nearPlaceLatency(level);
        // The carry latch cannot resume mid-sequence: the whole lane
        // group moves to the near-place unit.
        if (plan.holdsPartition)
            op.inPlace = false;
        std::uint64_t sid = fault::subarrayId(level, op.cacheIndex,
                                              op.partition);
        bool ok = true;
        for (std::size_t k = 0; k < plan.srcRows && ok; ++k) {
            read_row(k);
            const Block ta = a[k];
            const Block tb = b[k];
            Addr s1 = OpPlan::row(op.src1, k);
            Addr s2 = OpPlan::row(op.src2, k);
            ok = (!s1 || checkOperand(&a[k], ta, s1, sid, level, &out)) &&
                (!s2 || checkOperand(&b[k], tb, s2, sid, level, &out));
        }
        if (!ok)
            risc_recover();
    };

    if (!bit_serial && !unit_reads) {
        // A Table II op charges its activation when it issues.
        if (energy_)
            energy_->chargeCacheOp(level, cost_op);
        if (stats_)
            (op.inPlace ? inPlaceOpsStat_ : nearPlaceOpsStat_)->inc();
    }

    if (faults_.enabled()) {
        const bool dual_row = isDualRowOp(instr.op) && op.inPlace;
        const Cycles retry_latency = unit_reads ? nearPlaceLatency(level)
                                                : inPlaceLatency(level);
        const energy::CacheOp retry_op =
            unit_reads ? energy::CacheOp::Read : cost_op;
        // Row by row: the first row pair that exhausts its retries
        // sends the whole op down the ladder.
        bool sensed = true;
        for (std::size_t k = 0; k < plan.srcRows && sensed; ++k)
            sensed = senseOperands(op, k, level, dual_row, retry_latency,
                                   retry_op, &a[k], &b[k], &out);
        if (!sensed) {
            if (unit_reads)
                risc_recover();
            else
                degrade();
        }
    }

    // A Table II op off its bit-lines computes in the near-place unit,
    // which charges its own reads, logic and write-back.
    if (unit_reads || (!bit_serial && !packed && out.degradedNearPlace &&
                       !out.riscRecovered)) {
        NearPlaceResult res = nearPlace_.execute(instr.op, level, a[0],
                                                 b[0], instr.clmulWordBits);
        if (isCcR(instr.op))
            out.mask = res.wordEqualMask;
        else
            write_block(op.dest, plan.destRecord(op.index, 0), res.result);
        return out;
    }

    if (isCcR(instr.op)) {
        out.mask = BlockCompute::wordEqualMask(a[0], b[0]);
        return out;
    }
    std::vector<Block> &d = scratchD_;
    computeRows(instr, a, b, d);

    if (packed) {
        // Replicated clmul: the XOR tree's parities stream into the
        // controller's result register and land packed in dest.
        auto [dst_cache, line] =
            resolveRow(level, plan.destRecord(op.index, 0), op.dest);
        Block merged{};
        if (line) {
            merged = dst_cache.peek(line);
        } else {
            // The packed destination was evicted mid-instruction;
            // recover the partial parities instead of aborting.
            if (stats_)
                operandRefetchesStat_->inc();
            out.extraLatency +=
                hier_.read(core, op.dest, &merged, level).latency;
            line = dst_cache.find(op.dest);
            CC_ASSERT(line, "markDirty on absent line 0x", std::hex,
                      op.dest);
        }
        std::size_t bit_off = packParities(merged, d[0], instr, op.index);
        dst_cache.poke(line, merged);
        dst_cache.markDirty(line);
        // One result-register drain (a block write) per filled dest.
        if (energy_ &&
            bit_off + instr.clmulBitsPerBlock() == 8 * kBlockSize)
            energy_->chargeCacheOp(level, energy::CacheOp::Write);
        return out;
    }

    for (std::size_t k = 0; k < plan.dstRows; ++k)
        write_block(OpPlan::row(op.dest, k), plan.destRecord(op.index, k),
                    d[k]);

    if (bit_serial) {
        if (op.inPlace) {
            if (energy_)
                energy_->chargeCacheOp(level, cost_op, plan.bitlineSteps);
            if (stats_)
                inPlaceOpsStat_->inc();
        } else {
            // Near-place: 2W slice reads cross the H-tree, the logic
            // unit runs W word-serial recurrence steps, results write
            // back (a recovered group paid the scalar core instead).
            if (energy_ && !out.riscRecovered) {
                for (std::size_t k = 0; k < 2 * plan.srcRows; ++k)
                    energy_->chargeCacheOp(level, energy::CacheOp::Read);
                energy_->chargeNearPlaceLogic(level, plan.srcRows);
                for (std::size_t k = 0; k < plan.dstRows; ++k)
                    energy_->chargeCacheOp(level, energy::CacheOp::Write);
            }
            if (stats_)
                nearPlaceOpsStat_->inc();
        }
    }

    if (op.inPlace && !out.degradedNearPlace) {
        if (faults_.enabled()) {
            // Section IV-I: an in-place result bypasses the normal ECC
            // datapath, so the check unit recomputes each written row's
            // code before it can be written back.
            out.extraLatency += plan.dstRows * kEccCheckLatency;
            if (energy_)
                energy_->addCacheAccess(
                    level, energy::kEccCheckPerBlock *
                               static_cast<double>(plan.dstRows));
        }
        if (params_.verifyCircuit)
            verifyAgainstCircuit(instr, plan, a, b, d);
    }
    return out;
}

bool
CcController::senseOperands(const BlockOp &op, std::size_t row,
                            CacheLevel level, bool dual_row,
                            Cycles retry_latency, energy::CacheOp retry_op,
                            Block *a, Block *b, BlockOpOutcome *out)
{
    const Addr src1 = OpPlan::row(op.src1, row);
    const Addr src2 = OpPlan::row(op.src2, row);
    const Block ta = *a;
    const Block tb = *b;
    std::uint64_t sid = fault::subarrayId(level, op.cacheIndex,
                                          op.partition);
    for (unsigned attempt = 0; attempt <= kMaxFaultRetries; ++attempt) {
        if (attempt > 0) {
            // Rung 1: bounded retry -- re-activate and re-sense the
            // partition, paying another op's worth of delay and energy.
            out->extraLatency += retry_latency;
            ++out->retries;
            if (energy_)
                energy_->chargeCacheOp(level, retry_op);
            if (stats_)
                faultRetriesStat_->inc();
            traceFault("fault.retry", src1, level);
        }
        if (dual_row && faults_.drawMarginFailure(sid)) {
            // The margin detector flagged this dual-row activation:
            // nothing sensed in this attempt can be trusted.
            if (stats_)
                faultMarginFailuresStat_->inc();
            traceFault("fault.margin_failure", src1, level);
            continue;
        }
        Block sa = ta;
        Block sb = tb;
        bool ok = true;
        if (src1)
            ok = checkOperand(&sa, ta, src1, sid, level, out);
        if (ok && src2)
            ok = checkOperand(&sb, tb, src2, sid, level, out);
        if (!ok)
            continue;
        *a = sa;
        *b = sb;
        return true;
    }
    return false;
}

bool
CcController::checkOperand(Block *sensed, const Block &truth, Addr addr,
                           std::uint64_t subarray_id, CacheLevel level,
                           BlockOpOutcome *out)
{
    // The stored code always protects the true data: codes are copied
    // along with data on cc_copy and recomputed on every write-back
    // (Section IV-I), so a mismatch below is sensing damage, not a
    // stale code.
    BlockEcc stored = encodeBlock(truth);

    faults_.applyLatent(addr, *sensed);
    fault::FaultInjector::corrupt(*sensed,
                            faults_.stuckAtFault(subarray_id, addr));
    fault::FaultInjector::corrupt(*sensed, faults_.drawOperandFault(subarray_id));

    // Route the sensed block through the ECC check unit.
    out->extraLatency += kEccCheckLatency;
    if (energy_)
        energy_->addCacheAccess(level, energy::kEccCheckPerBlock);

    EccStatus status = checkBlock(*sensed, stored);
    if (status == EccStatus::DetectedDoubleBit) {
        if (stats_)
            faultEccUncorrectableStat_->inc();
        traceFault("fault.ecc_uncorrectable", addr, level);
        return false;
    }
    if (status == EccStatus::CorrectedSingleBit && stats_)
        faultEccCorrectedStat_->inc();

    // A clean or corrected pass also scrubs any latent damage on the
    // line (access-triggered scrubbing).
    faults_.clearLatent(addr);

    if (*sensed != truth && stats_) {
        // The check unit saw nothing wrong (or miscorrected an odd-
        // count burst): the op consumes wrong bits with no error raised.
        faultSilentCorruptionsStat_->inc();
    }
    return true;
}

void
CcController::scrubTick()
{
    std::size_t visited = 0;
    auto hits = faults_.scrubVisit(kScrubBlocksPerInstr, &visited);
    if (visited == 0)
        return;
    if (stats_) {
        faultScrubVisitsStat_->inc(visited);
        // Scrubbing steals idle cycles (Section IV-I alternative 2), so
        // its time is tracked in its own budget, not in any
        // instruction's latency.
        faultScrubCyclesAccum_->add(static_cast<double>(visited) *
                                    static_cast<double>(
                                        kScrubCheckLatency));
    }
    if (energy_)
        energy_->chargeCacheOp(CacheLevel::L3, energy::CacheOp::Read,
                               visited);
    for (const auto &hit : hits) {
        Block truth = hier_.debugRead(hit.addr);
        Block sensed = truth;
        fault::FaultInjector::corrupt(sensed, hit.event);
        BlockEcc stored = encodeBlock(truth);
        EccStatus status = checkBlock(sensed, stored);
        if (status == EccStatus::DetectedDoubleBit) {
            // Uncorrectable latent damage caught before any op consumed
            // it: discard the line and refill clean data into fresh
            // cells.
            faults_.clearLatent(hit.addr);
            faults_.remap(hit.addr);
            if (stats_)
                faultScrubRefillsStat_->inc();
            if (energy_)
                energy_->chargeDram(1);
            continue;
        }
        faults_.clearLatent(hit.addr);
        if (sensed != truth) {
            // An odd-count burst aliased through the scrubber's check:
            // it "corrected" the line into a still-wrong value.
            if (stats_)
                faultSilentCorruptionsStat_->inc();
        } else if (status == EccStatus::CorrectedSingleBit) {
            if (stats_)
                faultScrubCorrectionsStat_->inc();
            if (energy_)
                energy_->chargeCacheOp(CacheLevel::L3,
                                       energy::CacheOp::Write);
        }
    }
}

void
CcController::verifyAgainstCircuit(const CcInstruction &instr,
                                   const OpPlan &plan,
                                   const std::vector<Block> &a,
                                   const std::vector<Block> &b,
                                   const std::vector<Block> &d)
{
    // Disjoint row stacks inside the scratch sub-array; row capacity is
    // checked at construction (rows = 128 >= 3 * kMaxBitSerialWidth).
    const sram::BitSerialOperand oa{0, 0};
    const sram::BitSerialOperand ob{0, kMaxBitSerialWidth};
    const sram::BitSerialOperand od{0, 2 * kMaxBitSerialWidth};
    const sram::BlockLoc la{0, oa.row0}, lb{0, ob.row0}, ld{0, od.row0};
    const std::size_t width = plan.srcRows;
    for (std::size_t k = 0; k < width; ++k) {
        circuit_->write({0, oa.row0 + k}, a[k]);
        circuit_->write({0, ob.row0 + k}, b[k]);
    }
    // Clmul parities and compare predicates leave the array through the
    // XOR tree and the compare latches; every other result is read back
    // from its dest rows.
    std::optional<Block> latched;
    switch (instr.op) {
      case CcOpcode::Copy:
        circuit_->opCopy(la, ld);
        break;
      case CcOpcode::Buz:
        circuit_->opBuz(ld);
        break;
      case CcOpcode::Not:
        circuit_->opNot(la, ld);
        break;
      case CcOpcode::And:
        circuit_->opAnd(la, lb, ld);
        break;
      case CcOpcode::Or:
        circuit_->opOr(la, lb, ld);
        break;
      case CcOpcode::Xor:
        circuit_->opXor(la, lb, ld);
        break;
      case CcOpcode::Clmul: {
        auto clres = circuit_->opClmul(la, lb, instr.clmulWordBits);
        std::uint64_t packed = 0;
        for (std::size_t i = 0; i < clres.parities.size(); ++i)
            packed |= static_cast<std::uint64_t>(clres.parities[i]) << i;
        latched.emplace();
        setBlockWord(*latched, 0, packed);
        break;
      }
      case CcOpcode::Add:
        circuit_->opBitSerialAdd(oa, ob, od, width);
        break;
      case CcOpcode::Sub:
        circuit_->opBitSerialSub(oa, ob, od, width);
        break;
      case CcOpcode::Mul:
        circuit_->opBitSerialMul(oa, ob, od, width);
        break;
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq: {
        sram::BitSerialCmpResult cres = circuit_->opBitSerialCompare(
            oa, ob, width, instr.isSigned);
        const BitVector &want = instr.op == CcOpcode::Lt ? cres.lt
            : instr.op == CcOpcode::Gt                   ? cres.gt
                                                         : cres.eq;
        latched = bitsToBlock(want);
        break;
      }
      case CcOpcode::Cmp:
      case CcOpcode::Search:
        return;  // mask ops verified separately at the sub-array tests
    }
    for (std::size_t k = 0; k < plan.dstRows; ++k) {
        CC_ASSERT((latched ? *latched : circuit_->read({0, od.row0 + k})) ==
                      d[k],
                  "circuit/functional divergence for ", toString(instr.op),
                  " row ", k);
    }
    if (stats_)
        circuitVerificationsStat_->inc();
}

CcExecResult
CcController::riscFallback(CoreId core, const CcInstruction &instr,
                           const OpPlan &plan)
{
    // Section IV-E: after repeated lock failures the core translates the
    // CC operation into RISC loads, ALU ops and stores over the rows the
    // in-cache op would have computed on.
    CcExecResult res;
    res.riscFallback = true;
    res.level = CacheLevel::L1;
    if (stats_)
        riscFallbacksStat_->inc();

    std::vector<Block> &a = scratchA_;
    std::vector<Block> &b = scratchB_;
    std::vector<Block> &d = scratchD_;
    for (std::size_t i = 0; i < plan.steps; ++i) {
        const BlockOp op = plan.step(i);
        for (std::size_t k = 0; k < plan.srcRows; ++k) {
            a[k] = Block{};
            b[k] = Block{};
            if (op.src1)
                res.latency += hier_.read(core, OpPlan::row(op.src1, k),
                                          &a[k]).latency;
            if (op.src2)
                res.latency += hier_.read(core, OpPlan::row(op.src2, k),
                                          &b[k]).latency;
        }
        if (isCcR(instr.op)) {
            std::uint64_t mask = BlockCompute::wordEqualMask(a[0], b[0]);
            res.result |= mask << (i * kWordsPerBlock);
        } else if (plan.opsPerDestBlock) {
            // Merge this op's parities into its slot of the packed dest,
            // as the result shift register does in place.
            computeRows(instr, a, b, d);
            Block packed{};
            res.latency += hier_.read(core, op.dest, &packed).latency;
            packParities(packed, d[0], instr, op.index);
            res.latency += hier_.write(core, op.dest, &packed).latency;
        } else {
            computeRows(instr, a, b, d);
            for (std::size_t k = 0; k < plan.dstRows; ++k)
                res.latency += hier_.write(core, OpPlan::row(op.dest, k),
                                           &d[k]).latency;
        }
        if (energy_)
            energy_->chargeInstructions(plan.riscInstrs);
        res.latency += plan.riscCycles;
    }
    res.blockOps = plan.steps * plan.riscBlocks;
    return res;
}

CcExecResult
CcController::executeBlockOps(CoreId core, const CcInstruction &instr)
{
    CcExecResult res;
    if (!sched_.streaming)
        sched_.reset();
    else
        sched_.issueClock += kIssueLatency;  // dispatch serializes
    res.latency = kIssueLatency;

    const OpPlan plan(instr);
    res.blockOps = plan.steps * plan.bitlineSteps;
    scratchA_.resize(plan.srcRows);
    scratchB_.resize(plan.srcRows);
    scratchD_.resize(std::max<std::size_t>(plan.dstRows, 1));
    scratchKeyPartitions_.clear();

    // ------------------------------------------------------------------
    // Level selection (Section IV-E): the highest level where every row
    // is present; L3 when any row is uncached. L3 needs no probe: it is
    // the unconditional fallback, and the probe's only side effect,
    // sliceFor's first-touch page binding, is made the same way by the
    // L3 staging below (a row resident in L1 or L2 had its page bound
    // by the fill that brought it there). Probing stops once L1 and L2
    // are both ruled out.
    // ------------------------------------------------------------------
    CacheLevel level = CacheLevel::L3;
    if (params_.forceLevel) {
        level = *params_.forceLevel;
    } else {
        const Cache &l1 = hier_.l1(core);
        const Cache &l2 = hier_.l2(core);
        bool all_l1 = true, all_l2 = true;
        plan.forEachRow([&](Addr addr, bool) {
            if (all_l1)
                all_l1 = l1.contains(addr);
            if (all_l2)
                all_l2 = l2.contains(addr);
        });
        if (all_l1)
            level = CacheLevel::L1;
        else if (all_l2)
            level = CacheLevel::L2;
    }
    res.level = level;

    // ------------------------------------------------------------------
    // Operand staging: fetch + pin every row, each op's sources before
    // its dest rows (so an aliased add/sub destination stack is fetched
    // before its for-overwrite staging sees it resident). Misses overlap
    // up to kFetchMlp deep.
    // ------------------------------------------------------------------
    std::vector<StagedRow> &staged = scratchStaged_;
    std::vector<Cycles> &fetch_lats = scratchFetchLats_;
    staged.clear();
    fetch_lats.clear();
    bool fallback = false;
    plan.forEachRow([&](Addr addr, bool dest) {
        if (fallback)
            return;
        auto lat = stageOperand(core, addr, level, dest,
                                dest && plan.destOverwritten);
        if (!lat) {
            fallback = true;
            return;
        }
        if (*lat > 0)
            fetch_lats.push_back(*lat);
    });

    // Every later use of a staged row goes through its record; a record
    // never outlives this call (DESIGN.md §13.4).
    auto unpin_all = [&]() {
        std::size_t rec = 0;
        plan.forEachRow([&](Addr addr, bool) {
            if (rec < staged.size()) {
                auto [c, line] = resolveRow(level, rec, addr);
                if (line)
                    c.unpin(line);
            }
            ++rec;
        });
    };
    // Release everything the instruction holds and run it as RISC.
    auto abandon = [&]() {
        unpin_all();
        return riscFallback(core, instr, plan);
    };
    if (fallback)
        return abandon();

    // Fetch latency: the longest miss dominates; the rest overlap with
    // MLP-deep pipelining. In stream mode staging overlaps with other
    // instructions' compute, so it folds into the stream total instead.
    if (!fetch_lats.empty()) {
        if (sched_.streaming) {
            sched_.fetchLats.insert(sched_.fetchLats.end(),
                                    fetch_lats.begin(), fetch_lats.end());
        } else {
            Cycles fetch = foldFetchLatencies(fetch_lats, kFetchMlp);
            res.fetchLatency = fetch;
            res.latency += fetch;
        }
    }

    // ------------------------------------------------------------------
    // Build block ops, resolve placement and operand locality.
    // ------------------------------------------------------------------
    std::vector<BlockOp> &ops = scratchOps_;
    ops.clear();
    for (std::size_t i = 0; i < plan.steps; ++i) {
        BlockOp &op = ops.emplace_back(plan.step(i));
        Addr anchor = op.src1 ? op.src1 : op.dest;
        std::size_t anchor_rec = op.src1 ? plan.src1Record(i, 0)
                                         : plan.destRecord(i, 0);
        ResolvedRow anchor_row = resolveRow(level, anchor_rec, anchor);
        if (!anchor_row.line) {
            // Lost to an invalidation race between staging and issue
            // (Section IV-E's lock window): release and degrade.
            if (stats_)
                stagingRacesStat_->inc();
            return abandon();
        }
        op.cacheIndex = staged[anchor_rec].cacheIndex;
        op.partition = rowPartition(anchor_rec, anchor_row);

        // Locality: every row of the op must sit in the same cache
        // instance and block partition (the page-stride slice layout
        // guarantees it for a resident lane group). The search key and
        // a replicated clmul source are replicated, and a packed dest is
        // filled by the result shift register, so none of them
        // constrains bit-line locality.
        op.inPlace = !params_.forceNearPlace;
        std::size_t rec = i * plan.stepRows();
        plan.forEachStepRow(op, [&](Addr m, bool) {
            const std::size_t row_rec = rec++;
            ResolvedRow row = resolveRow(level, row_rec, m);
            if (!row.line) {
                // Same race as the anchor, but survivable: the near-
                // place path re-reads through the hierarchy.
                if (stats_)
                    stagingRacesStat_->inc();
                op.inPlace = false;
                return;
            }
            if (staged[row_rec].cacheIndex != op.cacheIndex ||
                rowPartition(row_rec, row) != op.partition)
                op.inPlace = false;
        });

        if (op.inPlace && plan.sharedSrc2) {
            // Replicate the key into this data block's partition once per
            // instruction (Section IV-D key table). The replication write
            // is what Table V's search row adds on top of cmp.
            std::vector<std::uint64_t> &held = scratchKeyPartitions_;
            if (std::find(held.begin(), held.end(), op.partitionKey()) ==
                held.end()) {
                held.push_back(op.partitionKey());
                op.keyWrite = true;
                ++res.keyReplications;
                if (stats_)
                    keyReplicationsStat_->inc();
            }
        }
    }

    // ------------------------------------------------------------------
    // Schedule: one command per cycle on the shared address bus;
    // same-partition ops serialize; the active-sub-array cap bounds
    // concurrency; near-place ops serialize on the controller's single
    // logic unit.
    // ------------------------------------------------------------------
    Cycles finish = sched_.horizon;
    auto &issue_clock = sched_.issueClock;
    auto &partition_free = sched_.partitionFree;
    auto &near_free = sched_.nearFree;
    auto &power_slots = sched_.powerSlots;
    const unsigned power_cap = params_.maxActiveSubarrays;

    const Cycles op_latency = inPlaceLatency(level);
    const Cycles interval = std::max<Cycles>(
        1, static_cast<Cycles>(kPartitionPipelineFactor *
                               static_cast<double>(op_latency)));

    std::uint64_t result_mask = 0;
    std::size_t result_bits = 0;

    // Key replication is an H-tree broadcast: the tree transfer is paid
    // once per instruction, each receiving partition pays only the
    // bit-array write component.
    bool key_htree_charged = false;

    for (BlockOp &op : ops) {
        issue_clock += 1;  // command delivery on the shared bus
        Cycles start = issue_clock / kCommandIssuePerCycle;
        Cycles end;

        // Execute functionally first: the fault ladder's retries,
        // degradations and refills lengthen this op's occupancy below.
        BlockOpOutcome outcome = performBlockOp(core, instr, plan, op,
                                                level);
        res.faultRetries += outcome.retries;
        if (outcome.degradedNearPlace)
            ++res.faultDegradedOps;
        if (outcome.riscRecovered)
            ++res.faultRiscRecoveries;

        if (op.inPlace) {
            // One probe serves both the read here and the store below;
            // no other PartitionClock access intervenes, so the
            // reference stays valid.
            Cycles &pfree = partition_free[op.partitionKey()];
            start = std::max(start, pfree);
            if (op.keyWrite) {
                // The key replication write occupies the partition before
                // the search op can activate. Energy: one H-tree
                // broadcast per instruction plus an array write per
                // receiving partition.
                start += op_latency;
                if (energy_) {
                    EnergyPJ write = energy::cacheOpEnergy(
                        level, energy::CacheOp::Write);
                    double ic = energy::htreeFraction(
                        level, energy::CacheOp::Write);
                    if (!key_htree_charged) {
                        energy_->addCacheIc(level, write * ic);
                        key_htree_charged = true;
                    }
                    energy_->addCacheAccess(level, write * (1.0 - ic));
                }
            }
            // The first bit-line step pays the full activation latency;
            // later steps pipeline at the partition interval behind it.
            Cycles busy = op_latency +
                static_cast<Cycles>(plan.bitlineSteps - 1) * interval +
                outcome.extraLatency;
            if (power_cap != 0 && power_slots.size() == power_cap) {
                // Every slot used: wait for the earliest-free one.
                std::pop_heap(power_slots.begin(), power_slots.end(),
                              std::greater<>{});
                start = std::max(start, power_slots.back());
                power_slots.pop_back();
            }
            end = start + busy;
            if (power_cap != 0) {
                // An unused slot is free at cycle 0, so only used slots
                // are kept.
                power_slots.push_back(end);
                std::push_heap(power_slots.begin(), power_slots.end(),
                               std::greater<>{});
            }
            // A carry latch holds live state, so its partition stays
            // busy for the whole sequence; otherwise the next op may
            // activate one initiation interval later.
            pfree = plan.holdsPartition
                ? end
                : start + interval + outcome.extraLatency;
            ++res.inPlaceOps;
        } else {
            if (op.cacheIndex >= near_free.size())
                near_free.resize(op.cacheIndex + 1, 0);
            start = std::max(start, near_free[op.cacheIndex]);
            end = start + nearPlaceLatency(level) +
                plan.nearPlaceCycles + outcome.extraLatency;
            near_free[op.cacheIndex] = end;
            ++res.nearPlaceOps;
        }
        finish = std::max(finish, end);

        std::uint64_t mask = outcome.mask;
        if (isCcR(instr.op)) {
            std::size_t bits =
                std::min<std::size_t>(kWordsPerBlock,
                                      instr.size / 8 - result_bits);
            result_mask |= (mask & ((bits == 64
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << bits) - 1)))
                << result_bits;
            result_bits += bits;
        }
    }

    sched_.horizon = std::max(sched_.horizon, finish);
    res.computeLatency = finish;
    res.latency += finish;
    res.result = result_mask;

    // Completion notification: the computing cache notifies the L1 CC
    // controller, which notifies the core (Figure 6 steps 6-7).
    if (level == CacheLevel::L3 && plan.steps > 0) {
        unsigned slice = ops.front().cacheIndex;
        Cycles notify = hier_.ring().send(
            slice, core % cache::Hierarchy::kCores, noc::MsgClass::Control);
        if (!sched_.streaming)
            res.latency += notify;
    }

    unpin_all();

    if (stats_) {
        blockOpsStat_->inc(res.blockOps);
        levelOpsStat_[static_cast<unsigned>(level)]->inc();
    }
    return res;
}

} // namespace ccache::cc
