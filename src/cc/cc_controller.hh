/**
 * @file
 * Compute Cache controller (Sections IV-D, IV-E).
 *
 * The controller turns a CC instruction into per-cache-block simple
 * vector operations, chooses the cache level (highest level holding all
 * operands, else L3), stages and pins operands, checks operand locality,
 * executes in-place (bit-line) or near-place (controller logic unit),
 * schedules the operations across block partitions under the shared
 * address-bus and peak-power constraints, and returns the completion
 * latency plus the cmp/search result mask.
 *
 * Every instruction, Table II or bit-serial, runs through one pipeline
 * driven by an OpPlan (DESIGN.md §6, "Block-op pipeline"). Functional
 * results are computed with BlockCompute and BitSerialCompute, whose
 * equivalence to the circuit-level sram::SubArray model is established
 * by the test suite; the controller can optionally re-verify every
 * in-place op against a live sub-array (verifyCircuit mode).
 */

#ifndef CCACHE_CC_CC_CONTROLLER_HH
#define CCACHE_CC_CC_CONTROLLER_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "cc/ecc.hh"
#include "common/event_trace.hh"
#include "cc/isa.hh"
#include "cc/near_place_unit.hh"
#include "fault/fault_injector.hh"
#include "sram/subarray.hh"

namespace ccache::cc {

/** Latency of one in-place block operation at @p level (Section IV-J:
 *  14 cycles vs 22 near-place, for the large L3 sub-arrays; the smaller
 *  L1/L2 arrays activate and sense faster). */
constexpr Cycles
inPlaceLatency(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1: return 4;
      case CacheLevel::L2: return 8;
      case CacheLevel::L3: return 14;
    }
    return 14;
}

/** Controller configuration. */
struct CcControllerParams
{
    /** Peak-power cap: sub-arrays allowed to compute simultaneously
     *  (Section IV-D limits concurrency to bound peak power). 0 = no cap. */
    unsigned maxActiveSubarrays = 128;

    /** Force every op to a fixed level (benchmark configurations
     *  CC_L1 / CC_L2 / CC_L3). */
    std::optional<CacheLevel> forceLevel;

    /** Force the near-place path (the Figure 8a configuration). */
    bool forceNearPlace = false;

    /** Re-execute every in-place op on a circuit-level sub-array and
     *  compare (slow; integration tests enable it). */
    bool verifyCircuit = false;

    /**
     * Fault injection and the graceful-degradation ladder. With
     * faults.enabled every sensed operand passes through the injector
     * and the ECC check unit; detected failures climb the recovery
     * ladder: in-place retry -> near-place unit (single-row, full
     * margin) -> discard-and-refill plus RISC recompute. Disabled (the
     * default), none of the fault code runs and all outputs are
     * bit-identical to a fault-free build.
     */
    fault::FaultParams faults;
};

/** Outcome of executing one CC instruction. */
struct CcExecResult
{
    Cycles latency = 0;             ///< fetch + compute + notification

    /** Portion of the latency spent staging operands (cold misses). */
    Cycles fetchLatency = 0;

    /** Portion spent computing in / near the cache sub-arrays. */
    Cycles computeLatency = 0;
    std::uint64_t result = 0;       ///< cmp/search mask (word-granular)
    CacheLevel level = CacheLevel::L3;
    std::size_t blockOps = 0;
    std::size_t inPlaceOps = 0;
    std::size_t nearPlaceOps = 0;
    std::size_t keyReplications = 0;
    std::size_t pageSplits = 0;
    std::size_t lockRetries = 0;
    bool riscFallback = false;

    /** Fault-ladder activity (all zero with injection disabled). @{ */
    std::size_t faultRetries = 0;        ///< re-sense attempts
    std::size_t faultDegradedOps = 0;    ///< degraded to near-place
    std::size_t faultRiscRecoveries = 0; ///< discard+refill+RISC blocks
    /** @} */
};

/** The controller. One instance serves the whole hierarchy (it models
 *  the cooperating per-cache CC controllers of Figure 1). */
class CcController
{
  public:
    /** Back-to-back in-place ops in one partition overlap precharge with
     *  the previous op's write-back: the initiation interval is this
     *  fraction of the op latency. */
    static constexpr double kPartitionPipelineFactor = 0.5;

    /** Commands deliverable per cycle on the shared address H-tree. */
    static constexpr unsigned kCommandIssuePerCycle = 1;

    // The schedule divides by the command rate and scales the op
    // latency into Cycles.
    static_assert(kCommandIssuePerCycle >= 1,
                  "the command bus must deliver a command per cycle");
    static_assert(kPartitionPipelineFactor > 0.0 &&
                      kPartitionPipelineFactor <= 1.0,
                  "partition pipeline factor must be in (0, 1]");

    /** Operand-lock retry budget before RISC fallback (Section IV-E). */
    static constexpr unsigned kMaxLockRetries = 2;

    /** Pipeline-exception penalty for page-spanning operands. */
    static constexpr Cycles kPageSplitPenalty = 30;

    /** Core -> L1 CC controller dispatch cost per instruction. */
    static constexpr Cycles kIssueLatency = 4;

    /** Memory-level parallelism of the operand fetch engine. */
    static constexpr unsigned kFetchMlp = 8;

    /** Fault-ladder timing (CcControllerParams::faults). @{ */
    /** ECC logic-unit check latency per 64-byte block (Section IV-I
     *  alternative 1: the xor-identity check unit). */
    static constexpr Cycles kEccCheckLatency = 3;

    /** Re-sense attempts before degrading to the near-place unit. */
    static constexpr unsigned kMaxFaultRetries = 2;

    /** Background scrubber stops per instruction. Scrubbing steals idle
     *  cycles (Section IV-I alternative 2), so its cycles are tracked
     *  as a stat, not instruction latency. */
    static constexpr unsigned kScrubBlocksPerInstr = 4;

    /** Cycles to scrub one block (read + ECC check). */
    static constexpr Cycles kScrubCheckLatency = 4;

    /** Latency of discarding an uncorrectable line and refilling clean
     *  data from memory (the final rung's recovery cost). */
    static constexpr Cycles kFaultRefillLatency = 240;
    /** @} */

    CcController(cache::Hierarchy &hier, energy::EnergyModel *energy,
                 StatRegistry *stats,
                 const CcControllerParams &params = CcControllerParams{});

    const CcControllerParams &params() const { return params_; }
    CcControllerParams &mutableParams() { return params_; }

    /** Attach (or detach with nullptr) a timeline event sink. Completed
     *  instructions and fault-ladder rungs are recorded when the sink is
     *  enabled; a disabled or absent sink costs one branch per hook. */
    void setTraceSink(EventTrace *trace) { trace_ = trace; }

    /**
     * Runtime verification hooks (DESIGN.md §9). The controller pokes
     * cache arrays directly (bypassing Hierarchy's transaction hooks),
     * so it re-audits every operand block after each instruction; the
     * watchdog bounds the operand-lock and fault-retry ladders. Both
     * detach with nullptr and cost one branch when absent. @{
     */
    void setChecker(verify::CoherenceChecker *checker)
    {
        checker_ = checker;
    }
    void setWatchdog(verify::ProgressWatchdog *watchdog)
    {
        watchdog_ = watchdog;
    }
    /** @} */

    /** Execute one CC instruction issued by @p core to its L1 CC
     *  controller; blocks until completion (atomic-transaction model). */
    CcExecResult execute(CoreId core, const CcInstruction &instr);

    /**
     * Execute a stream of INDEPENDENT CC instructions with instruction-
     * level overlap: successive instructions share one schedule (command
     * bus, power slots and partition clocks) instead of serializing
     * end-to-end (how DB-BitMap issues its many independent cc_or
     * operations, Section VI-E, and how consecutive 512-byte
     * cc_cmp/cc_search chunks pipeline).
     *
     * The caller must guarantee independence (no RAW/WAW overlap between
     * the instructions); each returned entry carries its own result mask.
     * @p total_latency receives the overlapped makespan of the stream.
     */
    std::vector<CcExecResult> executeStream(
        CoreId core, const std::vector<CcInstruction> &instrs,
        Cycles *total_latency);

    /** The fault injector, exposed for inspection in tests. */
    const fault::FaultInjector &faultInjector() const { return faults_; }

    /** Mutable injector access for runtime fault-rate scheduling (the
     *  chaos harness raises and clears per-shard fault storms through
     *  FaultInjector::setParams; see DESIGN.md §12). */
    fault::FaultInjector &mutableFaultInjector() { return faults_; }

  private:
    /** One simple vector operation, decomposed and placed. */
    struct BlockOp
    {
        Addr src1 = 0;   ///< row 0 of each operand; 0 when unused
        Addr src2 = 0;   ///< the shared block for search / replicated
        Addr dest = 0;   ///< 0 for CC-R; the packed block if replicated
        std::size_t index = 0;

        bool inPlace = false;
        bool keyWrite = false;          ///< search key replication first
        unsigned cacheIndex = 0;        ///< slice (L3) or core (L1/L2)
        std::size_t partition = 0;      ///< global partition in that cache

        /** (cache index, partition) packed into one key. */
        std::uint64_t
        partitionKey() const
        {
            return (static_cast<std::uint64_t>(cacheIndex) << 32) |
                (static_cast<std::uint64_t>(partition) & 0xffffffffULL);
        }
    };

    /**
     * One instruction as a sequence of block ops, and the only owner of
     * the operand layout (DESIGN.md §6, "Block-op pipeline"). A Table II
     * op is one row per operand and one bit-line step per 64-byte block;
     * a bit-serial lane group is laneBits slice rows per source,
     * kSliceStride apart, sequenced BitSerialCompute::steps times
     * through the carry latch. Every stage after the plan -- level
     * choice, staging, locality, the fault ladder, the schedule, the
     * RISC fallback and the circuit check -- walks its rows.
     */
    struct OpPlan
    {
        explicit OpPlan(const CcInstruction &instr);

        Addr src1 = 0;
        Addr src2 = 0;
        Addr dest = 0;
        std::size_t steps = 0;         ///< block ops: blocks / lane groups
        std::size_t srcRows = 1;       ///< rows per source and block op
        std::size_t dstRows = 0;       ///< dest rows (0: CC-R, packed)
        std::size_t bitlineSteps = 1;  ///< activations per in-place op
        /** The carry latch holds live state: the partition stays busy
         *  until the op ends, and a degraded op leaves it wholesale. */
        bool holdsPartition = false;
        bool sharedSrc2 = false;       ///< src2 is one block every op reads
        bool destOverwritten = true;   ///< dest staged without a fetch
        /** Replicated clmul: parity ops per packed dest block and the
         *  number of packed blocks (both 0 otherwise). @{ */
        std::size_t opsPerDestBlock = 0;
        std::size_t packedDestBlocks = 0;
        /** @} */
        Cycles nearPlaceCycles = 0;    ///< word-serial unit cycles per op
        /** RISC translation per op: scalar instructions, ALU cycles not
         *  hidden under the misses, and the block ops reported. @{ */
        std::uint64_t riscInstrs = 0;
        Cycles riscCycles = 0;
        std::size_t riscBlocks = 1;
        /** @} */

        /** Operands of block op @p i (row 0 of each; 0 when unused). */
        BlockOp step(std::size_t i) const;

        /** Source rows forEachStepRow visits per k: src1's, then src2's
         *  unless it is the shared block. */
        std::size_t
        srcPerRow() const
        {
            return (src1 != 0) + (src2 != 0 && !sharedSrc2);
        }

        /** Rows forEachStepRow visits per block op. */
        std::size_t
        stepRows() const
        {
            return srcRows * srcPerRow() + dstRows;
        }

        /** Position in forEachRow order, the order staging records its
         *  rows in, of row @p k of block op @p i's src1, src2 (the
         *  shared block when sharedSrc2) or dest (the packed block when
         *  packed). @{ */
        std::size_t
        src1Record(std::size_t i, std::size_t k) const
        {
            return i * stepRows() + k * srcPerRow();
        }
        std::size_t
        src2Record(std::size_t i, std::size_t k) const
        {
            return sharedSrc2 ? steps * stepRows()
                              : src1Record(i, k) + (src1 != 0);
        }
        std::size_t
        destRecord(std::size_t i, std::size_t k) const
        {
            return opsPerDestBlock
                ? steps * stepRows() + sharedSrc2 + i / opsPerDestBlock
                : i * stepRows() + srcRows * srcPerRow() + k;
        }
        /** @} */

        /** Row @p k of the operand rooted at @p base (0 stays 0). */
        static Addr
        row(Addr base, std::size_t k)
        {
            return base ? CcInstruction::sliceAddr(base, k) : 0;
        }

        /** Call fn(addr, is_dest) on each row of @p op that locality
         *  constrains, in staging order: row by row src1 then src2,
         *  then the dest rows. */
        template <typename Fn>
        void
        forEachStepRow(const BlockOp &op, Fn &&fn) const
        {
            for (std::size_t k = 0; k < srcRows; ++k) {
                if (op.src1)
                    fn(row(op.src1, k), false);
                if (op.src2 && !sharedSrc2)
                    fn(row(op.src2, k), false);
            }
            for (std::size_t k = 0; k < dstRows; ++k)
                fn(row(op.dest, k), true);
        }

        /** Call fn(addr, is_dest) on every row the instruction stages:
         *  each op's rows, then the shared src2 block, then the packed
         *  dest blocks. */
        template <typename Fn>
        void
        forEachRow(Fn &&fn) const
        {
            for (std::size_t i = 0; i < steps; ++i)
                forEachStepRow(step(i), fn);
            if (sharedSrc2)
                fn(src2, false);
            for (std::size_t j = 0; j < packedDestBlocks; ++j)
                fn(dest + j * kBlockSize, true);
        }
    };

    /** The pre-instrumentation body of execute(): dispatch, page-split
     *  handling and the fault-model inter-instruction ticks. */
    CcExecResult executeInstr(CoreId core, const CcInstruction &instr);

    /**
     * The pipeline every CC instruction runs through: level choice,
     * stage and pin, placement, locality and key replication, then per
     * block op the fault ladder and the schedule
     * (command bus, partition clock, power slots, near-place unit),
     * then result-mask merge, notify, unpin and stats.
     */
    CcExecResult executeBlockOps(CoreId core, const CcInstruction &instr);

    /** Stage + pin one operand and append its StagedRow; returns
     *  latency or nullopt if the line could not be pinned (all ways
     *  pinned by other ops). */
    std::optional<Cycles> stageOperand(CoreId core, Addr addr,
                                       CacheLevel level, bool exclusive,
                                       bool for_overwrite);

    /**
     * One staged row, kept in OpPlan::forEachRow order: the slot
     * fetchToLevel staged it in, the cache instance holding it
     * (StageResult::cacheIndex) and the slot's block partition. The
     * row's address is not stored: every user walks the plan in the
     * same order. 12 bytes.
     */
    struct StagedRow
    {
        std::uint32_t set;
        std::uint16_t way;
        std::uint16_t cacheIndex;
        std::uint32_t partition;   ///< BlockPlace::globalPartition
    };

    /** A staged row's cache and line: the recorded slot if it still
     *  holds the row (valid bit and tag), else an address lookup in
     *  the same cache; no line if the row was lost since staging. */
    struct ResolvedRow
    {
        cache::Cache &cache;
        cache::LineRef line;
    };

    /** Resolve staging record @p rec, whose row is @p addr. Inline:
     *  every staged row is resolved three times (locality, the block
     *  op, the unpin). */
    ResolvedRow
    resolveRow(CacheLevel level, std::size_t rec, Addr addr)
    {
        const StagedRow &r = scratchStaged_[rec];
        cache::Cache &cache = hier_.cacheInstance(level, r.cacheIndex);
        return {cache, cache.find(addr, cache::LineRef(r.set, r.way))};
    }

    /** Block partition of @p row, resolved from record @p rec: the
     *  recorded one, unless the row moved since staging. */
    std::size_t rowPartition(std::size_t rec, const ResolvedRow &row) const;

    /** Outcome of one block op, including fault-ladder effects. */
    struct BlockOpOutcome
    {
        std::uint64_t mask = 0;        ///< cmp/search word-equality bits
        Cycles extraLatency = 0;       ///< retries, ECC checks, refills
        unsigned retries = 0;
        bool degradedNearPlace = false;
        bool riscRecovered = false;
    };

    /** Execute one block op functionally + charge its energy. Degrading
     *  a carry-latch op moves it off its partition (clears
     *  @p op.inPlace). */
    BlockOpOutcome performBlockOp(CoreId core, const CcInstruction &instr,
                                  const OpPlan &plan, BlockOp &op,
                                  CacheLevel level);

    /**
     * Fault-ladder rung 0/1: sense source row @p row of both operands
     * through the injector and the ECC check unit, retrying margin
     * failures and detected-uncorrectable errors up to kMaxFaultRetries
     * times. On success the (possibly corrected, possibly silently
     * corrupted) sensed data is left in @p a / @p b. Returns false when
     * every attempt failed and the caller must degrade to the next rung.
     */
    bool senseOperands(const BlockOp &op, std::size_t row, CacheLevel level,
                       bool dual_row, Cycles retry_latency,
                       energy::CacheOp retry_op, Block *a, Block *b,
                       BlockOpOutcome *out);

    /** One operand through the fault model + ECC check unit. Returns
     *  false on a detected-uncorrectable error. */
    bool checkOperand(Block *sensed, const Block &truth, Addr addr,
                      std::uint64_t subarray_id, CacheLevel level,
                      BlockOpOutcome *out);

    /** Background scrubber: visit a few resident blocks, correct or
     *  discard latent errors (idle-cycle model, Section IV-I alt 2). */
    void scrubTick();

    /** Record a fault-ladder rung on the trace timeline (no-op when
     *  tracing is off). Fault hooks run below the per-core context, so
     *  these land on the global "system" track. */
    void traceFault(const char *name, Addr addr, CacheLevel level);

    /** Optionally verify an in-place op against the circuit model: the
     *  source rows @p a / @p b run through the sub-array, which must
     *  reproduce the result rows @p d. */
    void verifyAgainstCircuit(const CcInstruction &instr, const OpPlan &plan,
                              const std::vector<Block> &a,
                              const std::vector<Block> &b,
                              const std::vector<Block> &d);

    /** Fallback: run the instruction as RISC loads, ALU ops and stores
     *  over the plan's rows. */
    CcExecResult riscFallback(CoreId core, const CcInstruction &instr,
                              const OpPlan &plan);

    cache::Hierarchy &hier_;
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
    EventTrace *trace_ = nullptr;
    verify::CoherenceChecker *checker_ = nullptr;
    verify::ProgressWatchdog *watchdog_ = nullptr;
    CcControllerParams params_;

    /**
     * Flat open-addressed map from a packed (cache index, partition)
     * key to that partition's next-free cycle. The schedule loop hits
     * this once per in-place block op, which made the former
     * `std::map<std::pair<...>, Cycles>` the single hottest scheduler
     * structure (DESIGN.md §13); linear probing over a power-of-two
     * table keeps the lookup allocation-free, and clear() is O(1) via
     * an epoch stamp instead of touching every slot. Fully
     * deterministic: probe order depends only on the keys inserted.
     */
    struct PartitionClock
    {
        struct Slot
        {
            std::uint64_t key = 0;
            Cycles value = 0;
            std::uint32_t epoch = 0;   ///< live iff equal to map epoch
        };

        /** Find-or-insert; a fresh entry reads as 0 (partition free at
         *  cycle 0). The reference stays valid until the next call. */
        Cycles &operator[](std::uint64_t key);

        /** Forget every entry (O(1): bumps the epoch). */
        void clear();

        std::vector<Slot> slots;
        std::uint32_t epoch = 1;
        std::size_t live = 0;

      private:
        void grow();
    };

    /** Shared scheduling state for one instruction or one stream. */
    struct ScheduleState
    {
        bool streaming = false;
        Cycles issueClock = 0;
        Cycles horizon = 0;
        PartitionClock partitionFree;
        /** Next-free cycle of each controller's near-place logic unit,
         *  indexed by cache index (flat: at most one per core/slice). */
        std::vector<Cycles> nearFree;
        /** Free-at cycles of the active-sub-array power slots used
         *  since the last reset, as a binary min-heap. An unused slot
         *  is free at cycle 0, so while fewer than the cap are used an
         *  op takes a fresh slot; after that it takes the earliest-free
         *  one. Which slot is never observable, only when it frees. */
        std::vector<Cycles> powerSlots;
        std::vector<Cycles> fetchLats;

        void reset();
    };

    NearPlaceUnit nearPlace_;
    fault::FaultInjector faults_;
    ScheduleState sched_;

    /** Stats pre-registered in the constructor under "cc." so the
     *  per-block-op paths increment through stable pointers instead of
     *  resolving dotted names in every iteration (same pattern as Cache
     *  and Hierarchy; StatRegistry storage is pointer-stable). All null
     *  without a registry. @{ */
    StatHistogram *instrLatencyHist_ = nullptr;
    StatAccum *faultScrubCyclesAccum_ = nullptr;
    StatCounter *instructionsStat_ = nullptr;
    StatCounter *pageSplitExceptionsStat_ = nullptr;
    StatCounter *lockRetriesStat_ = nullptr;
    StatCounter *operandRefetchesStat_ = nullptr;
    StatCounter *inPlaceOpsStat_ = nullptr;
    StatCounter *nearPlaceOpsStat_ = nullptr;
    StatCounter *blockOpsStat_ = nullptr;
    StatCounter *circuitVerificationsStat_ = nullptr;
    StatCounter *riscFallbacksStat_ = nullptr;
    StatCounter *stagingRacesStat_ = nullptr;
    StatCounter *keyReplicationsStat_ = nullptr;
    StatCounter *faultRiscRecoveriesStat_ = nullptr;
    StatCounter *faultDegradedNearPlaceStat_ = nullptr;
    StatCounter *faultRetriesStat_ = nullptr;
    StatCounter *faultMarginFailuresStat_ = nullptr;
    StatCounter *faultEccUncorrectableStat_ = nullptr;
    StatCounter *faultEccCorrectedStat_ = nullptr;
    StatCounter *faultSilentCorruptionsStat_ = nullptr;
    StatCounter *faultScrubVisitsStat_ = nullptr;
    StatCounter *faultScrubRefillsStat_ = nullptr;
    StatCounter *faultScrubCorrectionsStat_ = nullptr;
    /** Per-level op counters ("cc.level_L1" .. "cc.level_L3"), indexed
     *  by the CacheLevel enum value (slot 0 unused). */
    std::array<StatCounter *, 4> levelOpsStat_{};
    /** @} */

    /** Per-instruction scratch buffers, pool-allocated once and reused
     *  across executeBlockOps() calls so the block-op hot path performs
     *  no heap allocation in steady state (DESIGN.md §13 arena rules:
     *  contents are dead outside one executeBlockOps activation). @{ */
    std::vector<Addr> scratchBlocks_;
    std::vector<StagedRow> scratchStaged_;
    std::vector<Cycles> scratchFetchLats_;
    std::vector<BlockOp> scratchOps_;
    /** Partitions (BlockOp::partitionKey) that already hold the search
     *  key (Section IV-D's key table): each is replicated into once. */
    std::vector<std::uint64_t> scratchKeyPartitions_;
    /** Sensed source rows and result rows of one block op. */
    std::vector<Block> scratchA_;
    std::vector<Block> scratchB_;
    std::vector<Block> scratchD_;
    /** @} */

    /** Scratch sub-array for verifyCircuit mode. */
    std::unique_ptr<sram::SubArray> circuit_;
};

} // namespace ccache::cc

#endif // CCACHE_CC_CC_CONTROLLER_HH
