/**
 * @file
 * Integration tests for the graceful-degradation ladder: ECC correction
 * in place, bounded retry on margin failures, degradation to the
 * near-place unit, discard-and-refill with RISC recompute, background
 * scrubbing, the rungs' trace events -- plus the two global guarantees:
 * fixed-seed determinism and zero cost/behavior change with injection
 * disabled.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"
#include "verify/coherence_checker.hh"

namespace ccache::cc {
namespace {

/** A self-contained simulation: hierarchy + energy + stats + controller. */
struct Sim
{
    explicit Sim(const CcControllerParams &params = CcControllerParams{})
        : hier(cache::HierarchyParams{}, &em, &stats),
          ctrl(hier, &em, &stats, params)
    {
    }

    std::vector<std::uint8_t>
    loadRandom(Addr addr, std::size_t len, std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<std::uint8_t> data(len);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.below(256));
        hier.memory().writeBytes(addr, data.data(), len);
        return data;
    }

    std::vector<std::uint8_t>
    dumpBytes(Addr addr, std::size_t len)
    {
        std::vector<std::uint8_t> out(len);
        for (std::size_t off = 0; off < len; off += kBlockSize) {
            Block b = hier.debugRead(addr + off);
            std::size_t n = std::min(kBlockSize, len - off);
            std::copy_n(b.begin(), n, out.begin() + off);
        }
        return out;
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
    CcController ctrl;
};

/** Reference AND of two byte vectors. */
std::vector<std::uint8_t>
refAnd(const std::vector<std::uint8_t> &a, const std::vector<std::uint8_t> &b)
{
    std::vector<std::uint8_t> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] & b[i];
    return out;
}

constexpr std::size_t kLen = 2048;  // 32 blocks

TEST(FaultLadderTest, DisabledInjectionLeavesCostsUntouched)
{
    // A controller with the fault subsystem present-but-disabled must
    // behave bit-identically to the default configuration: same
    // latency, same energy, same stats -- the "zero cost when off"
    // guarantee.
    CcControllerParams with_faults;
    with_faults.faults.seed = 999;     // ignored while disabled

    Sim def;
    Sim off(with_faults);

    for (Sim *s : {&def, &off}) {
        s->loadRandom(0x10000, kLen, 1);
        s->loadRandom(0x20000, kLen, 2);
    }
    auto ra = def.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));
    auto rb = off.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));

    EXPECT_EQ(ra.latency, rb.latency);
    EXPECT_EQ(ra.computeLatency, rb.computeLatency);
    EXPECT_EQ(rb.faultRetries, 0u);
    EXPECT_EQ(rb.faultDegradedOps, 0u);
    EXPECT_EQ(rb.faultRiscRecoveries, 0u);
    EXPECT_EQ(def.em.dynamic().dynamicTotal(),
              off.em.dynamic().dynamicTotal());
    EXPECT_EQ(off.stats.value("cc.fault.ecc_corrected"), 0u);
    EXPECT_EQ(off.stats.value("cc.fault.scrub_visits"), 0u);
    EXPECT_EQ(def.dumpBytes(0x30000, kLen), off.dumpBytes(0x30000, kLen));
}

TEST(FaultLadderTest, FixedSeedRunsAreIdentical)
{
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 1234;
    p.faults.transientPerBlockOp = 0.2;
    p.faults.doubleBitFraction = 0.3;
    p.faults.burstFraction = 0.05;
    p.faults.marginFailPerDualRowOp = 0.1;
    p.faults.stuckAtPerBlock = 0.02;
    p.faults.stuckAtDoubleFraction = 0.5;
    p.faults.backgroundUpsetPerInstr = 0.5;

    auto run = [&](Sim &sim) {
        sim.loadRandom(0x10000, kLen, 1);
        sim.loadRandom(0x20000, kLen, 2);
        CcExecResult agg;
        for (int i = 0; i < 4; ++i) {
            auto r = sim.ctrl.execute(
                0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000,
                                             kLen));
            agg.latency += r.latency;
            agg.faultRetries += r.faultRetries;
            agg.faultDegradedOps += r.faultDegradedOps;
            agg.faultRiscRecoveries += r.faultRiscRecoveries;
        }
        return agg;
    };

    Sim a(p);
    Sim b(p);
    auto res_a = run(a);
    auto res_b = run(b);

    EXPECT_EQ(res_a.latency, res_b.latency);
    EXPECT_EQ(res_a.faultRetries, res_b.faultRetries);
    EXPECT_EQ(res_a.faultDegradedOps, res_b.faultDegradedOps);
    EXPECT_EQ(res_a.faultRiscRecoveries, res_b.faultRiscRecoveries);
    EXPECT_EQ(a.em.dynamic().dynamicTotal(), b.em.dynamic().dynamicTotal());
    for (const char *name :
         {"cc.fault.ecc_corrected", "cc.fault.ecc_uncorrectable",
          "cc.fault.retries", "cc.fault.margin_failures",
          "cc.fault.silent_corruptions", "cc.fault.scrub_visits"}) {
        EXPECT_EQ(a.stats.value(name), b.stats.value(name))
            << name;
    }
    EXPECT_EQ(a.dumpBytes(0x30000, kLen), b.dumpBytes(0x30000, kLen));
}

TEST(FaultLadderTest, SingleBitUpsetsAreCorrectedWithoutDegradation)
{
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 5;
    p.faults.transientPerBlockOp = 0.6;
    p.faults.doubleBitFraction = 0.0;  // singles only: SECDED territory
    p.faults.burstFraction = 0.0;

    Sim sim(p);
    auto a = sim.loadRandom(0x10000, kLen, 1);
    auto b = sim.loadRandom(0x20000, kLen, 2);
    auto res = sim.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));

    EXPECT_FALSE(res.riscFallback);
    EXPECT_EQ(res.faultDegradedOps, 0u);
    EXPECT_EQ(res.faultRiscRecoveries, 0u);
    EXPECT_GT(sim.stats.value("cc.fault.ecc_corrected"), 0u);
    EXPECT_EQ(sim.stats.value("cc.fault.silent_corruptions"), 0u);
    // Every correction happened in place: the result is exact.
    EXPECT_EQ(sim.dumpBytes(0x30000, kLen), refAnd(a, b));
}

TEST(FaultLadderTest, DoubleBitUpsetsRetryAndStayCorrect)
{
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 6;
    p.faults.transientPerBlockOp = 0.5;
    p.faults.doubleBitFraction = 1.0;  // every upset is uncorrectable
    p.faults.burstFraction = 0.0;

    Sim sim(p);
    auto a = sim.loadRandom(0x10000, kLen, 1);
    auto b = sim.loadRandom(0x20000, kLen, 2);
    auto res = sim.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));

    // Detected-uncorrectable transients burn retries; a transient does
    // not persist, so re-sensing recovers and nothing silently corrupts.
    EXPECT_GT(res.faultRetries, 0u);
    EXPECT_GT(sim.stats.value("cc.fault.ecc_uncorrectable"), 0u);
    EXPECT_EQ(sim.stats.value("cc.fault.silent_corruptions"), 0u);
    EXPECT_EQ(sim.dumpBytes(0x30000, kLen), refAnd(a, b));
}

TEST(FaultLadderTest, MarginFailuresDegradeToNearPlace)
{
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 7;
    p.faults.marginFailPerDualRowOp = 1.0;  // every dual-row op fails

    Sim sim(p);
    auto a = sim.loadRandom(0x10000, kLen, 1);
    auto b = sim.loadRandom(0x20000, kLen, 2);

    CcControllerParams clean;
    Sim base(clean);
    base.loadRandom(0x10000, kLen, 1);
    base.loadRandom(0x20000, kLen, 2);

    auto res = sim.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));
    auto ref = base.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));

    // Retries cannot fix a full-rate margin pathology: every block op
    // exhausts its budget and lands on the near-place unit, whose
    // single-row full-margin reads succeed.
    EXPECT_EQ(res.faultDegradedOps, res.blockOps);
    EXPECT_EQ(res.faultRetries,
              res.blockOps * CcController::kMaxFaultRetries);
    EXPECT_EQ(res.faultRiscRecoveries, 0u);
    EXPECT_GT(res.latency, ref.latency);
    EXPECT_EQ(sim.stats.value("cc.fault.margin_failures"),
              res.blockOps * (CcController::kMaxFaultRetries + 1));
    EXPECT_EQ(sim.dumpBytes(0x30000, kLen), refAnd(a, b));

    // Copy activates one row at a time: margin failures never apply.
    auto copy_res = sim.ctrl.execute(
        0, CcInstruction::copy(0x10000, 0x50000, kLen));
    EXPECT_EQ(copy_res.faultDegradedOps, 0u);
    EXPECT_EQ(copy_res.faultRetries, 0u);
    EXPECT_EQ(sim.dumpBytes(0x50000, kLen), a);
}

TEST(FaultLadderTest, StuckCellsFallThroughToRiscAndRemap)
{
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 8;
    p.faults.stuckAtPerBlock = 1.0;        // every line sits on bad cells
    p.faults.stuckAtDoubleFraction = 1.0;  // ... with two stuck bits

    Sim sim(p);
    auto a = sim.loadRandom(0x10000, kLen, 1);
    auto b = sim.loadRandom(0x20000, kLen, 2);
    auto res = sim.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));

    // A two-bit defect survives retries AND the near-place re-read: the
    // only way out is the final rung -- discard, refill, recompute.
    EXPECT_EQ(res.faultRiscRecoveries, res.blockOps);
    EXPECT_EQ(res.faultDegradedOps, res.blockOps);
    EXPECT_EQ(sim.stats.value("cc.fault.risc_recoveries"),
              res.blockOps);
    EXPECT_EQ(sim.stats.value("cc.fault.silent_corruptions"), 0u);
    EXPECT_EQ(sim.dumpBytes(0x30000, kLen), refAnd(a, b));

    // The refill remapped the lines to healthy cells: a second pass
    // runs entirely on the fast path.
    auto again = sim.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));
    EXPECT_EQ(again.faultRiscRecoveries, 0u);
    EXPECT_EQ(again.faultDegradedOps, 0u);
    EXPECT_EQ(sim.dumpBytes(0x30000, kLen), refAnd(a, b));
}

TEST(FaultLadderTest, RungsLandOnTheTraceTimeline)
{
    // Two stuck bits per line drive every op down the whole ladder.
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 8;
    p.faults.stuckAtPerBlock = 1.0;
    p.faults.stuckAtDoubleFraction = 1.0;

    Sim sim(p);
    EventTrace trace;
    trace.enable();
    sim.ctrl.setTraceSink(&trace);
    sim.loadRandom(0x10000, kLen, 1);
    sim.loadRandom(0x20000, kLen, 2);
    auto res = sim.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));

    std::map<std::string, std::uint64_t> rungs;
    std::size_t instrs = 0;
    const Json doc = trace.toJson();
    for (const Json &e : doc.find("traceEvents")->asArray()) {
        const Json *cat = e.find("cat");
        if (cat && cat->asString() == tracecat::kFault)
            ++rungs[e.find("name")->asString()];
        else if (cat && cat->asString() == tracecat::kCc)
            ++instrs;
    }
    // The instruction, and one event per rung the stats count.
    EXPECT_EQ(instrs, 1u);
    EXPECT_GT(res.faultRiscRecoveries, 0u);
    EXPECT_EQ(rungs["fault.ecc_uncorrectable"],
              sim.stats.value("cc.fault.ecc_uncorrectable"));
    EXPECT_EQ(rungs["fault.retry"], sim.stats.value("cc.fault.retries"));
    EXPECT_EQ(rungs["fault.degrade_near_place"], res.faultDegradedOps);
    EXPECT_EQ(rungs["fault.risc_recovery"], res.faultRiscRecoveries);
}

TEST(FaultLadderTest, BurstsAliasIntoSilentCorruption)
{
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 9;
    p.faults.transientPerBlockOp = 0.5;
    p.faults.doubleBitFraction = 0.0;
    p.faults.burstFraction = 1.0;  // every upset is a 3-bit burst

    Sim sim(p);
    sim.loadRandom(0x10000, kLen, 1);
    sim.loadRandom(0x20000, kLen, 2);
    sim.ctrl.execute(
        0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, kLen));

    // Odd-count bursts alias to single-bit syndromes: SECDED
    // "corrects" them into still-wrong data. This is the paper's
    // beyond-ECC exposure, and the ladder must at least account for it.
    EXPECT_GT(sim.stats.value("cc.fault.silent_corruptions"), 0u);
}

TEST(FaultLadderTest, ScrubberFindsLatentUpsets)
{
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 10;
    p.faults.backgroundUpsetPerInstr = 1.0;

    Sim sim(p);
    sim.loadRandom(0x10000, kLen, 1);
    sim.loadRandom(0x20000, kLen, 2);
    constexpr unsigned kInstrs = 32;
    for (unsigned i = 0; i < kInstrs; ++i) {
        sim.ctrl.execute(
            0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000,
                                         kLen));
    }

    // The scrubber stops at most kScrubBlocksPerInstr blocks before each
    // instruction, and its time is its own budget: kScrubCheckLatency
    // per visited block.
    std::uint64_t visits = sim.stats.value("cc.fault.scrub_visits");
    EXPECT_GT(visits, 0u);
    EXPECT_LE(visits, kInstrs * CcController::kScrubBlocksPerInstr);
    EXPECT_DOUBLE_EQ(sim.stats.accumValue("cc.fault.scrub_cycles"),
                     static_cast<double>(visits) *
                         static_cast<double>(
                             CcController::kScrubCheckLatency));
    EXPECT_GT(sim.ctrl.faultInjector().backgroundUpsets(), 0u);
    // Latent errors were found and resolved by the scrubber or by the
    // access path's ECC check; they must not pile up unboundedly.
    std::uint64_t resolved =
        sim.stats.value("cc.fault.scrub_corrections") +
        sim.stats.value("cc.fault.scrub_refills") +
        sim.stats.value("cc.fault.ecc_corrected") +
        sim.stats.value("cc.fault.ecc_uncorrectable");
    EXPECT_GT(resolved, 0u);
    EXPECT_LT(sim.ctrl.faultInjector().latentCount(),
              sim.ctrl.faultInjector().backgroundUpsets());
}

TEST(FaultLadderTest, CoherenceCheckerGreenThroughEveryRung)
{
    // Every rung of the degradation ladder — ECC in-place correction,
    // retry, near-place fallback, RISC refill+remap, background scrub —
    // must leave the MESI state machine sound. The RISC rung is the
    // interesting one: it discards and refills lines mid-instruction,
    // which is exactly where a stale directory entry would slip in.
    struct Rung
    {
        const char *name;
        std::function<void(CcControllerParams &)> configure;
    };
    const Rung rungs[] = {
        {"ecc_correct",
         [](CcControllerParams &p) {
             p.faults.transientPerBlockOp = 0.6;
             p.faults.doubleBitFraction = 0.0;
             p.faults.burstFraction = 0.0;
         }},
        {"retry",
         [](CcControllerParams &p) {
             p.faults.transientPerBlockOp = 0.5;
             p.faults.doubleBitFraction = 1.0;
             p.faults.burstFraction = 0.0;
         }},
        {"near_place",
         [](CcControllerParams &p) {
             p.faults.marginFailPerDualRowOp = 1.0;
         }},
        {"risc_refill_remap",
         [](CcControllerParams &p) {
             p.faults.stuckAtPerBlock = 1.0;
             p.faults.stuckAtDoubleFraction = 1.0;
         }},
        {"scrub",
         [](CcControllerParams &p) {
             p.faults.backgroundUpsetPerInstr = 1.0;
         }},
    };

    for (const Rung &rung : rungs) {
        CcControllerParams p;
        p.faults.enabled = true;
        p.faults.seed = 21;
        rung.configure(p);

        Sim sim(p);
        verify::CoherenceCheckerParams cp;
        cp.auditInterval = 1;
        verify::CoherenceChecker checker(sim.hier, cp);
        sim.hier.setChecker(&checker);
        sim.ctrl.setChecker(&checker);

        auto a = sim.loadRandom(0x10000, kLen, 1);
        auto b = sim.loadRandom(0x20000, kLen, 2);
        for (int i = 0; i < 3; ++i) {
            EXPECT_NO_THROW(sim.ctrl.execute(
                0, CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000,
                                             kLen)))
                << rung.name;
        }
        EXPECT_NO_THROW(sim.ctrl.execute(
            0, CcInstruction::copy(0x10000, 0x50000, kLen)))
            << rung.name;

        EXPECT_EQ(sim.dumpBytes(0x30000, kLen), refAnd(a, b))
            << rung.name;
        EXPECT_TRUE(checker.auditAll().empty()) << rung.name;
        EXPECT_GT(checker.checksRun(), 0u) << rung.name;
        EXPECT_NO_THROW(sim.hier.flushAll()) << rung.name;
    }
}

TEST(FaultLadderTest, CcRMaskSurvivesCorrectableFaults)
{
    CcControllerParams p;
    p.faults.enabled = true;
    p.faults.seed = 11;
    p.faults.transientPerBlockOp = 0.4;
    p.faults.doubleBitFraction = 0.0;
    p.faults.burstFraction = 0.0;

    constexpr std::size_t kCmpLen = 512;  // cmp result caps at 64 words
    Sim sim(p);
    auto data = sim.loadRandom(0x10000, kCmpLen, 1);
    sim.hier.memory().writeBytes(0x20000, data.data(), kCmpLen);  // equal
    auto res = sim.ctrl.execute(
        0, CcInstruction::cmp(0x10000, 0x20000, kCmpLen));

    // Correctable upsets must not leak into the comparison verdict.
    std::size_t words = kCmpLen / 8;
    std::uint64_t expect_mask = words >= 64
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << words) - 1;
    EXPECT_EQ(res.result, expect_mask);
    EXPECT_EQ(sim.stats.value("cc.fault.silent_corruptions"), 0u);
}

} // namespace
} // namespace ccache::cc
