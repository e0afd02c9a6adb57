/**
 * @file
 * CoherenceChecker tests: clean traffic (including CC ops and flushes)
 * must audit green, and seeded protocol mutations — a forged second
 * writable copy, M+S coexistence, a desynced directory sharer bit, an
 * inclusion break — must each be detected and raised as SimError with
 * a structured diagnostic.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/system.hh"
#include "verify/coherence_checker.hh"

namespace ccache::verify {
namespace {

/** Hierarchy + checker, auditing every transaction. */
struct Probe
{
    Probe() : hier(cache::HierarchyParams{}, &em, &stats)
    {
        CoherenceCheckerParams p;
        p.auditInterval = 1;
        checker = std::make_unique<CoherenceChecker>(hier, p);
        hier.setChecker(checker.get());
    }

    bool
    has(const std::vector<CoherenceViolation> &v, const char *invariant)
    {
        for (const auto &one : v)
            if (one.invariant == invariant)
                return true;
        return false;
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
    std::unique_ptr<CoherenceChecker> checker;
};

constexpr Addr kA = 0x10000;
constexpr Addr kB = 0x20000;

TEST(CoherenceChecker, CleanSharingTrafficAuditsGreen)
{
    Probe p;
    Block data{};
    // Write/read sharing churn across all cores: M -> S downgrades,
    // invalidations on upgrade, evictions. Every transaction is audited
    // through the hierarchy hook (auditInterval = 1) and must not throw.
    for (unsigned round = 0; round < 4; ++round) {
        for (CoreId c = 0; c < cache::Hierarchy::kCores; ++c) {
            p.hier.write(c, kA + 64 * round, &data);
            p.hier.read((c + 1) % cache::Hierarchy::kCores, kA + 64 * round);
            p.hier.read((c + 3) % cache::Hierarchy::kCores, kB + 64 * c);
        }
    }
    EXPECT_TRUE(p.checker->auditAll().empty());
    EXPECT_GT(p.checker->checksRun(), 0u);
    EXPECT_GT(p.checker->fullAudits(), 0u);
    EXPECT_NO_THROW(p.checker->checkNow());
}

TEST(CoherenceChecker, ForgedSecondWritableCopyDetected)
{
    Probe p;
    Block data{};
    p.hier.write(0, kA, &data);   // core 0 legitimately owns kA (M)

    // Mutation: forge a second Modified copy on core 1, bypassing the
    // coherence protocol entirely.
    p.hier.l2(1).fill(kA, data, cache::Mesi::Modified);
    p.hier.l1(1).fill(kA, data, cache::Mesi::Modified);

    auto v = p.checker->auditAddr(kA);
    EXPECT_TRUE(p.has(v, "swmr")) << "two writable cores must violate SWMR";
    EXPECT_THROW(p.checker->onTransaction(kA), SimError);
}

TEST(CoherenceChecker, WritableSharedCoexistenceDetected)
{
    Probe p;
    Block data{};
    p.hier.write(0, kA, &data);

    // Mutation: a stale Shared copy appears while core 0 still holds M
    // — as if an invalidation was dropped on the floor.
    p.hier.l2(1).fill(kA, data, cache::Mesi::Shared);

    auto v = p.checker->auditAddr(kA);
    EXPECT_TRUE(p.has(v, "swmr.m_plus_s"));
    EXPECT_THROW(p.checker->onTransaction(kA), SimError);
}

TEST(CoherenceChecker, DirectorySharerDesyncDetected)
{
    Probe p;
    p.hier.read(0, kA);   // core 0 holds a Shared/Exclusive copy
    auto home = p.hier.homeSliceIfMapped(kA);
    ASSERT_TRUE(home.has_value());

    // Mutation: the directory forgets core 0's copy while the cached
    // line survives — the presence vector is now under-approximating.
    p.hier.directory(*home).removeSharer(kA, 0);

    auto v = p.checker->auditAddr(kA);
    EXPECT_TRUE(p.has(v, "dir.missing_sharer"));
    EXPECT_THROW(p.checker->onTransaction(kA), SimError);
}

TEST(CoherenceChecker, InclusionBreakDetected)
{
    Probe p;
    p.hier.read(0, kA);   // fills L1 and L2 of core 0

    // Mutation: drop the L2 copy underneath a live L1 line.
    p.hier.l2(0).invalidate(kA);

    auto v = p.checker->auditAddr(kA);
    EXPECT_TRUE(p.has(v, "inclusion.l1_l2"));
    EXPECT_THROW(p.checker->onTransaction(kA), SimError);
}

TEST(CoherenceChecker, ViolationCarriesStructuredDiagnostic)
{
    Probe p;
    Block data{};
    p.hier.write(0, kA, &data);
    p.hier.l2(1).fill(kA, data, cache::Mesi::Modified);
    p.hier.l1(1).fill(kA, data, cache::Mesi::Modified);

    try {
        p.checker->onTransaction(kA);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("coherence violation"),
                  std::string::npos);
        std::string perr;
        Json d = Json::parse(e.diagnostic(), &perr);
        ASSERT_TRUE(perr.empty()) << perr;
        EXPECT_GT(d["coherence_violations"].asNumber(), 0.0);
        ASSERT_GT(d["violations"].size(), 0u);
        const Json &first = d["violations"].asArray().front();
        EXPECT_FALSE(first.find("invariant")->asString().empty());
        EXPECT_FALSE(first.find("detail")->asString().empty());
    }
}

TEST(CoherenceChecker, SampledFullAuditCatchesUntouchedAddress)
{
    // The forged violation sits at kA, but the next transaction touches
    // kB: only the sampled full audit can catch it.
    Probe p;
    Block data{};
    p.hier.write(0, kA, &data);
    p.hier.read(1, kB);
    p.hier.l2(1).fill(kA, data, cache::Mesi::Modified);

    EXPECT_THROW(p.hier.read(2, kB + 64), SimError);
}

TEST(CoherenceChecker, SystemWiringAuditsCcOpsAndFlush)
{
    sim::SystemConfig cfg;
    cfg.verify.coherenceChecker = true;
    cfg.verify.checker.auditInterval = 1;
    sim::System sys(cfg);
    ASSERT_NE(sys.coherenceChecker(), nullptr);

    constexpr std::size_t kLen = 1024;
    std::vector<std::uint8_t> a(kLen, 0x5a), b(kLen, 0x33);
    sys.load(0x10000, a.data(), kLen);
    sys.load(0x20000, b.data(), kLen);

    // CC op + ordinary traffic + flush, all under continuous audit.
    EXPECT_NO_THROW(sys.cc().execute(
        0, cc::CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000,
                                         kLen)));
    Block blk{};
    EXPECT_NO_THROW(sys.hierarchy().write(1, 0x40000, &blk));
    EXPECT_NO_THROW(sys.hierarchy().read(2, 0x40000));
    EXPECT_NO_THROW(sys.hierarchy().flushAll());

    EXPECT_GT(sys.coherenceChecker()->checksRun(), 0u);
}

TEST(CoherenceChecker, FullAuditEqualsPerAddressAuditsInAddressOrder)
{
    // auditAll reads each private line's state from one walk over the
    // caches; auditAddr probes every core's L1 and L2 for one address.
    // On seeded sharing traffic with planted violations of every kind,
    // the full audit must equal auditAddr over the sorted union of
    // private lines and directory entries, violation for violation.
    std::set<std::string> seen;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        energy::EnergyModel em;
        StatRegistry stats;
        cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
        CoherenceChecker checker(hier);
        Rng rng(seed);

        // Same-L1-set pages force evictions; a dense run shares pages.
        std::vector<Addr> pool;
        for (Addr i = 0; i < 48; ++i)
            pool.push_back(0x400000 + i * 4096);
        for (Addr i = 0; i < 48; ++i)
            pool.push_back(0x800000 + i * 64);
        Block data{};
        for (int i = 0; i < 3000; ++i) {
            CoreId core = static_cast<CoreId>(
                rng.below(cache::Hierarchy::kCores));
            Addr addr = pool[rng.below(pool.size())];
            if (rng.chance(0.4))
                hier.write(core, addr, &data);
            else
                hier.read(core, addr);
        }

        // One planted violation per page, on pages the traffic never
        // touched, by a random core c against another core o.
        CoreId c = static_cast<CoreId>(rng.below(cache::Hierarchy::kCores));
        CoreId o = static_cast<CoreId>((c + 1 + rng.below(7)) %
                                       cache::Hierarchy::kCores);
        auto plant = [&](unsigned k) {
            return 0x2000000 + k * 0x10000 + 64 * rng.below(64);
        };
        auto home = [&](Addr x) { return *hier.homeSliceIfMapped(x); };
        // A forged second writable copy.
        Addr a = plant(0);
        hier.write(c, a, &data);
        hier.l2(o).fill(a, data, cache::Mesi::Modified);
        // A stale shared copy beside a writable one.
        Addr b = plant(1);
        hier.write(c, b, &data);
        hier.l2(o).fill(b, data, cache::Mesi::Shared);
        // A writable copy the directory records no owner for.
        Addr d = plant(2);
        hier.read(c, d);
        hier.directory(home(d)).downgradeOwner(d);
        // A sharer bit the directory forgot.
        Addr e = plant(3);
        hier.read(c, e);
        hier.directory(home(e)).removeSharer(e, c);
        // An L1 line whose L2 copy is gone.
        Addr f = plant(4);
        hier.read(c, f);
        hier.l2(c).invalidate(f);
        // A home slice that lost a line a core and the directory hold.
        Addr g = plant(5);
        hier.read(c, g);
        hier.l3Slice(home(g)).invalidate(g);
        // A private copy of a page no access mapped.
        Addr h = plant(6);
        hier.l2(c).fill(h, data, cache::Mesi::Shared);
        hier.l1(c).fill(h, data, cache::Mesi::Shared);

        std::set<Addr> addrs;
        for (unsigned core = 0; core < cache::Hierarchy::kCores; ++core) {
            for (cache::Cache *cache : {&hier.l1(core), &hier.l2(core)})
                cache->forEachLine(
                    [&](Addr x, cache::Mesi, bool, const Block &) {
                        addrs.insert(x);
                    });
        }
        for (unsigned s = 0; s < noc::Ring::kNodes; ++s)
            hier.directory(s).forEachEntry(
                [&](Addr x, const cache::DirEntry &) { addrs.insert(x); });

        std::vector<CoherenceViolation> want;
        for (Addr x : addrs)
            for (CoherenceViolation &v : checker.auditAddr(x))
                want.push_back(std::move(v));
        std::vector<CoherenceViolation> got = checker.auditAll();

        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].invariant, want[i].invariant) << i;
            EXPECT_EQ(got[i].addr, want[i].addr) << i;
            EXPECT_EQ(got[i].detail, want[i].detail) << i;
            seen.insert(got[i].invariant);
        }
    }
    for (const char *inv :
         {"swmr", "swmr.m_plus_s", "dir.owner_mismatch",
          "dir.missing_sharer", "inclusion.l1_l2", "inclusion.l2_l3",
          "dir.not_resident", "inclusion.unmapped_page"})
        EXPECT_TRUE(seen.count(inv)) << inv << " never planted";
}

TEST(CoherenceChecker, EnvVarForcesCheckerOn)
{
    ::setenv("CCACHE_VERIFY_COHERENCE", "1", 1);
    sim::System forced;
    EXPECT_NE(forced.coherenceChecker(), nullptr);
    ::unsetenv("CCACHE_VERIFY_COHERENCE");

    sim::System plain;
    EXPECT_EQ(plain.coherenceChecker(), nullptr);
}

} // namespace
} // namespace ccache::verify
