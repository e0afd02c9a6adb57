/**
 * @file
 * Lockstep reference model of one cache level.
 *
 * RefCache is a plain per-set true-LRU model with operand pins and
 * first-invalid victims (DESIGN.md §5; the pins are Section IV-E's
 * operand locks), written without the tag store: each set is a vector
 * of ways holding an address, a MESI state, a dirty bit, a pin bit, a
 * last-use stamp and the data. A seeded stream of fills, refills,
 * reads, writes, pins, unpins, invalidates and state changes, folded
 * onto a few sets so that ways conflict, runs through the model and
 * through cache::Cache side by side. Per op the two must agree on hit
 * or miss, on a refused fill and on the evicted line (address, data,
 * dirty bit, state). After every op they must agree on every address
 * of the op's set (resident or not, way, state, dirty bit, pin, data),
 * and on every resident line of the cache through forEachLine
 * (address, state, dirty bit, data, in set and way order, and pins):
 * after every op on the L1, and every 64 ops and after the last on the
 * L3 slice, where one sweep walks 32768 ways (after every op it made
 * the test take minutes under ASan).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace ccache::cache {
namespace {

/** One way of the model. */
struct RefWay
{
    bool valid = false;
    Addr addr = 0;
    Mesi state = Mesi::Invalid;
    bool dirty = false;
    bool pinned = false;
    std::uint64_t lastUse = 0;
    Block data{};
};

/** A line the model evicted or invalidated. */
struct RefEviction
{
    Addr addr;
    Block data;
    bool dirty;
    Mesi state;
};

/** Outcome of a model fill. */
struct RefFill
{
    bool refused = false;
    std::optional<RefEviction> evicted;
};

/** The model: a map from set index to that set's ways. */
class RefCache
{
  public:
    RefCache(std::size_t sets, std::size_t ways) : sets_(sets), ways_(ways)
    {
    }

    /** The valid way holding @p addr, or nullptr. */
    RefWay *
    find(Addr addr)
    {
        auto it = sets_by_index_.find(setIndex(addr));
        if (it == sets_by_index_.end())
            return nullptr;
        for (RefWay &w : it->second) {
            if (w.valid && w.addr == addr)
                return &w;
        }
        return nullptr;
    }

    /** Way index of resident @p addr in its set, or nullopt. */
    std::optional<std::size_t>
    wayOf(Addr addr)
    {
        if (RefWay *w = find(addr))
            return static_cast<std::size_t>(w - setWays(addr).data());
        return std::nullopt;
    }

    /** Make @p w the most recently used way. */
    void touch(RefWay &w) { w.lastUse = ++clock_; }

    /** A resident address refills in place: LRU touch, new state and
     *  data, dirty and pin bits kept. Otherwise the victim is the first
     *  invalid way, else the unpinned way used longest ago; with every
     *  way pinned the fill is refused. The filled line is clean and
     *  unpinned. */
    RefFill
    fill(Addr addr, const Block &data, Mesi state)
    {
        RefFill out;
        if (RefWay *w = find(addr)) {
            touch(*w);
            w->state = state;
            w->data = data;
            return out;
        }
        std::vector<RefWay> &set = setWays(addr);
        RefWay *victim = nullptr;
        for (RefWay &w : set) {
            if (!w.valid) {
                victim = &w;
                break;
            }
        }
        if (!victim) {
            for (RefWay &w : set) {
                if (!w.pinned && (!victim || w.lastUse < victim->lastUse))
                    victim = &w;
            }
        }
        if (!victim) {
            out.refused = true;
            return out;
        }
        if (victim->valid)
            out.evicted = RefEviction{victim->addr, victim->data,
                                      victim->dirty, victim->state};
        *victim = RefWay{true, addr, state, false, false, 0, data};
        touch(*victim);
        return out;
    }

    /** Drop @p addr, returning what was there. */
    std::optional<RefEviction>
    invalidate(Addr addr)
    {
        RefWay *w = find(addr);
        if (!w)
            return std::nullopt;
        RefEviction ev{w->addr, w->data, w->dirty, w->state};
        *w = RefWay{};
        return ev;
    }

    /** Every valid way, in set then way order. */
    std::vector<const RefWay *>
    lines() const
    {
        std::vector<const RefWay *> out;
        for (const auto &[index, set] : sets_by_index_) {
            for (const RefWay &w : set) {
                if (w.valid)
                    out.push_back(&w);
            }
        }
        return out;
    }

    /** The set of @p addr: the block number modulo the set count. */
    std::size_t
    setIndex(Addr addr) const
    {
        return (addr / kBlockSize) % sets_;
    }

  private:
    std::vector<RefWay> &
    setWays(Addr addr)
    {
        return sets_by_index_.try_emplace(setIndex(addr), ways_)
            .first->second;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::map<std::size_t, std::vector<RefWay>> sets_by_index_;
    std::uint64_t clock_ = 0;
};

Block
randomBlock(Rng &rng)
{
    Block b;
    for (std::size_t i = 0; i < kBlockSize; i += 8)
        setBlockWord(b, i / 8, rng.next());
    return b;
}

Mesi
randomValidState(Rng &rng)
{
    static constexpr Mesi kStates[] = {Mesi::Shared, Mesi::Exclusive,
                                       Mesi::Modified};
    return kStates[rng.below(3)];
}

std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

std::string
describe(Addr addr, Mesi state, bool dirty)
{
    return hexAddr(addr) + " " + toString(state) +
        (dirty ? " dirty" : " clean");
}

/** Empty if every resident line and pin of @p cache matches @p ref,
 *  else the first difference. */
std::string
compareLines(const Cache &cache, const RefCache &ref)
{
    std::vector<const RefWay *> want = ref.lines();
    std::size_t i = 0;
    std::string diff;
    cache.forEachLine([&](Addr addr, Mesi state, bool dirty,
                          const Block &data) {
        if (!diff.empty())
            return;
        if (i >= want.size()) {
            diff = "extra line " + describe(addr, state, dirty);
        } else if (want[i]->addr != addr || want[i]->state != state ||
                   want[i]->dirty != dirty || want[i]->data != data) {
            diff = "line " + std::to_string(i) + ": cache has " +
                describe(addr, state, dirty) + ", model has " +
                describe(want[i]->addr, want[i]->state, want[i]->dirty) +
                (want[i]->data != data ? " (data differs)" : "");
        }
        ++i;
    });
    if (diff.empty() && i != want.size())
        diff = "cache has " + std::to_string(i) + " lines, model has " +
            std::to_string(want.size());
    for (const RefWay *w : want) {
        if (!diff.empty())
            break;
        LineRef line = cache.find(w->addr);
        if (line && cache.isPinned(line) != w->pinned)
            diff = "pin bit of " + describe(w->addr, w->state, w->dirty) +
                " differs";
    }
    return diff;
}

/** Empty if @p cache and @p ref agree on each of @p addrs (the
 *  addresses that can map to one set), else the first difference. */
std::string
compareSet(const Cache &cache, RefCache &ref, const std::vector<Addr> &addrs)
{
    for (Addr a : addrs) {
        LineRef line = cache.find(a);
        std::optional<std::size_t> way = ref.wayOf(a);
        if (bool(line) != bool(way))
            return hexAddr(a) + (line ? " resident only in the cache"
                                      : " resident only in the model");
        if (!line)
            continue;
        const RefWay &w = *ref.find(a);
        if (line.way() != *way || cache.state(line) != w.state ||
            cache.isDirty(line) != w.dirty ||
            cache.isPinned(line) != w.pinned || cache.peek(line) != w.data)
            return "cache has " + describe(a, cache.state(line),
                                           cache.isDirty(line)) +
                " in way " + std::to_string(line.way()) + ", model has " +
                describe(a, w.state, w.dirty) + " in way " +
                std::to_string(*way) + " (pin or data may differ)";
    }
    return "";
}

/** Counts of the rules a replay exercised. */
struct Coverage
{
    std::size_t hits = 0;
    std::size_t refusedFills = 0;
    std::size_t victimEvictions = 0;      ///< fills that evicted a line
    std::size_t dirtyEvictions = 0;
    std::size_t pinnedEvictionCandidates = 0;  ///< fills into a set with pins
};

/**
 * Replay @p ops seeded operations on a cache of @p params and on the
 * model in lockstep, comparing every line through forEachLine every
 * @p sweep_every ops. Addresses are folded onto four sets (the first,
 * the second, one in the middle and the last) with ways + 4 tags each,
 * two of them far above the rest, so every set overflows.
 */
Coverage
replay(const CacheParams &params, std::uint64_t seed, std::size_t ops,
       std::size_t sweep_every)
{
    Cache cache(params, nullptr, nullptr, "ref");
    const std::size_t ways = params.geometry.ways;
    const std::size_t sets = params.geometry.sizeBytes / (kBlockSize * ways);
    RefCache ref(sets, ways);
    Rng rng(seed);
    Coverage cov;

    const std::size_t hot_sets[] = {0, 1, sets / 2 + 3, sets - 1};
    std::vector<Addr> tags;
    for (Addr t = 0; t < ways + 2; ++t)
        tags.push_back(t);
    tags.push_back((Addr{1} << 40) + 1);
    tags.push_back((Addr{1} << 46) - 1);

    auto set_addrs = [&](Addr addr) {
        std::vector<Addr> out;
        for (Addr tag : tags)
            out.push_back((tag * sets + ref.setIndex(addr)) * kBlockSize);
        return out;
    };
    auto any_addr = [&]() {
        Addr tag = tags[rng.below(tags.size())];
        return (tag * sets + hot_sets[rng.below(4)]) * kBlockSize;
    };
    // Per-line ops mostly target a resident line, so they do something.
    auto target_addr = [&]() {
        std::vector<const RefWay *> lines = ref.lines();
        if (lines.empty() || rng.chance(0.2))
            return any_addr();
        return lines[rng.below(lines.size())]->addr;
    };

    enum Op {
        Fill, Refill, Read, Write, Pin, Unpin, Invalidate, MarkDirty,
        ClearDirty, SetState, Promote, kOps
    };
    static const char *const kNames[kOps] = {
        "fill", "refill", "read", "write", "pin", "unpin", "invalidate",
        "markDirty", "clearDirty", "setState", "promoteMRU"};

    for (std::size_t i = 0; i < ops; ++i) {
        // Alternate pin-heavy and unpin-heavy phases, so sets both fill
        // up with pins (refused fills) and drain (LRU victims).
        const bool pin_phase = (i / 4096) % 2 == 0;
        const unsigned weights[kOps] = {24, 8, 10, 10, pin_phase ? 14u : 2u,
                                        pin_phase ? 2u : 14u, 5, 4, 4, 4, 5};
        unsigned total = 0;
        for (unsigned w : weights)
            total += w;
        unsigned pick = static_cast<unsigned>(rng.below(total));
        unsigned k = 0;
        while (pick >= weights[k])
            pick -= weights[k++];
        const Op op = static_cast<Op>(k);

        const Addr addr = op == Fill ? any_addr() : target_addr();
        LineRef line = cache.find(addr);
        RefWay *w = ref.find(addr);
        EXPECT_EQ(bool(line), w != nullptr)
            << kNames[op] << " probe of 0x" << std::hex << addr;
        if (bool(line) != (w != nullptr))
            return cov;
        cov.hits += w != nullptr;

        switch (op) {
          case Fill:
          case Refill: {
            const Block data = randomBlock(rng);
            const Mesi state = randomValidState(rng);
            bool set_has_pins = false;
            for (const RefWay *l : ref.lines())
                set_has_pins |= l->pinned &&
                    ref.setIndex(l->addr) == ref.setIndex(addr);
            auto got = cache.fill(addr, data, state);
            RefFill want = ref.fill(addr, data, state);
            EXPECT_EQ(!got, want.refused) << "fill of 0x" << std::hex << addr;
            if (!got || want.refused) {
                cov.refusedFills += want.refused;
                break;
            }
            EXPECT_EQ(cache.find(addr), got->line);
            EXPECT_EQ(bool(got->evicted), bool(want.evicted))
                << "fill of 0x" << std::hex << addr;
            if (got->evicted && want.evicted) {
                EXPECT_EQ(got->evicted->addr, want.evicted->addr);
                EXPECT_EQ(got->evicted->dirty, want.evicted->dirty);
                EXPECT_EQ(got->evicted->state, want.evicted->state);
                EXPECT_EQ(got->evicted->data, want.evicted->data);
                ++cov.victimEvictions;
                cov.dirtyEvictions += want.evicted->dirty;
                cov.pinnedEvictionCandidates += set_has_pins;
            }
            break;
          }
          case Read:
            if (w) {
                Block out;
                cache.read(line, out);
                ref.touch(*w);
                EXPECT_EQ(out, w->data);
            }
            break;
          case Write:
            if (w) {
                const Block data = randomBlock(rng);
                const bool set_dirty = rng.chance(0.7);
                cache.write(line, data, set_dirty);
                ref.touch(*w);
                w->data = data;
                w->dirty |= set_dirty;
            }
            break;
          case Pin:
            // As the CC controller stages an operand: pin, then MRU.
            if (w) {
                cache.pin(line);
                cache.promoteMRU(line);
                w->pinned = true;
                ref.touch(*w);
            }
            break;
          case Unpin:
            if (w) {
                cache.unpin(line);
                w->pinned = false;
            }
            break;
          case Invalidate: {
            auto got = cache.invalidate(addr);
            auto want = ref.invalidate(addr);
            EXPECT_EQ(bool(got), bool(want));
            if (got && want) {
                EXPECT_EQ(got->addr, want->addr);
                EXPECT_EQ(got->dirty, want->dirty);
                EXPECT_EQ(got->state, want->state);
                EXPECT_EQ(got->data, want->data);
            }
            break;
          }
          case MarkDirty:
            if (w) {
                cache.markDirty(line);
                w->dirty = true;
                w->state = Mesi::Modified;
            }
            break;
          case ClearDirty:
            if (w) {
                cache.clearDirty(line);
                w->dirty = false;
            }
            break;
          case SetState:
            if (w) {
                const Mesi state = randomValidState(rng);
                cache.setState(line, state);
                w->state = state;
                EXPECT_EQ(cache.state(addr), state);
            }
            break;
          case Promote:
            if (w) {
                cache.promoteMRU(line);
                ref.touch(*w);
            }
            break;
          case kOps:
            break;
        }

        std::string diff = compareSet(cache, ref, set_addrs(addr));
        if (diff.empty() && ((i + 1) % sweep_every == 0 || i + 1 == ops))
            diff = compareLines(cache, ref);
        EXPECT_EQ(diff, "") << "after op " << i << " (" << kNames[op]
                            << " 0x" << std::hex << addr << ")";
        if (!diff.empty() || ::testing::Test::HasFailure())
            return cov;
    }
    return cov;
}

void
expectFullCoverage(const Coverage &cov)
{
    EXPECT_GT(cov.hits, 0u);
    EXPECT_GT(cov.refusedFills, 0u);
    EXPECT_GT(cov.victimEvictions, 0u);
    EXPECT_GT(cov.dirtyEvictions, 0u);
    EXPECT_GT(cov.pinnedEvictionCandidates, 0u);
}

TEST(CacheReference, L1LockstepOver100kOps)
{
    CacheParams p{geometry::CacheGeometryParams::l1d(), CacheLevel::L1};
    ASSERT_EQ(p.geometry.sizeBytes / (kBlockSize * p.geometry.ways), 64u);
    expectFullCoverage(replay(p, 0x1d1, 100000, 1));
}

TEST(CacheReference, L3SliceLockstepOver100kOps)
{
    CacheParams p{geometry::CacheGeometryParams::l3Slice(), CacheLevel::L3};
    ASSERT_EQ(p.geometry.sizeBytes / (kBlockSize * p.geometry.ways), 2048u);
    expectFullCoverage(replay(p, 0x3d3, 100000, 64));
}

} // namespace
} // namespace ccache::cache
