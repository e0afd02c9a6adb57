#include "cache/cache.hh"

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::cache {

Cache::Cache(const CacheParams &params, energy::EnergyModel *energy,
             StatRegistry *stats, std::string stat_prefix)
    : params_(params), geom_(params.geometry),
      tags_(geom_.numSets(), params.geometry.ways),
      data_(std::make_unique_for_overwrite<Block[]>(
          geom_.numSets() * params.geometry.ways)),
      energy_(energy)
{
    if (stats) {
        StatGroup g = stats->group(stat_prefix);
        readsStat_ = &g.counter("reads", "block reads served");
        writesStat_ = &g.counter("writes", "block writes absorbed");
        fillsStat_ = &g.counter("fills", "lines allocated");
        evictionsStat_ = &g.counter("evictions", "lines evicted");
        invalidationsStat_ =
            &g.counter("invalidations", "coherence invalidations");
        fillBlockedStat_ = &g.counter(
            "fill_blocked_pinned", "fills refused by a fully pinned set");
    }
}

Mesi
Cache::state(Addr addr) const
{
    LineRef line = find(addr);
    return line ? state(line) : Mesi::Invalid;
}

void
Cache::chargeRead()
{
    if (energy_)
        energy_->chargeCacheOp(params_.level, energy::CacheOp::Read);
    if (readsStat_)
        readsStat_->inc();
}

void
Cache::chargeWrite()
{
    if (energy_)
        energy_->chargeCacheOp(params_.level, energy::CacheOp::Write);
    if (writesStat_)
        writesStat_->inc();
}

void
Cache::read(LineRef line, Block &out)
{
    tags_.touch(line.set(), line.way());
    out = data_[dataIndex(line)];
    chargeRead();
}

void
Cache::write(LineRef line, const Block &data, bool set_dirty)
{
    tags_.touch(line.set(), line.way());
    data_[dataIndex(line)] = data;
    if (set_dirty)
        tags_.setDirty(line.set(), line.way(), true);
    chargeWrite();
}

std::optional<FillResult>
Cache::fill(Addr addr, const Block &data, Mesi state)
{
    CC_ASSERT(isAligned(addr, kBlockSize), "fill of unaligned 0x", std::hex,
              addr);
    CC_ASSERT(valid(state), "fill of 0x", std::hex, addr,
              " in state Invalid");
    auto f = geom_.decode(addr);
    // One named result, returned from every path, so the evicted block
    // is built in place: its 64 bytes are copied once.
    std::optional<FillResult> result;

    // Refill of a line that is already resident just updates it.
    if (LineRef hit = probe(f.set, f.tag)) {
        tags_.touch(f.set, hit.way());
        tags_.setState(f.set, hit.way(), state);
        data_[dataIndex(hit)] = data;
        chargeWrite();
        result.emplace().line = hit;
        return result;
    }

    auto victim_way = tags_.victim(f.set);
    if (!victim_way) {
        if (fillBlockedStat_)
            fillBlockedStat_->inc();
        return result;
    }

    const std::size_t way = *victim_way;
    FillResult &r = result.emplace();
    r.line = LineRef(f.set, way);
    if (tags_.valid(f.set, way)) {
        r.evicted.emplace(addrOf(f.set, way), data_[dataIndex(r.line)],
                          tags_.dirty(f.set, way), tags_.state(f.set, way));
        if (evictionsStat_)
            evictionsStat_->inc();
    }

    tags_.install(f.set, way, f.tag, state);
    tags_.touch(f.set, way);
    data_[dataIndex(r.line)] = data;
    chargeWrite();
    if (fillsStat_)
        fillsStat_->inc();
    return result;
}

std::optional<Eviction>
Cache::invalidate(Addr addr)
{
    std::optional<Eviction> ev;
    LineRef ref = find(addr);
    if (!ref)
        return ev;
    ev.emplace(addr, data_[dataIndex(ref)], isDirty(ref), state(ref));
    tags_.invalidate(ref.set(), ref.way());
    if (invalidationsStat_)
        invalidationsStat_->inc();
    return ev;
}

const Block *
Cache::dirtyPeek(Addr addr) const
{
    LineRef line = find(addr);
    if (!line || !isDirty(line))
        return nullptr;
    return &peek(line);
}

Addr
Cache::addrOf(std::size_t set, std::size_t way) const
{
    return ((tags_.tag(set, way) << geom_.setIndexBits()) | set)
        << geom_.blockOffsetBits();
}

void
Cache::forEachLine(
    const std::function<void(Addr, Mesi, bool, const Block &)> &fn) const
{
    for (std::size_t set = 0; set < geom_.numSets(); ++set) {
        for (std::size_t way = 0; way < params_.geometry.ways; ++way) {
            if (!tags_.valid(set, way))
                continue;
            fn(addrOf(set, way), tags_.state(set, way),
               tags_.dirty(set, way), data_[dataIndex(set, way)]);
        }
    }
}

} // namespace ccache::cache
