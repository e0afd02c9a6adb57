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
        lineAt(line).dirty = true;
    chargeWrite();
}

std::optional<FillResult>
Cache::fill(Addr addr, const Block &data, Mesi state)
{
    CC_ASSERT(isAligned(addr, kBlockSize), "fill of unaligned 0x", std::hex,
              addr);
    auto f = geom_.decode(addr);
    // One named result, returned from every path, so the evicted block
    // is built in place: its 64 bytes are copied once.
    std::optional<FillResult> result;

    // Refill of a line that is already resident just updates it.
    if (LineRef hit = probe(f.set, f.tag)) {
        tags_.touch(f.set, hit.way());
        lineAt(hit).state = state;
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

    FillResult &r = result.emplace();
    r.line = LineRef(f.set, *victim_way);
    Line &line = lineAt(r.line);
    if (line.valid()) {
        r.evicted.emplace(addrOf(f.set, *victim_way),
                          data_[dataIndex(r.line)], line.dirty, line.state);
        if (evictionsStat_)
            evictionsStat_->inc();
    }

    line.tag = f.tag;
    line.state = state;
    line.dirty = false;
    line.pinned = false;
    tags_.touch(f.set, *victim_way);
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
    Line &line = lineAt(ref);
    ev.emplace(addr, data_[dataIndex(ref)], line.dirty, line.state);
    line.state = Mesi::Invalid;
    line.dirty = false;
    line.pinned = false;
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
    const Line &l = tags_.line(set, way);
    return ((l.tag << geom_.setIndexBits()) | set)
        << geom_.blockOffsetBits();
}

void
Cache::forEachLine(
    const std::function<void(Addr, Mesi, bool, const Block &)> &fn) const
{
    for (std::size_t set = 0; set < geom_.numSets(); ++set) {
        for (std::size_t way = 0; way < params_.geometry.ways; ++way) {
            const Line &l = tags_.line(set, way);
            if (!l.valid())
                continue;
            fn(addrOf(set, way), l.state, l.dirty,
               data_[dataIndex(set, way)]);
        }
    }
}

} // namespace ccache::cache
