#include "cache/directory.hh"

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace ccache::cache {

static_assert(Hierarchy::kCores <= 8 * sizeof(DirEntry::sharers),
              "a directory entry holds one sharer bit per core");

std::size_t
Directory::findSlot(Addr addr) const
{
    if (slots_.empty())
        return 0;
    std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(addr) & mask;
    while (slots_[i].used) {
        if (slots_[i].key == addr)
            return i;
        i = (i + 1) & mask;
    }
    return slots_.size();
}

DirEntry &
Directory::findOrInsert(Addr addr)
{
    if (slots_.empty())
        slots_.resize(256);
    else if (live_ * 4 >= slots_.size() * 3)
        grow();
    std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(addr) & mask;
    while (slots_[i].used) {
        if (slots_[i].key == addr)
            return slots_[i].val;
        i = (i + 1) & mask;
    }
    slots_[i].key = addr;
    slots_[i].val = DirEntry{};
    slots_[i].used = true;
    ++live_;
    return slots_[i].val;
}

void
Directory::eraseSlot(std::size_t hole)
{
    std::size_t mask = slots_.size() - 1;
    std::size_t next = (hole + 1) & mask;
    // Backward-shift deletion: pull each displaced successor into the
    // hole iff the hole lies within its cyclic probe range, so every
    // surviving entry stays reachable from its home slot.
    while (slots_[next].used) {
        std::size_t home = mix64(slots_[next].key) & mask;
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            slots_[hole] = slots_[next];
            hole = next;
        }
        next = (next + 1) & mask;
    }
    slots_[hole] = Slot{};
    --live_;
}

void
Directory::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    std::size_t mask = slots_.size() - 1;
    for (const Slot &s : old) {
        if (!s.used)
            continue;
        std::size_t i = mix64(s.key) & mask;
        while (slots_[i].used)
            i = (i + 1) & mask;
        slots_[i] = s;
    }
}

DirEntry
Directory::entry(Addr addr) const
{
    // CC staging probes every L3-staged row, usually of a slice whose
    // blocks no private cache holds.
    if (live_ == 0)
        return DirEntry{};
    std::size_t i = findSlot(addr);
    return i == slots_.size() || !slots_[i].used ? DirEntry{}
                                                 : slots_[i].val;
}

void
Directory::addSharer(Addr addr, CoreId core)
{
    CC_ASSERT(core < Hierarchy::kCores, "core ", core, " out of range");
    DirEntry &e = findOrInsert(addr);
    e.sharers |= (1u << core);
    if (e.owner && *e.owner != core)
        e.owner.reset();
}

void
Directory::setOwner(Addr addr, CoreId core)
{
    CC_ASSERT(core < Hierarchy::kCores, "core ", core, " out of range");
    DirEntry &e = findOrInsert(addr);
    e.sharers = (1u << core);
    e.owner = core;
}

void
Directory::downgradeOwner(Addr addr)
{
    std::size_t i = findSlot(addr);
    if (i != slots_.size() && slots_[i].used)
        slots_[i].val.owner.reset();
}

void
Directory::removeSharer(Addr addr, CoreId core)
{
    std::size_t i = findSlot(addr);
    if (i == slots_.size() || !slots_[i].used)
        return;
    DirEntry &e = slots_[i].val;
    e.sharers &= ~(1u << core);
    if (e.owner == core)
        e.owner.reset();
    if (!e.hasSharers())
        eraseSlot(i);
}

void
Directory::clear(Addr addr)
{
    std::size_t i = findSlot(addr);
    if (i != slots_.size() && slots_[i].used)
        eraseSlot(i);
}

std::uint32_t
Directory::sharersExcept(Addr addr, CoreId except) const
{
    return entry(addr).sharers & ~(1u << except);
}

} // namespace ccache::cache
