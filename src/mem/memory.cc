#include "mem/memory.hh"

#include <algorithm>
#include <cstring>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::mem {

Memory::Page &
Memory::pageFor(Addr addr)
{
    Addr page = alignDown(addr, kPageSize);
    if (page == lastPageAddr_ && lastPage_)
        return *lastPage_;
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        auto fresh = std::make_unique<Page>();
        fresh->fill(0);
        it = pages_.emplace(page, std::move(fresh)).first;
    }
    lastPageAddr_ = page;
    lastPage_ = it->second.get();
    return *it->second;
}

const Memory::Page *
Memory::pageForConst(Addr addr) const
{
    Addr page = alignDown(addr, kPageSize);
    if (page == lastPageAddr_)
        return lastPage_;
    auto it = pages_.find(page);
    if (it == pages_.end())
        return nullptr;
    lastPageAddr_ = page;
    lastPage_ = it->second.get();
    return lastPage_;
}

Block
Memory::readBlock(Addr addr) const
{
    CC_ASSERT(isAligned(addr, kBlockSize), "unaligned block read at 0x",
              std::hex, addr);
    Block out{};
    const Page *page = pageForConst(addr);
    if (page) {
        std::size_t off = addr & (kPageSize - 1);
        std::memcpy(out.data(), page->data() + off, kBlockSize);
    }
    return out;
}

void
Memory::writeBlock(Addr addr, const Block &data)
{
    CC_ASSERT(isAligned(addr, kBlockSize), "unaligned block write at 0x",
              std::hex, addr);
    Page &page = pageFor(addr);
    std::size_t off = addr & (kPageSize - 1);
    std::memcpy(page.data() + off, data.data(), kBlockSize);
}

void
Memory::writeBytes(Addr addr, const std::uint8_t *data, std::size_t len)
{
    while (len > 0) {
        Page &page = pageFor(addr);
        std::size_t off = addr & (kPageSize - 1);
        std::size_t chunk = std::min(len, kPageSize - off);
        std::memcpy(page.data() + off, data, chunk);
        addr += chunk;
        data += chunk;
        len -= chunk;
    }
}

void
Memory::readBytes(Addr addr, std::uint8_t *out, std::size_t len) const
{
    while (len > 0) {
        std::size_t off = addr & (kPageSize - 1);
        std::size_t chunk = std::min(len, kPageSize - off);
        const Page *page = pageForConst(addr);
        if (page)
            std::memcpy(out, page->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

std::uint64_t
Memory::readWord(Addr addr) const
{
    std::uint64_t w = 0;
    readBytes(addr, reinterpret_cast<std::uint8_t *>(&w), sizeof(w));
    return w;
}

} // namespace ccache::mem
