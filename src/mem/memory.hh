/**
 * @file
 * Functional model of main memory and its timing parameter.
 *
 * Storage is a sparse page map so multi-gigabyte address spaces cost only
 * what is touched. Timing is the paper's flat 120-cycle access latency
 * (Table IV), which the hierarchy charges per block read.
 */

#ifndef CCACHE_MEM_MEMORY_HH
#define CCACHE_MEM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/block.hh"
#include "common/types.hh"

namespace ccache::mem {

/** Timing of main memory, charged by the hierarchy. */
struct MemoryParams
{
    Cycles accessLatency = 120;   ///< Table IV
};

/** Sparse functional backing store. */
class Memory
{
  public:
    /** Functional access at block granularity. @{ */
    Block readBlock(Addr addr) const;
    void writeBlock(Addr addr, const Block &data);
    /** @} */

    /** Functional byte-granularity helpers for loading workloads. @{ */
    void writeBytes(Addr addr, const std::uint8_t *data, std::size_t len);
    void readBytes(Addr addr, std::uint8_t *out, std::size_t len) const;
    std::uint64_t readWord(Addr addr) const;
    /** @} */

    /** Number of 4 KB pages materialized so far. */
    std::size_t touchedPages() const { return pages_.size(); }

  private:
    using Page = std::array<std::uint8_t, kPageSize>;

    Page &pageFor(Addr addr);
    const Page *pageForConst(Addr addr) const;

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;

    /** One-entry page memo: block accesses stream 64-to-a-page, and the
     *  map's unique_ptr targets are stable (pages are never erased), so
     *  a cached pointer stays valid across inserts (DESIGN.md §13).
     *  ~Addr{0} is never page-aligned, so the empty memo never hits.
     *  Mutable: readBlock() is logically const. */
    mutable Addr lastPageAddr_ = ~Addr{0};
    mutable Page *lastPage_ = nullptr;
};

} // namespace ccache::mem

#endif // CCACHE_MEM_MEMORY_HH
