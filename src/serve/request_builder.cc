#include "serve/request_builder.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"

namespace ccache::serve {

namespace {

using Bytes = std::vector<std::uint8_t>;

/** Seeded operand bytes: a pure function of (patternSeed, id, stream),
 *  so the same request carries the same data on every shard. */
Bytes
patternBytes(std::uint64_t pattern_seed, RequestId id, unsigned stream,
             std::size_t n)
{
    Rng rng(mix64(mix64(pattern_seed ^ id) ^ (0xb0b0000 + stream)));
    Bytes out(n);
    // One xoshiro draw yields eight operand bytes (low byte first, a
    // platform-independent unpack). The stores go through a local
    // pointer: through out[i + k], each byte store might alias the
    // vector's own data pointer, so the compiler would reload it and
    // could not merge the eight stores into one.
    std::uint8_t *p = out.data();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w = rng.next();
        for (unsigned k = 0; k < 8; ++k)
            p[i + k] = static_cast<std::uint8_t>(w >> (k * 8));
    }
    if (i < n) {
        std::uint64_t w = rng.next();
        for (; i < n; ++i, w >>= 8)
            p[i] = static_cast<std::uint8_t>(w);
    }
    return out;
}

/** Host-side reference of one CC-R chunk's packed result register:
 *  bit w set iff 8-byte word w of src1 equals word w of src2 (cmp) or
 *  word (w % 8) of the 64-byte key (search). */
std::uint64_t
refChunkMask(cache::Hierarchy &hier, const cc::CcInstruction &in)
{
    // One result bit per word: a chunk is at most kMaxCmpBytes.
    CC_ASSERT(in.size <= cc::kMaxCmpBytes, in.toString(),
              ": CC-R chunk exceeds the 64-bit result register");
    const bool search = in.op == cc::CcOpcode::Search;
    std::uint8_t a[cc::kMaxCmpBytes], b[cc::kMaxCmpBytes];
    hier.debugRead(in.src1, a, in.size);
    hier.debugRead(in.src2, b, search ? cc::kSearchKeyBytes : in.size);
    std::uint64_t mask = 0;
    for (std::size_t w = 0; w < in.size / 8; ++w) {
        std::uint64_t aw = 0, bw = 0;
        std::memcpy(&aw, a + w * 8, 8);
        std::memcpy(&bw, b + (search ? w % kWordsPerBlock : w) * 8, 8);
        if (aw == bw)
            mask |= std::uint64_t{1} << w;
    }
    return mask;
}

/** Check one CC-RW chunk's result bytes against a host-side reference,
 *  a page at a time through stack buffers. */
bool
verifyChunk(cache::Hierarchy &hier, const cc::CcInstruction &in)
{
    std::uint8_t want[kPageSize], got[kPageSize];
    for (std::size_t off = 0; off < in.size; off += kPageSize) {
        const std::size_t n = std::min(kPageSize, in.size - off);
        switch (in.op) {
          case cc::CcOpcode::Buz:
            std::memset(want, 0, n);
            break;
          case cc::CcOpcode::Copy:
            hier.debugRead(in.src1 + off, want, n);
            break;
          case cc::CcOpcode::Not:
            hier.debugRead(in.src1 + off, want, n);
            for (std::size_t i = 0; i < n; ++i)
                want[i] = static_cast<std::uint8_t>(~want[i]);
            break;
          case cc::CcOpcode::And:
          case cc::CcOpcode::Or:
          case cc::CcOpcode::Xor:
            hier.debugRead(in.src1 + off, want, n);
            hier.debugRead(in.src2 + off, got, n);
            for (std::size_t i = 0; i < n; ++i) {
                want[i] = in.op == cc::CcOpcode::And ? (want[i] & got[i])
                        : in.op == cc::CcOpcode::Or  ? (want[i] | got[i])
                                                     : (want[i] ^ got[i]);
            }
            break;
          default:
            return false;   // not a serve opcode
        }
        hier.debugRead(in.dest + off, got, n);
        if (std::memcmp(got, want, n) != 0)
            return false;
    }
    return true;
}

/** Write the golden-verifiable operand fill for one placed request.
 *  cmp/search operands are seeded with deliberate partial matches so
 *  the packed result register exercises both bit values. */
void
fillOperands(sim::System &sys, const RequestBuildParams &params,
             RequestId id, cc::CcOpcode op, Addr src1, Addr src2,
             std::size_t n)
{
    Bytes a = patternBytes(params.patternSeed, id, 1, n);
    switch (op) {
      case cc::CcOpcode::Cmp: {
        // Word w of src2 equals src1 on a fixed id-dependent stride.
        Bytes b = patternBytes(params.patternSeed, id, 2, n);
        for (std::size_t w = 0; w < n / 8; ++w) {
            if ((w + id) % 3 == 0)
                std::memcpy(b.data() + w * 8, a.data() + w * 8, 8);
        }
        sys.load(src1, a.data(), a.size());
        sys.load(src2, b.data(), b.size());
        return;
      }
      case cc::CcOpcode::Search: {
        // Plant the key into an id-dependent subset of src1's blocks.
        Bytes key = patternBytes(params.patternSeed, id, 2,
                                 cc::kSearchKeyBytes);
        for (std::size_t blk = 0; blk < n / kBlockSize; ++blk) {
            if ((blk + id) % 5 == 0)
                std::memcpy(a.data() + blk * kBlockSize, key.data(),
                            kBlockSize);
        }
        sys.load(src1, a.data(), a.size());
        sys.load(src2, key.data(), key.size());
        return;
      }
      case cc::CcOpcode::And:
      case cc::CcOpcode::Or:
      case cc::CcOpcode::Xor: {
        Bytes b = patternBytes(params.patternSeed, id, 2, n);
        sys.load(src1, a.data(), a.size());
        sys.load(src2, b.data(), b.size());
        return;
      }
      default:  // Copy / Not / Buz: one source operand
        sys.load(src1, a.data(), a.size());
        return;
    }
}

} // namespace

std::optional<Request>
buildRequest(sim::System &sys, geometry::LocalityAllocator &alloc,
             const RequestBuildParams &params,
             const workload::RequestSpec &spec, RequestId id,
             RejectReason *why_not)
{
    Request req;
    req.id = id;
    req.tenant = spec.tenant;
    req.arrival = spec.arrival;
    req.bytes = spec.bytes;
    req.scattered = spec.scattered;

    const geometry::GroupId group =
        static_cast<geometry::GroupId>(id % params.allocGroups);

    bool exhausted = false;
    auto alloc_local = [&](std::size_t n) -> Addr {
        if (exhausted)
            return 0;
        std::optional<Addr> a = alloc.tryAllocate(n, group);
        if (!a) {
            exhausted = true;
            return 0;
        }
        req.buffers.emplace_back(*a, n);
        return *a;
    };
    // Scattered operand: same size, page offset guaranteed to differ
    // from the request's locality group, so the controller's operand-
    // locality check fails and the op degrades to the near-place unit.
    auto alloc_scattered = [&](std::size_t n) -> Addr {
        if (exhausted)
            return 0;
        Addr group_off = alloc.groupOffset(group);
        std::optional<Addr> a = alloc.tryAllocate(n + kBlockSize);
        if (!a) {
            exhausted = true;
            return 0;
        }
        req.buffers.emplace_back(*a, n + kBlockSize);
        return (*a & (kPageSize - 1)) == group_off ? *a + kBlockSize : *a;
    };
    auto alloc_second = [&](std::size_t n) {
        return spec.scattered ? alloc_scattered(n) : alloc_local(n);
    };

    // CC-R ops (cmp/search) are limited to 512 B so the result fits a
    // 64-bit register; everything else takes a full 16 KB ISA vector.
    const std::size_t n = spec.bytes;
    const std::size_t chunk_limit =
        cc::isCcR(spec.op) ? cc::kMaxCmpBytes : cc::kMaxVectorBytes;

    Addr src1 = 0, src2 = 0, dest = 0;
    switch (spec.op) {
      case cc::CcOpcode::Buz:
        src1 = alloc_local(n);
        break;
      case cc::CcOpcode::Copy:
      case cc::CcOpcode::Not:
        src1 = alloc_local(n);
        dest = alloc_second(n);
        break;
      case cc::CcOpcode::Cmp:
        src1 = alloc_local(n);
        src2 = alloc_second(n);
        break;
      case cc::CcOpcode::Search:
        src1 = alloc_local(n);
        src2 = alloc_second(cc::kSearchKeyBytes);   // 64-byte key
        break;
      default:   // And / Or / Xor
        src1 = alloc_local(n);
        src2 = alloc_second(n);
        dest = alloc_local(n);
        break;
    }

    if (exhausted) {
        recycleRequest(alloc, req);
        if (why_not)
            *why_not = RejectReason::NoCapacity;
        return std::nullopt;
    }

    if (params.fillPattern)
        fillOperands(sys, params, id, spec.op, src1, src2, n);

    for (const auto &[addr, len] : req.buffers)
        sys.warm(CacheLevel::L3, 0, addr, len);

    // Chunk to the ISA limits; the first chunk is the head instruction,
    // the rest ride in req.chunks and batch into the wave as extra
    // instruction slots.
    std::vector<cc::CcInstruction> instrs;
    for (std::size_t off = 0; off < n; off += chunk_limit) {
        std::size_t len = std::min(chunk_limit, n - off);
        switch (spec.op) {
          case cc::CcOpcode::Buz:
            instrs.push_back(cc::CcInstruction::buz(src1 + off, len));
            break;
          case cc::CcOpcode::Copy:
            instrs.push_back(
                cc::CcInstruction::copy(src1 + off, dest + off, len));
            break;
          case cc::CcOpcode::Not:
            instrs.push_back(
                cc::CcInstruction::logicalNot(src1 + off, dest + off, len));
            break;
          case cc::CcOpcode::Cmp:
            instrs.push_back(
                cc::CcInstruction::cmp(src1 + off, src2 + off, len));
            break;
          case cc::CcOpcode::Search:
            instrs.push_back(
                cc::CcInstruction::search(src1 + off, src2, len));
            break;
          case cc::CcOpcode::And:
            instrs.push_back(cc::CcInstruction::logicalAnd(
                src1 + off, src2 + off, dest + off, len));
            break;
          case cc::CcOpcode::Or:
            instrs.push_back(cc::CcInstruction::logicalOr(
                src1 + off, src2 + off, dest + off, len));
            break;
          case cc::CcOpcode::Xor:
            instrs.push_back(cc::CcInstruction::logicalXor(
                src1 + off, src2 + off, dest + off, len));
            break;
          default:
            CC_FATAL("unsupported serve opcode ", cc::toString(spec.op));
        }
    }
    CC_ASSERT(!instrs.empty(), "request built no instructions");
    req.instr = instrs.front();
    req.chunks.assign(instrs.begin() + 1, instrs.end());
    return req;
}

void
recycleRequest(geometry::LocalityAllocator &alloc, const Request &req)
{
    for (const auto &[addr, len] : req.buffers)
        alloc.free(addr, len);
}

bool
goldenVerifyRequest(sim::System &sys, const Request &req,
                    std::uint64_t result_mask)
{
    cache::Hierarchy &hier = sys.hierarchy();
    if (cc::isCcR(req.instr.op)) {
        // The scheduler folds chunk result registers by OR (each chunk
        // packs one bit per 8-byte word); the reference does the same.
        std::uint64_t expect = refChunkMask(hier, req.instr);
        for (const cc::CcInstruction &in : req.chunks)
            expect |= refChunkMask(hier, in);
        return expect == result_mask;
    }
    if (!verifyChunk(hier, req.instr))
        return false;
    for (const cc::CcInstruction &in : req.chunks) {
        if (!verifyChunk(hier, in))
            return false;
    }
    return true;
}

} // namespace ccache::serve
