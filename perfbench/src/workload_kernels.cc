/**
 * @file
 * cc_kernels: a fixed seeded mix of CC instructions issued one at a time
 * through CcController::execute on a System whose operands were warmed
 * into L3 first (Section VI-D). The mix covers Table II (copy, buz,
 * and/or/xor/not, cmp, search, clmul) plus bit-serial add and mul. It
 * runs twice, each time on a freshly warmed System: once plain and once
 * with CcControllerParams::verifyCircuit, which re-executes every
 * in-place op on the sram/ sub-array model.
 *
 * Why: the cc/ controller does the work, on both the executeOnce and the
 * executeBitSerial paths, and the verified pass adds the sram/ sub-array;
 * the hierarchy only stages operands. Every instruction's result is
 * checked against a host-side reference that shares no code with the
 * simulator.
 */

#include <bit>
#include <cstring>

#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace perfbench {
namespace {

using namespace ccache;
using cc::CcInstruction;
using cc::CcOpcode;

constexpr std::size_t kInstructions = 4000;  ///< per pass

/** Operand window, one 4 KB page per slot: bitwise vectors, search keys,
 *  then bit-serial operands (kLaneBits slice rows, one page apart). */
constexpr Addr kBase = 0x1000'0000;
constexpr std::size_t kVectorPages = 48;
constexpr std::size_t kKeyPages = 8;
constexpr std::size_t kSerialOperands = 24;
constexpr std::size_t kLaneBits = 8;
constexpr std::size_t kMaxSliceBytes = 128;
constexpr std::size_t kKeyPage0 = kVectorPages;
constexpr std::size_t kSerialPage0 = kKeyPage0 + kKeyPages;
constexpr std::size_t kPages = kSerialPage0 + kSerialOperands * kLaneBits;

Addr
pageAddr(std::size_t page)
{
    return kBase + page * kPageSize;
}

std::size_t
offsetOf(Addr addr)
{
    return static_cast<std::size_t>(addr - kBase);
}

std::uint64_t
word(const std::vector<std::uint8_t> &mem, Addr addr)
{
    std::uint64_t w;
    std::memcpy(&w, mem.data() + offsetOf(addr), 8);
    return w;
}

void
setWord(std::vector<std::uint8_t> &mem, Addr addr, std::uint64_t w)
{
    std::memcpy(mem.data() + offsetOf(addr), &w, 8);
}

bool
laneBit(const std::vector<std::uint8_t> &mem, Addr root, std::size_t k,
        std::size_t lane)
{
    Addr row = CcInstruction::sliceAddr(root, k);
    return (mem[offsetOf(row) + lane / 8] >> (lane % 8)) & 1;
}

/**
 * Host-side reference: apply @p in to the flat operand image @p mem and
 * return the cmp/search word mask (0 for other ops). Plain word loops,
 * sharing no code with BlockCompute or BitSerialCompute.
 */
std::uint64_t
reference(const CcInstruction &in, std::vector<std::uint8_t> &mem)
{
    const std::size_t words = in.size / 8;
    std::uint64_t mask = 0;
    switch (in.op) {
      case CcOpcode::Copy:
      case CcOpcode::Buz:
      case CcOpcode::Not:
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor:
        for (std::size_t w = 0; w < words; ++w) {
            // cc_buz names its one operand as the destination.
            std::uint64_t a =
                in.op == CcOpcode::Buz ? 0 : word(mem, in.src1 + 8 * w);
            std::uint64_t b =
                in.op == CcOpcode::Copy || in.op == CcOpcode::Buz ||
                    in.op == CcOpcode::Not
                ? 0
                : word(mem, in.src2 + 8 * w);
            std::uint64_t r = 0;
            switch (in.op) {
              case CcOpcode::Copy: r = a; break;
              case CcOpcode::Buz: r = 0; break;
              case CcOpcode::Not: r = ~a; break;
              case CcOpcode::And: r = a & b; break;
              case CcOpcode::Or: r = a | b; break;
              default: r = a ^ b; break;
            }
            setWord(mem, in.dest + 8 * w, r);
        }
        break;
      case CcOpcode::Cmp:
        for (std::size_t w = 0; w < words; ++w)
            if (word(mem, in.src1 + 8 * w) == word(mem, in.src2 + 8 * w))
                mask |= std::uint64_t{1} << w;
        break;
      case CcOpcode::Search:
        for (std::size_t w = 0; w < words; ++w)
            if (word(mem, in.src1 + 8 * w) == word(mem, in.src2 + 8 * (w % 8)))
                mask |= std::uint64_t{1} << w;
        break;
      case CcOpcode::Clmul: {
        // Per 64-byte block: parity of popcount(a & b) per word_bits-wide
        // word, packed into the dest block's first word.
        const std::size_t per = in.clmulWordBits / 64;
        for (std::size_t blk = 0; blk < in.size / kBlockSize; ++blk) {
            std::uint64_t packed = 0;
            for (std::size_t i = 0; i < 8 / per; ++i) {
                unsigned ones = 0;
                for (std::size_t j = 0; j < per; ++j) {
                    Addr off = blk * kBlockSize + 8 * (i * per + j);
                    ones += std::popcount(word(mem, in.src1 + off) &
                                          word(mem, in.src2 + off));
                }
                packed |= static_cast<std::uint64_t>(ones & 1) << i;
            }
            for (std::size_t w = 0; w < 8; ++w)
                setWord(mem, in.dest + blk * kBlockSize + 8 * w,
                        w == 0 ? packed : 0);
        }
        break;
      }
      case CcOpcode::Add:
      case CcOpcode::Mul: {
        const std::size_t lanes = in.size * 8;
        const std::uint64_t laneMask = (std::uint64_t{1} << in.laneBits) - 1;
        std::vector<std::uint64_t> out(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            std::uint64_t a = 0, b = 0;
            for (std::size_t k = 0; k < in.laneBits; ++k) {
                a |= static_cast<std::uint64_t>(laneBit(mem, in.src1, k, l))
                    << k;
                b |= static_cast<std::uint64_t>(laneBit(mem, in.src2, k, l))
                    << k;
            }
            out[l] = (in.op == CcOpcode::Add ? a + b : a * b) & laneMask;
        }
        for (std::size_t k = 0; k < in.laneBits; ++k) {
            std::size_t row = offsetOf(CcInstruction::sliceAddr(in.dest, k));
            std::memset(mem.data() + row, 0, in.size);
            for (std::size_t l = 0; l < lanes; ++l)
                if ((out[l] >> k) & 1)
                    mem[row + l / 8] |= static_cast<std::uint8_t>(1u << (l % 8));
        }
        break;
      }
      default:
        CC_PANIC("cc_kernels mix has no ", cc::toString(in.op));
    }
    return mask;
}

/** Byte ranges an instruction writes: (address, length) pairs. */
std::vector<std::pair<Addr, std::size_t>>
writtenRanges(const CcInstruction &in)
{
    switch (in.op) {
      case CcOpcode::Cmp:
      case CcOpcode::Search:
        return {};
      case CcOpcode::Add:
      case CcOpcode::Mul: {
        std::vector<std::pair<Addr, std::size_t>> rows;
        for (std::size_t k = 0; k < in.laneBits; ++k)
            rows.push_back({CcInstruction::sliceAddr(in.dest, k), in.size});
        return rows;
      }
      default:
        return {{in.dest, in.size}};
    }
}

class CcKernels : public Workload
{
  public:
    explicit CcKernels(std::uint64_t seed)
    {
        Rng rng(subSeed(seed, "kernels.data"));
        image_.resize(kPages * kPageSize);
        for (std::uint8_t &b : image_)
            b = static_cast<std::uint8_t>(rng.next());
        // Bit-serial operands use only their first kMaxSliceBytes per
        // slice row; the bitwise vectors and keys use their whole span.
        for (std::size_t p = 0; p < kVectorPages; ++p)
            footprint_.push_back({pageAddr(p), kPageSize});
        for (std::size_t p = kKeyPage0; p < kSerialPage0; ++p)
            footprint_.push_back({pageAddr(p), kBlockSize});
        for (std::size_t p = kSerialPage0; p < kPages; ++p)
            footprint_.push_back({pageAddr(p), kMaxSliceBytes});

        Rng mixRng(subSeed(seed, "kernels.mix"));
        for (std::size_t i = 0; i < kInstructions; ++i)
            mix_.push_back(draw(i, mixRng));
        for (std::size_t i = kInstructions - 1; i > 0; --i)
            std::swap(mix_[i], mix_[mixRng.below(i + 1)]);
    }

    Iteration iterate(Tracer &tracer, bool first) override
    {
        Iteration it;
        double passNs[2] = {0.0, 0.0};
        for (int pass = 0; pass < 2; ++pass) {
            const bool verified = pass == 1;
            Clock::time_point t0 = Clock::now();
            std::unique_ptr<sim::System> sys;
            {
                auto span = tracer.span("sim.system_build");
                sim::SystemConfig config;
                config.cc.verifyCircuit = verified;
                sys = std::make_unique<sim::System>(config);
                for (const auto &[addr, len] : footprint_)
                    sys->load(addr, image_.data() + offsetOf(addr), len);
            }
            {
                auto span = tracer.span("cache.warm");
                for (const auto &[addr, len] : footprint_)
                    sys->warm(CacheLevel::L3, 0, addr, len);
                sys->resetMetrics();
            }
            it.setupS += secondsSince(t0);

            std::vector<std::uint8_t> shadow = image_;
            for (const CcInstruction &in : mix_) {
                const bool serial = cc::isBitSerial(in.op);
                cc::CcExecResult res;
                Clock::time_point a = Clock::now();
                try {
                    auto span = tracer.span(verified ? "cc.execute_verified"
                                                     : "cc.execute");
                    res = sys->cc().execute(0, in);
                } catch (const SimError &e) {
                    // The circuit cross-check disagreed with the
                    // functional model.
                    ++it.attempted;
                    ++it.failed;
                    std::fprintf(stderr, "cc_kernels: %s: %s\n",
                                 in.toString().c_str(), e.what());
                    continue;
                }
                double ns = nanosBetween(a, Clock::now());
                passNs[pass] += ns;
                if (tracer.enabled() && !verified)
                    it.samples[serial ? "cc.bitserial_ns" : "cc.execute_ns"]
                        .push_back(ns);
                check(*sys, in, res, shadow, it);
                char buf[64];
                std::snprintf(buf, sizeof buf, "%016llx %llu\n",
                              static_cast<unsigned long long>(res.result),
                              static_cast<unsigned long long>(res.latency));
                it.digest += buf;
            }
            it.runS += passNs[pass] * 1e-9;
            it.runS += dumpStats(tracer, *sys, it.digest);

            if (first || tracer.enabled()) {
                it.events += simulatedEvents(*sys);
                addLayerCounters(*sys, it.values);
            }
        }
        if (first || tracer.enabled()) {
            double verifications = it.values["cc.circuit_verifications"];
            finishLayerCounters(it.values);
            it.values["sram.verify_ns_per_op"] = verifications > 0.0
                ? (passNs[1] - passNs[0]) / verifications
                : 0.0;
        }
        return it;
    }

  private:
    /**
     * Instruction @p i of the mix. The opcode, size and width follow from
     * @p i alone, so every seed runs the same amount of each kind of
     * work; @p rng picks the operands (and the caller the order).
     */
    static CcInstruction draw(std::size_t i, Rng &rng)
    {
        auto vec = [&](std::size_t page) { return pageAddr(page); };
        // Three distinct bitwise vectors.
        std::size_t p[3];
        p[0] = rng.below(kVectorPages);
        do { p[1] = rng.below(kVectorPages); } while (p[1] == p[0]);
        do {
            p[2] = rng.below(kVectorPages);
        } while (p[2] == p[0] || p[2] == p[1]);
        constexpr std::size_t kKinds = 11;
        const std::size_t round = i / kKinds;
        const std::size_t sizes[] = {512, 1024, 2048, 4096};
        std::size_t n = sizes[round % 4];
        std::size_t small = round % 2 ? 256 : 512;

        switch (i % kKinds) {
          case 0: return CcInstruction::copy(vec(p[0]), vec(p[1]), n);
          case 1: return CcInstruction::buz(vec(p[0]), n);
          case 2:
            return CcInstruction::logicalAnd(vec(p[0]), vec(p[1]), vec(p[2]),
                                             n);
          case 3:
            return CcInstruction::logicalOr(vec(p[0]), vec(p[1]), vec(p[2]),
                                            n);
          case 4:
            return CcInstruction::logicalXor(vec(p[0]), vec(p[1]), vec(p[2]),
                                             n);
          case 5: return CcInstruction::logicalNot(vec(p[0]), vec(p[1]), n);
          case 6: return CcInstruction::cmp(vec(p[0]), vec(p[1]), small);
          case 7:
            return CcInstruction::search(
                vec(p[0]), pageAddr(kKeyPage0 + rng.below(kKeyPages)),
                small);
          case 8: {
            const std::size_t widths[] = {64, 128, 256};
            return CcInstruction::clmul(vec(p[0]), vec(p[1]), vec(p[2]), n,
                                        widths[round % 3]);
          }
          default: {
            // Bit-serial: three distinct operands of kLaneBits slices.
            std::size_t o[3];
            o[0] = rng.below(kSerialOperands);
            do { o[1] = rng.below(kSerialOperands); } while (o[1] == o[0]);
            do {
                o[2] = rng.below(kSerialOperands);
            } while (o[2] == o[0] || o[2] == o[1]);
            auto root = [](std::size_t op) {
                return pageAddr(kSerialPage0 + op * kLaneBits);
            };
            std::size_t sliceBytes = round % 2 ? 64 : kMaxSliceBytes;
            return i % kKinds == 9
                ? CcInstruction::add(root(o[0]), root(o[1]), root(o[2]),
                                     sliceBytes, kLaneBits)
                : CcInstruction::mul(root(o[0]), root(o[1]), root(o[2]),
                                     sliceBytes, kLaneBits);
          }
        }
    }

    /** Compare @p res and the written bytes with the host reference,
     *  which this call also advances. */
    static void check(sim::System &sys, const CcInstruction &in,
                      const cc::CcExecResult &res,
                      std::vector<std::uint8_t> &shadow, Iteration &it)
    {
        ++it.attempted;
        bool ok = reference(in, shadow) == res.result ||
            !cc::isCcR(in.op);
        for (const auto &[addr, len] : writtenRanges(in)) {
            std::vector<std::uint8_t> got = sys.dump(addr, len);
            ok = ok &&
                std::memcmp(got.data(), shadow.data() + offsetOf(addr),
                            len) == 0;
        }
        if (!ok) {
            ++it.failed;
            std::fprintf(stderr, "cc_kernels: %s differs from the host "
                         "reference\n", in.toString().c_str());
        }
    }

    std::vector<std::uint8_t> image_;
    std::vector<std::pair<Addr, std::size_t>> footprint_;
    std::vector<CcInstruction> mix_;
};

} // namespace

std::unique_ptr<Workload>
makeCcKernels(std::uint64_t seed)
{
    return std::make_unique<CcKernels>(seed);
}

} // namespace perfbench
