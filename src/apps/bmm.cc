#include "apps/bmm.hh"

#include <bit>
#include <cstring>

#include "common/bit_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace ccache::apps {

BitMatrix
BitMatrix::transposed() const
{
    BitMatrix t(n_);
    for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t j = 0; j < n_; ++j)
            t.set(j, i, get(i, j));
    return t;
}

BitMatrix
BitMatrix::multiply(const BitMatrix &a, const BitMatrix &b)
{
    CC_ASSERT(a.size() == b.size(), "dimension mismatch");
    std::size_t n = a.size();
    BitMatrix bt = b.transposed();
    BitMatrix c(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            // c[i][j] = parity(a_row_i & b_col_j) over GF(2).
            BitVector prod = a.row(i) & bt.row(j);
            c.set(i, j, (prod.popcount() & 1) != 0);
        }
    }
    return c;
}

Bmm::Bmm(const BmmConfig &config)
    : config_(config), a_(config.n), b_(config.n), bt_(config.n),
      expected_(config.n), computed_(config.n)
{
    CC_ASSERT(config.n == 64 || config.n == 128 || config.n == 256,
              "matrix dimension must match a clmul width (64/128/256)");
    Rng rng(config.seed);
    for (std::size_t i = 0; i < config.n; ++i) {
        for (std::size_t j = 0; j < config.n; ++j) {
            a_.set(i, j, rng.chance(0.5));
            b_.set(i, j, rng.chance(0.5));
        }
    }
    bt_ = b_.transposed();
    expected_ = BitMatrix::multiply(a_, b_);
}

AppRunResult
Bmm::runBaseline(sim::System &sys, Engine engine)
{
    auto &hier = sys.hierarchy();
    auto &em = sys.energy();
    sim::CoreCostModel cost(sys.config().core);
    std::uint64_t extra_instrs = 0;

    std::size_t n = config_.n;
    std::size_t rb = rowBytes();

    // Load A and B-transpose row-major into simulated memory.
    for (std::size_t i = 0; i < n; ++i) {
        auto arow = a_.row(i).toBytes();
        auto btrow = bt_.row(i).toBytes();
        sys.load(config_.aBase + i * rb, arow.data(), rb);
        sys.load(config_.btBase + i * rb, btrow.data(), rb);
    }

    std::size_t vec = engine == Engine::Base32 ? 32 : 8;
    computed_ = BitMatrix(n);

    // Blocked CLMUL baseline: row i stays in registers while the inner
    // loop streams the columns (which stay hot in L1 by reuse).
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t off = 0; off < rb; off += vec) {
            Cycles lat =
                hier.loadBytes(0, config_.aBase + i * rb + off, nullptr,
                               vec);
            cost.addMemAccess(lat);
        }
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t off = 0; off < rb; off += vec) {
                Cycles lat = hier.loadBytes(
                    0, config_.btBase + j * rb + off, nullptr, vec);
                cost.addMemAccess(lat);
            }
            // AND + POPCNT per 64-bit word, then parity combine + store
            // of the output bit (batched per word in practice).
            std::size_t words = rb / 8;
            cost.addInstrs(2 * words + 3);
            extra_instrs += 2 * words + 3;

            BitVector prod = a_.row(i) & bt_.row(j);
            computed_.set(i, j, (prod.popcount() & 1) != 0);
        }
        // Write the finished output row.
        auto crow = computed_.row(i).toBytes();
        Cycles lat = hier.storeBytes(0, config_.cBase + i * rb,
                                     crow.data(), rb);
        cost.addMemAccess(lat);
    }

    em.chargeInstructions(extra_instrs);
    if (engine == Engine::Base32)
        em.chargeVectorInstructions(0);

    CC_ASSERT(computed_ == expected_, "baseline BMM result wrong");

    AppRunResult res;
    res.cycles = cost.cycles();
    res.instructions = cost.instructions();
    sys.advance(0, res.cycles);
    res.dynamic = em.dynamic();
    res.totals = sys.totals();
    res.checksum = 0;
    for (std::size_t i = 0; i < n; ++i)
        res.checksum ^= computed_.row(i).popcount() * (i + 1);
    return res;
}

AppRunResult
Bmm::runCc(sim::System &sys)
{
    auto &hier = sys.hierarchy();
    auto &em = sys.energy();
    sim::CoreCostModel cost(sys.config().core);
    std::uint64_t extra_instrs = 0;
    Cycles cc_cycles = 0;

    std::size_t n = config_.n;
    std::size_t rb = rowBytes();
    std::size_t rpb = rowsPerBlock();
    std::size_t total_blocks = n / rpb;   // blocks per matrix
    std::size_t bits_per_op = rpb;        // parities per block op

    for (std::size_t i = 0; i < n; ++i) {
        auto arow = a_.row(i).toBytes();
        auto btrow = bt_.row(i).toBytes();
        sys.load(config_.aBase + i * rb, arow.data(), rb);
        sys.load(config_.btBase + i * rb, btrow.data(), rb);
    }

    sys.cc().mutableParams().forceLevel = config_.ccLevel;
    computed_ = BitMatrix(n);

    // Issue one replicated clmul per (BT block, lane rotation, A page):
    // the controller replicates the rotated BT block into each partition
    // holding A data and streams the packed parities into the scratch.
    std::size_t a_bytes = n * rb;
    std::size_t page_chunk = std::min<std::size_t>(a_bytes, kPageSize);
    std::size_t blocks_per_chunk = page_chunk / kBlockSize;

    std::size_t scratch_idx = 0;
    struct Issue
    {
        std::size_t cb, rot;
        Addr chunk;         ///< A offset
        Addr dest;
    };
    std::vector<Issue> issues;
    std::vector<cc::CcInstruction> instrs;

    for (std::size_t cb = 0; cb < total_blocks; ++cb) {
        for (std::size_t rot = 0; rot < rpb; ++rot) {
            // Build the lane-rotated BT block in the scratch region: one
            // block read, a shuffle, one block write on the core.
            Block rotated{};
            for (std::size_t lane = 0; lane < rpb; ++lane) {
                std::size_t src_row = cb * rpb + (lane + rot) % rpb;
                auto bytes = bt_.row(src_row).toBytes();
                std::memcpy(rotated.data() + lane * rb, bytes.data(), rb);
            }
            Addr rot_addr = config_.scratchBase + 0x8000 +
                ((cb * rpb + rot) % 64) * kBlockSize;
            Cycles lat = hier.loadBytes(
                0, config_.btBase + cb * kBlockSize, nullptr, kBlockSize);
            cost.addMemAccess(lat);
            lat = hier.storeBytes(0, rot_addr, rotated.data(),
                                  kBlockSize);
            cost.addMemAccess(lat);
            cost.addInstrs(8);
            extra_instrs += 8;

            for (Addr chunk = 0; chunk < a_bytes; chunk += page_chunk) {
                Addr dest = config_.scratchBase +
                    (scratch_idx++ % 64) * kBlockSize;
                issues.push_back({cb, rot, chunk, dest});
                instrs.push_back(cc::CcInstruction::clmulReplicated(
                    config_.aBase + chunk, rot_addr, dest, page_chunk,
                    n));

                // Streams hold at most eight instructions, the
                // paper's instruction-table depth (Section IV-D).
                if (instrs.size() == 8) {
                    Cycles stream_lat = 0;
                    sys.cc().executeStream(0, instrs, &stream_lat);
                    cc_cycles += stream_lat;

                    // Unpack each instruction's packed parities.
                    for (const auto &iss : issues) {
                        std::size_t bits =
                            blocks_per_chunk * bits_per_op;
                        std::vector<std::uint8_t> packed(bits / 8);
                        Cycles l2 = hier.loadBytes(0, iss.dest,
                                                   packed.data(),
                                                   packed.size());
                        cost.addMemAccess(l2);
                        cost.addInstrs(bits / 8);
                        extra_instrs += bits / 8;

                        std::size_t chunk_block = iss.chunk / kBlockSize;
                        for (std::size_t b = 0; b < bits; ++b) {
                            bool v = (packed[b / 8] >> (b % 8)) & 1;
                            std::size_t op = b / bits_per_op;
                            std::size_t lane = b % bits_per_op;
                            std::size_t row =
                                (chunk_block + op) * rpb + lane;
                            std::size_t col = iss.cb * rpb +
                                (lane + iss.rot) % rpb;
                            computed_.set(row, col, v);
                        }
                    }
                    instrs.clear();
                    issues.clear();
                }
            }
        }
    }
    CC_ASSERT(instrs.empty(), "stream flush misses the tail");

    // Write the product back as the application's output.
    for (std::size_t i = 0; i < n; ++i) {
        auto crow = computed_.row(i).toBytes();
        Cycles lat = hier.storeBytes(0, config_.cBase + i * rb,
                                     crow.data(), rb);
        cost.addMemAccess(lat);
    }

    em.chargeInstructions(extra_instrs);

    CC_ASSERT(computed_ == expected_, "CC BMM result wrong");

    AppRunResult res;
    res.cycles = cost.cycles() + cc_cycles;
    res.instructions = cost.instructions() +
        sys.stats().value("cc.instructions");
    sys.advance(0, res.cycles);
    res.dynamic = em.dynamic();
    res.totals = sys.totals();
    res.checksum = 0;
    for (std::size_t i = 0; i < n; ++i)
        res.checksum ^= computed_.row(i).popcount() * (i + 1);
    return res;
}

AppRunResult
Bmm::run(sim::System &sys, Engine engine)
{
    return engine == Engine::Cc ? runCc(sys) : runBaseline(sys, engine);
}

} // namespace ccache::apps
