#include "sample/idiom.hh"

#include <algorithm>
#include <unordered_map>

#include "cc/isa.hh"
#include "common/logging.hh"

namespace ccache::sample {

namespace {

using sim::TraceRecord;

bool
blockAligned(Addr a)
{
    return (a & (kBlockSize - 1)) == 0;
}

/** Per-core run automaton. Buffers the raw records of the run in
 *  progress so a too-short run replays them untouched. */
struct RunState
{
    enum class Mode {
        None,      ///< no run in progress
        FirstRead, ///< one read seen; copy or cmp can begin
        Copy,      ///< (R src+k, W dst+k) pairs; maybe mid-pair
        Cmp,       ///< (R a+k, R b+k) pairs; maybe mid-pair
        Zero,      ///< W base+k stores
    };

    Mode mode = Mode::None;
    Addr src = 0;            ///< first operand base
    Addr dst = 0;            ///< second operand base (copy dst / cmp b)
    std::size_t blocks = 0;  ///< complete block (pairs) matched
    bool midPair = false;    ///< first half of the next pair consumed
    std::vector<TraceRecord> raw;
};

class Converter
{
  public:
    explicit Converter(ConvertResult &out) : out_(out) {}

    void feed(const TraceRecord &rec)
    {
        ++out_.stats.recordsIn;
        if (rec.kind == TraceRecord::Kind::CcOp) {
            // A CC op breaks any run on its core and passes through.
            flush(stateOf(rec.core));
            emit(rec);
            return;
        }
        if (!blockAligned(rec.addr)) {
            flush(stateOf(rec.core));
            emit(rec);
            return;
        }
        step(stateOf(rec.core), rec);
    }

    void finish()
    {
        // Flush in core order for deterministic tail output.
        std::vector<CoreId> cores;
        cores.reserve(states_.size());
        for (auto &[core, st] : states_)
            cores.push_back(core);
        std::sort(cores.begin(), cores.end());
        for (CoreId c : cores)
            flush(states_[c]);
    }

  private:
    RunState &stateOf(CoreId core) { return states_[core]; }

    void emit(const TraceRecord &rec)
    {
        out_.records.push_back(rec);
        ++out_.stats.recordsOut;
    }

    /** Try to extend the run with @p rec; if it does not fit, flush
     *  and retry from the fresh state (at most twice). */
    void step(RunState &st, const TraceRecord &rec)
    {
        if (extend(st, rec))
            return;
        flush(st);
        if (extend(st, rec))
            return;
        // A lone record no automaton state accepts (cannot happen for
        // aligned R/W from Mode::None, but keep the pass total).
        emit(rec);
    }

    bool extend(RunState &st, const TraceRecord &rec)
    {
        bool isRead = rec.kind == TraceRecord::Kind::Read;
        switch (st.mode) {
          case RunState::Mode::None:
            if (isRead) {
                st.mode = RunState::Mode::FirstRead;
                st.src = rec.addr;
            } else {
                st.mode = RunState::Mode::Zero;
                st.src = rec.addr;
                st.blocks = 1;
            }
            st.raw.push_back(rec);
            return true;

          case RunState::Mode::FirstRead:
            if (isRead) {
                st.mode = RunState::Mode::Cmp;
                st.dst = rec.addr;
                st.blocks = 1;
            } else {
                st.mode = RunState::Mode::Copy;
                st.dst = rec.addr;
                st.blocks = 1;
            }
            st.raw.push_back(rec);
            return true;

          case RunState::Mode::Copy:
            if (!st.midPair) {
                if (isRead && rec.addr == next(st.src, st.blocks)) {
                    st.midPair = true;
                    st.raw.push_back(rec);
                    return true;
                }
            } else {
                if (!isRead && rec.addr == next(st.dst, st.blocks)) {
                    st.midPair = false;
                    ++st.blocks;
                    st.raw.push_back(rec);
                    return true;
                }
            }
            return false;

          case RunState::Mode::Cmp:
            if (!st.midPair) {
                if (isRead && rec.addr == next(st.src, st.blocks)) {
                    st.midPair = true;
                    st.raw.push_back(rec);
                    return true;
                }
            } else {
                if (isRead && rec.addr == next(st.dst, st.blocks)) {
                    st.midPair = false;
                    ++st.blocks;
                    st.raw.push_back(rec);
                    return true;
                }
            }
            return false;

          case RunState::Mode::Zero:
            if (!isRead && rec.addr == next(st.src, st.blocks)) {
                ++st.blocks;
                st.raw.push_back(rec);
                return true;
            }
            return false;
        }
        return false;
    }

    static Addr next(Addr base, std::size_t blocks)
    {
        return base + blocks * kBlockSize;
    }

    /**
     * End the run in progress: emit CC instruction(s) when it is long
     * enough and encodes validly, otherwise replay the buffered raw
     * records. A half-consumed pair (midPair) always replays raw at
     * the tail.
     */
    void flush(RunState &st)
    {
        if (st.mode == RunState::Mode::None)
            return;

        bool converted = false;
        if (st.blocks >= kMinRunBlocks) {
            switch (st.mode) {
              case RunState::Mode::Copy:
                converted = emitChunked(
                    st, cc::kMaxVectorBytes,
                    [](Addr a, Addr b, std::size_t n) {
                        return cc::CcInstruction::copy(a, b, n);
                    });
                if (converted) {
                    ++out_.stats.copyRuns;
                    out_.stats.copyBlocks += st.blocks;
                }
                break;
              case RunState::Mode::Cmp:
                converted = emitChunked(
                    st, cc::kMaxCmpBytes,
                    [](Addr a, Addr b, std::size_t n) {
                        return cc::CcInstruction::cmp(a, b, n);
                    });
                if (converted) {
                    ++out_.stats.cmpRuns;
                    out_.stats.cmpBlocks += st.blocks;
                }
                break;
              case RunState::Mode::Zero:
                converted = emitChunked(
                    st, cc::kMaxVectorBytes,
                    [](Addr a, Addr, std::size_t n) {
                        return cc::CcInstruction::buz(a, n);
                    });
                if (converted) {
                    ++out_.stats.zeroRuns;
                    out_.stats.zeroBlocks += st.blocks;
                }
                break;
              default:
                break;
            }
        }

        if (!converted) {
            for (const TraceRecord &r : st.raw)
                emit(r);
        } else if (st.midPair) {
            // The dangling half pair was not covered by the emitted
            // instructions; replay it raw.
            emit(st.raw.back());
        }

        st.mode = RunState::Mode::None;
        st.blocks = 0;
        st.midPair = false;
        st.raw.clear();
    }

    /** Emit the run as CC records of at most @p cap bytes each. Any
     *  encoding the ISA rejects aborts the conversion (caller then
     *  replays raw) — defensive; aligned block runs always encode. */
    template <typename Build>
    bool emitChunked(RunState &st, std::size_t cap, Build build)
    {
        std::vector<TraceRecord> ccRecs;
        std::size_t capBlocks = cap / kBlockSize;
        std::size_t done = 0;
        while (done < st.blocks) {
            std::size_t n = std::min(capBlocks, st.blocks - done);
            TraceRecord rec;
            rec.kind = TraceRecord::Kind::CcOp;
            rec.core = st.raw.front().core;
            rec.instr = build(next(st.src, done), next(st.dst, done),
                              n * kBlockSize);
            try {
                rec.instr.validate();
            } catch (const FatalError &) {
                return false;
            }
            ccRecs.push_back(rec);
            done += n;
        }
        for (const TraceRecord &r : ccRecs)
            emit(r);
        return true;
    }

    ConvertResult &out_;
    std::unordered_map<CoreId, RunState> states_;
};

} // namespace

ConvertResult
convertIdioms(const std::vector<sim::TraceRecord> &records)
{
    ConvertResult out;
    out.records.reserve(records.size());
    Converter conv(out);
    for (const TraceRecord &rec : records)
        conv.feed(rec);
    conv.finish();
    return out;
}

} // namespace ccache::sample
