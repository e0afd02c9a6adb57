#include "cc/vector_lsq.hh"

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::cc {

VectorAccess
VectorAccess::of(const CcInstruction &instr)
{
    VectorAccess a;
    switch (instr.op) {
      case CcOpcode::Copy:
      case CcOpcode::Not:
        a.reads.push_back({instr.src1, instr.size});
        a.writes.push_back({instr.dest, instr.size});
        break;
      case CcOpcode::Buz:
        a.writes.push_back({instr.dest, instr.size});
        break;
      case CcOpcode::Cmp:
        a.reads.push_back({instr.src1, instr.size});
        a.reads.push_back({instr.src2, instr.size});
        break;
      case CcOpcode::Search:
        a.reads.push_back({instr.src1, instr.size});
        a.reads.push_back({instr.src2, kSearchKeyBytes});
        break;
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor:
      case CcOpcode::Clmul:
        a.reads.push_back({instr.src1, instr.size});
        a.reads.push_back({instr.src2, instr.size});
        a.writes.push_back({instr.dest, instr.size});
        break;
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq: {
        // One range per transposed operand, from slice 0 to the end of its
        // last slice. It also covers the gaps between slices: a
        // conservative overlap test that keeps the entry at 3 comparators.
        auto stack = [&](Addr base) {
            Addr last = CcInstruction::sliceAddr(
                base, instr.sliceCount(base) - 1);
            return AddrRange{base, last + instr.size - base};
        };
        a.reads.push_back(stack(instr.src1));
        a.reads.push_back(stack(instr.src2));
        a.writes.push_back(stack(instr.dest));
        break;
      }
    }
    return a;
}

VectorLsq::VectorLsq(const VectorLsqParams &params)
    : params_(params), scalar_(params.scalarStoreEntries),
      vector_(params.vectorEntries)
{
}

std::optional<LsqId>
VectorLsq::insertScalarStore(Addr addr)
{
    // Coalescing: an in-flight, un-stalled store to the same word absorbs
    // the new one.
    Addr word = alignDown(addr, 8);
    for (std::size_t i = 0; i < scalar_.size(); ++i) {
        if (scalar_[i].valid && !scalar_[i].stalled &&
            alignDown(scalar_[i].addr, 8) == word) {
            return i;
        }
    }

    for (std::size_t i = 0; i < scalar_.size(); ++i) {
        if (scalar_[i].valid)
            continue;
        ScalarEntry &e = scalar_[i];
        e = ScalarEntry{};
        e.valid = true;
        e.addr = addr;
        e.seq = ++seq_;

        // Same location already pending in the vector store buffer?
        // Stall this store behind it (program order between stores to the
        // same location, Section IV-H).
        for (std::size_t v = 0; v < vector_.size(); ++v) {
            if (!vector_[v].valid || !vector_[v].isStore)
                continue;
            for (const auto &w : vector_[v].access.writes) {
                if (w.contains(addr)) {
                    e.stalled = true;
                    vector_[v].successorScalar = i;
                    ++stalls_;
                }
            }
        }
        return i;
    }
    return std::nullopt;
}

std::optional<LsqId>
VectorLsq::insertVector(const CcInstruction &instr)
{
    VectorAccess access = VectorAccess::of(instr);
    if (access.comparisons() > params_.maxComparisonsPerEntry)
        return std::nullopt;

    for (std::size_t i = 0; i < vector_.size(); ++i) {
        if (vector_[i].valid)
            continue;
        VectorEntry &e = vector_[i];
        e = VectorEntry{};
        e.valid = true;
        e.instr = instr;
        e.access = access;
        e.isStore = !isCcR(instr.op);
        e.seq = ++seq_;

        if (e.isStore) {
            // Stall behind any pending scalar store to the same location.
            for (std::size_t s = 0; s < scalar_.size(); ++s) {
                if (!scalar_[s].valid)
                    continue;
                for (const auto &w : e.access.writes) {
                    if (w.contains(scalar_[s].addr)) {
                        e.stalled = true;
                        scalar_[s].successorVector = i;
                        ++stalls_;
                    }
                }
            }
        }
        return i;
    }
    return std::nullopt;
}

bool
VectorLsq::scalarLoadMayExecute(Addr addr, std::size_t nbytes) const
{
    // No forwarding from vector stores: a load overlapping a pending
    // vector store must wait (Section IV-H).
    AddrRange load{addr, nbytes};
    for (const auto &v : vector_) {
        if (!v.valid || !v.isStore)
            continue;
        for (const auto &w : v.access.writes) {
            if (w.overlaps(load))
                return false;
        }
    }
    return true;
}

bool
VectorLsq::vectorMayExecute(LsqId id) const
{
    CC_ASSERT(id < vector_.size() && vector_[id].valid, "bad vector id");
    const VectorEntry &e = vector_[id];
    if (e.stalled)
        return false;

    // Under RMO, CC-R may bypass older disjoint stores; it must wait for
    // any older overlapping store (scalar or vector).
    for (const auto &s : scalar_) {
        if (!s.valid || s.seq > e.seq)
            continue;
        for (const auto &r : e.access.reads) {
            if (r.contains(s.addr))
                return false;
        }
        for (const auto &w : e.access.writes) {
            if (w.contains(s.addr))
                return false;
        }
    }
    for (std::size_t v = 0; v < vector_.size(); ++v) {
        if (v == id || !vector_[v].valid || vector_[v].seq > e.seq ||
            !vector_[v].isStore) {
            continue;
        }
        for (const auto &w : vector_[v].access.writes) {
            for (const auto &r : e.access.reads) {
                if (w.overlaps(r))
                    return false;
            }
            for (const auto &mine : e.access.writes) {
                if (w.overlaps(mine))
                    return false;
            }
        }
    }
    return true;
}

bool
VectorLsq::isStalled(LsqId id) const
{
    CC_ASSERT(id < vector_.size() || id < scalar_.size(), "bad id");
    if (id < vector_.size() && vector_[id].valid && vector_[id].stalled)
        return true;
    if (id < scalar_.size() && scalar_[id].valid && scalar_[id].stalled)
        return true;
    return false;
}

void
VectorLsq::retireScalarStore(LsqId id)
{
    CC_ASSERT(id < scalar_.size() && scalar_[id].valid, "bad scalar id");
    // The stall bit of the successor is reset when the predecessor store
    // completes.
    if (auto succ = scalar_[id].successorVector) {
        if (vector_[*succ].valid)
            vector_[*succ].stalled = false;
    }
    scalar_[id].valid = false;
}

void
VectorLsq::retireVector(LsqId id)
{
    CC_ASSERT(id < vector_.size() && vector_[id].valid, "bad vector id");
    if (auto succ = vector_[id].successorScalar) {
        if (scalar_[*succ].valid)
            scalar_[*succ].stalled = false;
    }
    vector_[id].valid = false;
}

std::size_t
VectorLsq::scalarStoresInFlight() const
{
    std::size_t n = 0;
    for (const auto &e : scalar_)
        n += e.valid ? 1 : 0;
    return n;
}

std::size_t
VectorLsq::vectorsInFlight() const
{
    std::size_t n = 0;
    for (const auto &e : vector_)
        n += e.valid ? 1 : 0;
    return n;
}

bool
VectorLsq::fenceMayCommit() const
{
    // A fence commits only once every preceding operation, including CC
    // instructions, has completed (Section IV-G).
    return scalarStoresInFlight() == 0 && vectorsInFlight() == 0;
}

} // namespace ccache::cc
