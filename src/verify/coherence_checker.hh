/**
 * @file
 * CoherenceChecker: shadow-state MESI auditor (DESIGN.md §9).
 *
 * CC operations acquire coherence permissions exactly like ordinary
 * loads and stores (Section IV-C), so every cycle/energy number this
 * simulator reproduces rests on the directory protocol staying sound —
 * including across in-place/near-place ops and the fault ladder's RISC
 * refill+remap rung. The checker audits the real cache arrays and
 * directories after every hierarchy transaction and CC instruction:
 *
 *  - SWMR: at most one core holds a writable (E/M) copy of a block in
 *    its private L1/L2, and no other core holds ANY valid copy while a
 *    writable copy exists (no M+S coexistence).
 *  - Inclusion: a valid L1 line is present in the same core's L2; a
 *    valid L2 line is present in the block's home L3 slice.
 *  - Directory agreement: every real private copy is covered by its
 *    home directory entry (sharer bit set; a writable copy's core is
 *    the recorded owner), and a tracked block is resident in its home
 *    slice. The directory may legally over-approximate — claim sharers
 *    or an owner with no surviving real copy — because exclusive
 *    grants are recorded before a fill that pinned CC operand sets can
 *    still refuse (Section IV-E back-pressure); the checker is strict
 *    only in the reality ⊆ directory direction.
 *
 * A violation throws SimError carrying a JSON diagnostic of every
 * failed invariant at that address. The per-transaction hook audits
 * the touched block plus, every auditInterval transactions, the entire
 * reachable state (all private lines + all directory entries), keeping
 * overhead bounded. The checker only reads the machine and counts its
 * work in its own object, never in a StatRegistry, so enabling it
 * cannot perturb the determinism contract (DESIGN.md §8).
 */

#ifndef CCACHE_VERIFY_COHERENCE_CHECKER_HH
#define CCACHE_VERIFY_COHERENCE_CHECKER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/types.hh"

namespace ccache::verify {

/** Checker knobs. */
struct CoherenceCheckerParams
{
    /** Full-state audit every N per-transaction checks (1 = every
     *  transaction, as the unit tests use; 0 disables sampling and
     *  leaves only the per-address checks). */
    std::uint64_t auditInterval = 64;
};

/** One failed invariant at one block address. */
struct CoherenceViolation
{
    std::string invariant;   ///< e.g. "swmr", "inclusion.l1_l2"
    Addr addr = 0;
    std::string detail;
};

/** See file header. Install via Hierarchy/CcController::setChecker. */
class CoherenceChecker
{
  public:
    explicit CoherenceChecker(cache::Hierarchy &hier,
                              const CoherenceCheckerParams &params = {});

    const CoherenceCheckerParams &params() const { return params_; }

    /**
     * Transaction hook: audit @p addr, plus a sampled full audit.
     * Throws SimError on any violation. Called by the hierarchy after
     * every read/write/fetch and by the CC controller for every operand
     * block of a completed instruction.
     */
    void onTransaction(Addr addr);

    /** Unsampled full audit that throws on violations (used after
     *  flushAll, where ALL state must be gone). */
    void checkNow();

    /** Non-throwing audits, for tests and diagnostics. @{ */
    std::vector<CoherenceViolation> auditAddr(Addr addr);
    std::vector<CoherenceViolation> auditAll();
    /** @} */

    /** Work done so far. @{ */
    std::uint64_t checksRun() const { return checks_; }
    std::uint64_t fullAudits() const { return fullAudits_; }
    /** @} */

  private:
    /** Every core's L1 and L2 state of one block (Invalid: absent). */
    struct PrivateStates
    {
        std::array<cache::Mesi, cache::Hierarchy::kCores> l1;
        std::array<cache::Mesi, cache::Hierarchy::kCores> l2;
    };

    /** Audit one address into @p out (no throw, no accounting): probe
     *  each core's L1 and L2, then checkBlock. */
    void auditAddrInto(Addr addr, std::vector<CoherenceViolation> &out);

    /** Check every invariant of block @p addr, whose private copies are
     *  @p priv, into @p out; probes only its home slice and directory. */
    void checkBlock(Addr addr, const PrivateStates &priv,
                    std::vector<CoherenceViolation> &out);

    [[noreturn]] void raise(const std::vector<CoherenceViolation> &v);

    cache::Hierarchy &hier_;
    CoherenceCheckerParams params_;
    std::uint64_t checks_ = 0;
    std::uint64_t fullAudits_ = 0;
};

} // namespace ccache::verify

#endif // CCACHE_VERIFY_COHERENCE_CHECKER_HH
