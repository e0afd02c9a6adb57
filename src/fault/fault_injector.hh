/**
 * @file
 * Deterministic fault injection for bit-line Compute Caches.
 *
 * Compute Caches' central circuit risk (Sections II-B, IV-B, IV-I) is
 * that dual-word-line activation senses with reduced margin and that
 * in-place operations bypass the normal per-word ECC read path. This
 * injector models the resulting silicon failure modes so the rest of the
 * simulator can evaluate detection coverage and graceful degradation:
 *
 *  - transient (soft-error) bit flips striking an operand as it is
 *    sensed: single-bit (SECDED-correctable), double-bit in one word
 *    (detected, uncorrectable) and 3-bit bursts in one word (alias to a
 *    miscorrection -> the silent-corruption channel);
 *  - stuck-at cells, deterministic in location (keyed by the block's
 *    physical placement), which persist across retries and only clear
 *    when the line is discarded and remapped;
 *  - sensing-margin failures that fire only on dual-row activations --
 *    single-row (near-place, baseline read) sensing always sees full
 *    margin;
 *  - background upsets that strike resident blocks between
 *    instructions, accumulating as latent errors until an access or the
 *    scrubber corrects them.
 *
 * Every decision is drawn from one seeded xoshiro stream (event draws)
 * or a pure location hash (stuck-at cells, weak-sub-array selection), so
 * a fixed seed plus a fixed instruction stream reproduces the exact same
 * fault history -- the property the ablation benches and tests rely on.
 * With FaultParams::enabled false no stream is consumed and no state is
 * touched, keeping fault-free runs bit-identical to a build without the
 * subsystem.
 */

#ifndef CCACHE_FAULT_FAULT_INJECTOR_HH
#define CCACHE_FAULT_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/block.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace ccache::fault {

/** Classes of injected faults. */
enum class FaultKind {
    None,
    TransientSingle,  ///< one flipped bit; SECDED corrects it
    TransientDouble,  ///< two flipped bits in one word; detected only
    TransientBurst,   ///< three adjacent flips in one word; may alias
    StuckAt,          ///< persistent cell defect at a fixed location
    MarginFail,       ///< dual-row sense margin collapse (detected)
};

const char *toString(FaultKind kind);

/** One concrete fault: which bits of a 64-byte block are wrong. */
struct FaultEvent
{
    FaultKind kind = FaultKind::None;
    unsigned nbits = 0;
    std::array<unsigned, 3> bits{};  ///< positions within the 512 bits

    bool none() const { return kind == FaultKind::None; }
};

/** Injection rates and knobs. All rates are probabilities per event. */
struct FaultParams
{
    /** Master switch; false means no draws, no state, no cost. */
    bool enabled = false;

    /** Seed for the event stream and the location hashes. */
    std::uint64_t seed = 1;

    /** P(transient upset per sensed operand block). */
    double transientPerBlockOp = 0.0;

    /** Fraction of transients flipping two bits of one word. */
    double doubleBitFraction = 0.1;

    /** Fraction of transients flipping a 3-bit burst in one word
     *  (beyond SECDED: the silent-corruption channel). */
    double burstFraction = 0.0;

    /** P(a block's cells contain a stuck bit), by physical location. */
    double stuckAtPerBlock = 0.0;

    /** Fraction of stuck blocks with two stuck bits in one word
     *  (uncorrectable until the line is discarded and remapped). */
    double stuckAtDoubleFraction = 0.0;

    /** P(sense-margin failure per dual-row activation). */
    double marginFailPerDualRowOp = 0.0;

    /** P(a background upset strikes some resident block, per
     *  instruction). Latent until an access or the scrubber finds it. */
    double backgroundUpsetPerInstr = 0.0;

    /** Process variation: this fraction of sub-arrays is "weak" and
     *  draws at weakSubarrayScale times the configured rates. @{ */
    double weakSubarrayFraction = 0.0;
    double weakSubarrayScale = 4.0;
    /** @} */

    /** Throws FatalError when a rate is outside [0, 1] or the scale is
     *  negative. */
    void validate() const;
};

/** Stable identifier of one physical sub-array (or block partition)
 *  across the hierarchy, for per-sub-array rate scaling. */
constexpr std::uint64_t
subarrayId(CacheLevel level, unsigned cache_index, std::size_t partition)
{
    return (static_cast<std::uint64_t>(level) << 48) ^
           (static_cast<std::uint64_t>(cache_index) << 24) ^
           static_cast<std::uint64_t>(partition);
}

/** The injector: one per controller. */
class FaultInjector
{
  public:
    FaultInjector() : FaultInjector(FaultParams{}) {}
    explicit FaultInjector(const FaultParams &params);

    const FaultParams &params() const { return params_; }
    bool enabled() const { return params_.enabled; }

    /**
     * Swap the injection rates mid-run (validated). The event stream's
     * RNG state is preserved — changing rates never rewinds or reseeds
     * it — so a run that applies the same parameter schedule at the
     * same points in its instruction stream reproduces the same fault
     * history. The serving layer's chaos harness uses this to raise
     * margin-fail / stuck-at storms on a shard for a bounded window of
     * simulated time (DESIGN.md §12). Location-keyed faults (stuck-at,
     * weak sub-arrays) re-key if the seed changes; pass the original
     * seed to keep them stable across windows.
     */
    void setParams(const FaultParams &params);

    /** Deterministic rate multiplier of one sub-array (1.0, or
     *  weakSubarrayScale for the hash-selected weak fraction). */
    double rateScale(std::uint64_t subarray_id) const;

    /** Draw the transient fault (if any) striking one sensed block. */
    FaultEvent drawOperandFault(std::uint64_t subarray_id);

    /** Draw a dual-row sensing-margin failure. */
    bool drawMarginFailure(std::uint64_t subarray_id);

    /** Draw-free stuck-at defect of the cells currently holding
     *  @p addr in @p subarray_id; identical on every call. */
    FaultEvent stuckAtFault(std::uint64_t subarray_id, Addr addr) const;

    /** After a discard-and-refill the line occupies fresh cells; stuck
     *  defects keyed to the old location no longer apply. @{ */
    void remap(Addr addr);
    bool isRemapped(Addr addr) const;
    /** @} */

    /** Apply an event's bit flips. */
    static void corrupt(Block &block, const FaultEvent &event);

    // ---------------------------------------------------------------
    // Background upsets + scrubbing support
    // ---------------------------------------------------------------

    /** Track @p addr as resident (a staged CC operand); the background
     *  upset process and the scrubber walk this set. */
    void noteResident(Addr addr);

    /** Advance the background upset process by one instruction. */
    void backgroundTick();

    /** Latent (not yet corrected) error on @p addr, if any. */
    const FaultEvent *latentAt(Addr addr) const;

    /** Merge the latent flips of @p addr into sensed data. */
    void applyLatent(Addr addr, Block &block) const;

    /** Clear a latent error after correction or refill. */
    void clearLatent(Addr addr);

    /** One scrubber stop: a resident block and its latent fault. */
    struct ScrubVisit
    {
        Addr addr = 0;
        FaultEvent event;
    };

    /** Walk up to @p max_blocks resident blocks round-robin; returns
     *  the visited blocks that carry latent faults and reports the
     *  number of blocks actually visited via @p visited. */
    std::vector<ScrubVisit> scrubVisit(std::size_t max_blocks,
                                       std::size_t *visited);

    /** Introspection for stats and tests. @{ */
    std::uint64_t transientsInjected() const { return transients_; }
    std::uint64_t marginFailsInjected() const { return marginFails_; }
    std::uint64_t backgroundUpsets() const { return upsets_; }
    std::size_t residentBlocks() const { return residents_.size(); }
    std::size_t latentCount() const { return latent_.size(); }
    /** @} */

  private:
    /** Pure location hash mixing the seed with two keys. */
    std::uint64_t locHash(std::uint64_t a, std::uint64_t b) const;

    FaultParams params_;
    Rng rng_;

    std::vector<Addr> residents_;
    std::unordered_set<Addr> residentSet_;
    std::unordered_map<Addr, FaultEvent> latent_;
    std::unordered_set<Addr> remapped_;
    std::size_t scrubCursor_ = 0;

    std::uint64_t transients_ = 0;
    std::uint64_t marginFails_ = 0;
    std::uint64_t upsets_ = 0;
};

} // namespace ccache::fault

#endif // CCACHE_FAULT_FAULT_INJECTOR_HH
