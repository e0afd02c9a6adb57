/**
 * @file
 * Statistics package (gem5-stats-inspired).
 *
 * Components register named scalar counters, floating-point
 * accumulators, distributions (histograms) and derived formulas with a
 * StatRegistry. Names are hierarchical with '.'-separated components
 * following the `<component>.<unit>.<metric>` convention (DESIGN.md §7);
 * a StatGroup handle scopes registration under a common prefix so a
 * component never spells its own prefix twice.
 *
 * Output surfaces:
 *  - dump(): sorted plain text, one `name value` per line (human /
 *    grep-oriented, the historical format);
 *  - dumpJson(): a typed, schema-versioned JSON document
 *    (kStatsSchemaVersion) that bench result files embed and
 *    tools/ccstat diffs. See DESIGN.md §7 for the schema contract.
 */

#ifndef CCACHE_COMMON_STATS_HH
#define CCACHE_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace ccache {

/**
 * Version of the JSON stats schema emitted by StatRegistry::dumpJson().
 * Bump on any change that could break a consumer (renamed sections,
 * changed value types); adding new top-level sections is backward
 * compatible and does not require a bump.
 *
 * v2: histogram bucket arrays switched semantics for the new
 * log-bucketed type — "log_histograms" entries carry sparse
 * [lower, upper, count] triples plus a "quantiles" object, and
 * quantile keys (p50/p90/p99/p999) are part of the contract
 * (DESIGN.md §7.2).
 *
 * v3: the serve-layer shed_log reason vocabulary grew three fleet
 * reasons — "partial_result" (fan-out parent shed after a leg failed
 * terminally), "global_queue_full" (fleet-wide admission budget
 * exhausted with no lower-QoS victim), and "migration_drain"
 * (request expelled from a draining shard during live tenant
 * migration).  Consumers that enumerate reasons exhaustively must
 * learn the new strings (DESIGN.md §7.2).
 */
inline constexpr int kStatsSchemaVersion = 3;

/** A named monotonically-updated scalar statistic. */
class StatCounter
{
  public:
    StatCounter() = default;
    explicit StatCounter(std::string name, std::string desc = "")
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }

    void inc(std::uint64_t delta = 1) { value_ += delta; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/** A named accumulating floating-point statistic (e.g. energy). */
class StatAccum
{
  public:
    StatAccum() = default;
    explicit StatAccum(std::string name, std::string desc = "")
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }

    void add(double delta) { value_ += delta; }
    void reset() { value_ = 0.0; }
    double value() const { return value_; }
    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    double value_ = 0.0;
};

/** Simple histogram with fixed uniform buckets plus an overflow bucket. */
class StatHistogram
{
  public:
    StatHistogram() = default;
    StatHistogram(std::string name, double bucket_width,
                  std::size_t nbuckets, std::string desc = "");

    void sample(double value);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double bucketWidth() const { return bucketWidth_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    double bucketWidth_ = 1.0;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Log-bucketed histogram for long-tailed quantities (latencies, queue
 * depths): values are integer-valued samples bucketed HDR-histogram
 * style — exact below 2^kSubBucketBits, then 2^kSubBucketBits
 * sub-buckets per octave, bounding the relative quantization error by
 * 2^-kSubBucketBits (6.25%) across the whole 64-bit range with under a
 * thousand buckets.
 *
 * Unlike StatHistogram's fixed uniform grid, no upper bound needs to
 * be guessed at registration time, which is what tail-latency
 * accounting needs: p99.9 of a saturated queue can be orders of
 * magnitude above the median. Quantiles are deterministic functions
 * of the recorded counts (no interpolation): quantile(q) is the
 * smallest bucket upper bound covering at least ceil(q * count)
 * samples, clamped to the observed max.
 */
class StatLogHistogram
{
  public:
    /** Sub-bucket resolution: 16 sub-buckets per octave. */
    static constexpr unsigned kSubBucketBits = 4;

    StatLogHistogram() = default;
    explicit StatLogHistogram(std::string name, std::string desc = "")
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }

    void sample(std::uint64_t value);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const;
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }

    /**
     * Upper bound on the q-quantile (0 < q <= 1): the smallest bucket
     * upper bound b with #(samples <= b) >= ceil(q * count), clamped
     * to max(). 0 when empty.
     */
    std::uint64_t quantile(double q) const;

    /** Bucket index of @p value. */
    std::size_t bucketIndex(std::uint64_t value) const;

    /** Smallest / largest value mapping to bucket @p idx. @{ */
    std::uint64_t bucketLowerBound(std::size_t idx) const;
    std::uint64_t bucketUpperBound(std::size_t idx) const;
    /** @} */

    /** Dense bucket counts (sized to the highest sampled index). */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * A named derived statistic: a function of other stats, evaluated at
 * dump time (e.g. a hit ratio or per-instruction rate). Formulas are
 * never reset — they have no state of their own.
 */
class StatFormula
{
  public:
    using Fn = std::function<double()>;

    StatFormula() = default;
    StatFormula(std::string name, Fn fn, std::string desc = "")
        : name_(std::move(name)), desc_(std::move(desc)), fn_(std::move(fn))
    {
    }

    double value() const { return fn_ ? fn_() : 0.0; }
    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    Fn fn_;
};

class StatGroup;

/** Registry that owns every named statistic of one simulation. */
class StatRegistry
{
  public:
    /** Get or create a counter. Names are hierarchical ("l3.read_hits"). */
    StatCounter &counter(const std::string &name,
                         const std::string &desc = "");

    /** Get or create an accumulator. */
    StatAccum &accum(const std::string &name, const std::string &desc = "");

    /** Get or create a histogram. Bucket geometry is fixed by the first
     *  registration; later calls return the existing histogram. */
    StatHistogram &histogram(const std::string &name, double bucket_width,
                             std::size_t nbuckets,
                             const std::string &desc = "");

    /** Get or create a log-bucketed histogram. */
    StatLogHistogram &logHistogram(const std::string &name,
                                   const std::string &desc = "");

    /** Register (or replace) a derived formula evaluated at dump time. */
    StatFormula &formula(const std::string &name, StatFormula::Fn fn,
                         const std::string &desc = "");

    /** A registration handle scoped under @p prefix (no trailing dot). */
    StatGroup group(const std::string &prefix);

    /** Look up an existing counter value; 0 if absent. */
    std::uint64_t value(const std::string &name) const;

    /** Look up an existing accumulator value; 0.0 if absent. */
    double accumValue(const std::string &name) const;

    /** Evaluate an existing formula; 0.0 if absent. */
    double formulaValue(const std::string &name) const;

    /** Look up an existing histogram; nullptr if absent. */
    const StatHistogram *histogramAt(const std::string &name) const;

    /** Look up an existing log histogram; nullptr if absent. */
    const StatLogHistogram *logHistogramAt(const std::string &name) const;

    /** Reset every statistic to zero (formulas have no state). */
    void resetAll();

    /** Render all stats, sorted by name, one per line. */
    std::string dump() const;

    /**
     * Export every statistic as a typed JSON document:
     *
     *     { "schema": "ccache-stats", "version": kStatsSchemaVersion,
     *       "counters":   { "<name>": <integer>, ... },
     *       "accums":     { "<name>": <double>, ... },
     *       "formulas":   { "<name>": <double>, ... },
     *       "histograms": { "<name>": { "count", "mean", "min", "max",
     *                                   "bucket_width", "buckets": [...] } },
     *       "log_histograms": { "<name>": { "count", "mean", "min", "max",
     *                                       "sub_bucket_bits",
     *                                       "quantiles": { "p50", "p90",
     *                                                      "p99", "p999" },
     *                                       "buckets":
     *                                           [[lo, hi, count], ...] } },
     *       "descriptions": { "<name>": "<desc>", ... } }   // non-empty only
     */
    Json dumpJson() const;

  private:
    std::map<std::string, StatCounter> counters_;
    std::map<std::string, StatAccum> accums_;
    std::map<std::string, StatHistogram> histograms_;
    std::map<std::string, StatLogHistogram> logHistograms_;
    std::map<std::string, StatFormula> formulas_;
};

/**
 * Hierarchical registration handle: all stats created through a group
 * share its dotted prefix, and nested groups extend it. Groups are
 * cheap value types — components keep one instead of re-spelling their
 * prefix at every registration site.
 *
 *     StatGroup g = registry.group("l1.0");
 *     g.counter("reads");               // "l1.0.reads"
 *     g.group("ecc").counter("fixes");  // "l1.0.ecc.fixes"
 */
class StatGroup
{
  public:
    StatGroup(StatRegistry &registry, std::string prefix)
        : registry_(&registry), prefix_(std::move(prefix))
    {
    }

    const std::string &prefix() const { return prefix_; }
    StatRegistry &registry() { return *registry_; }

    StatGroup group(const std::string &sub) const
    {
        return StatGroup(*registry_, qualify(sub));
    }

    StatCounter &counter(const std::string &name,
                         const std::string &desc = "")
    {
        return registry_->counter(qualify(name), desc);
    }

    StatAccum &accum(const std::string &name, const std::string &desc = "")
    {
        return registry_->accum(qualify(name), desc);
    }

    StatHistogram &histogram(const std::string &name, double bucket_width,
                             std::size_t nbuckets,
                             const std::string &desc = "")
    {
        return registry_->histogram(qualify(name), bucket_width, nbuckets,
                                    desc);
    }

    StatLogHistogram &logHistogram(const std::string &name,
                                   const std::string &desc = "")
    {
        return registry_->logHistogram(qualify(name), desc);
    }

    StatFormula &formula(const std::string &name, StatFormula::Fn fn,
                         const std::string &desc = "")
    {
        return registry_->formula(qualify(name), std::move(fn), desc);
    }

  private:
    std::string qualify(const std::string &name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

    StatRegistry *registry_;
    std::string prefix_;
};

} // namespace ccache

#endif // CCACHE_COMMON_STATS_HH
