/**
 * @file
 * Shared comparison logic for `ccache-bench-results` JSON files, used by
 * both `ccstat` (compare two explicit files) and `ccbench` (compare a
 * whole results directory against `ci/baseline/` after a catalog run).
 *
 * Drift is flagged in BOTH directions: the simulator is deterministic,
 * so an unexpected improvement is as suspicious as a regression.
 */

#ifndef CCACHE_TOOLS_RESULT_COMPARE_HH
#define CCACHE_TOOLS_RESULT_COMPARE_HH

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hh"

namespace cctools {

/** Relative metric drift beyond which a comparison flags a metric: the
 *  ccbench baseline gate and ccstat's default `--threshold`. */
inline constexpr double kDriftThreshold = 0.05;

/**
 * Load one results file and validate its schema marker. Returns false
 * (with a diagnostic on stderr) when the file is missing, unparseable
 * or not a `ccache-bench-results` document.
 */
inline bool
loadResults(const std::string &path, ccache::Json &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    out = ccache::Json::parse(buf.str(), &error);
    if (!error.empty()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    const ccache::Json *schema = out.find("schema");
    if (!schema || schema->asString() != "ccache-bench-results") {
        std::fprintf(stderr, "%s is not a ccache-bench-results file\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** Flatten one "metrics" object into name -> value. */
inline std::map<std::string, double>
numericMap(const ccache::Json *obj)
{
    std::map<std::string, double> out;
    if (!obj || !obj->isObject())
        return out;
    for (const auto &[name, value] : obj->asObject()) {
        if (value.isNumber())
            out[name] = value.asNumber();
    }
    return out;
}

/**
 * Recursively flatten a stats dump's numeric leaves into
 * "<prefix>.<name>" -> value (histogram buckets are skipped: their
 * per-bucket counts are noise for regression purposes, while count /
 * mean / min / max are kept).
 */
inline void
flattenStats(const ccache::Json &node, const std::string &prefix,
             std::map<std::string, double> &out)
{
    if (node.isNumber()) {
        out[prefix] = node.asNumber();
        return;
    }
    if (!node.isObject())
        return;
    for (const auto &[name, value] : node.asObject()) {
        if (name == "buckets" || name == "descriptions" ||
            name == "schema" || name == "version")
            continue;
        flattenStats(value, prefix.empty() ? name : prefix + "." + name,
                     out);
    }
}

/** Relative drift of b vs a, symmetric in sign, safe around zero. */
inline double
drift(double a, double b)
{
    if (a == b)
        return 0.0;
    double denom = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(b - a) / denom;
}

/**
 * Compare two metric maps; print one line per divergence. Returns the
 * number of metrics beyond the threshold. New metrics (in @p cur only)
 * are informational, not failures.
 */
inline int
compareMaps(const std::map<std::string, double> &base,
            const std::map<std::string, double> &cur,
            const std::string &section, double threshold)
{
    int flagged = 0;
    for (const auto &[name, a] : base) {
        auto it = cur.find(name);
        if (it == cur.end()) {
            std::printf("MISSING  %s%s (baseline %.6g, absent now)\n",
                        section.c_str(), name.c_str(), a);
            ++flagged;
            continue;
        }
        double d = drift(a, it->second);
        if (d > threshold) {
            std::printf("DRIFT    %s%s: %.6g -> %.6g (%+.1f%%)\n",
                        section.c_str(), name.c_str(), a, it->second,
                        100.0 * (it->second - a) /
                            (a != 0.0 ? std::fabs(a) : 1.0));
            ++flagged;
        }
    }
    for (const auto &[name, b] : cur) {
        if (!base.count(name))
            std::printf("NEW      %s%s = %.6g (not in baseline)\n",
                        section.c_str(), name.c_str(), b);
    }
    return flagged;
}

/**
 * Copy of @p doc without the run-local "perf" section. Every byte-level
 * identity check (thread-count determinism, a filtered run against a
 * standalone one) must compare through this: the perf section measures
 * the machine, not the simulation, and legitimately differs between
 * otherwise identical runs (DESIGN.md §13).
 */
inline ccache::Json
stripPerf(const ccache::Json &doc)
{
    if (!doc.isObject())
        return doc;
    ccache::Json::Object out;
    for (const auto &[key, value] : doc.asObject()) {
        if (key != "perf")
            out.emplace(key, value);
    }
    return ccache::Json(std::move(out));
}

/**
 * Compare the "perf" sections of two result documents. Unlike metric
 * drift this is one-sided: only a slowdown beyond @p tolerance is
 * flagged (wall_clock_s up) — wall clock is noisy and an improvement is
 * never a failure. Baselines written before the perf section existed
 * pass trivially. Returns the number of flagged regressions.
 */
inline int
comparePerf(const ccache::Json &base, const ccache::Json &cur,
            double tolerance)
{
    const ccache::Json *bp = base.find("perf");
    const ccache::Json *cp = cur.find("perf");
    if (!bp || !bp->isObject()) {
        std::printf("note: baseline has no perf section, skipping "
                    "perf comparison\n");
        return 0;
    }
    if (!cp || !cp->isObject()) {
        std::printf("MISSING  perf section (baseline has one)\n");
        return 1;
    }
    const ccache::Json *bw = bp->find("wall_clock_s");
    const ccache::Json *cw = cp->find("wall_clock_s");
    if (!bw || !cw || !bw->isNumber() || !cw->isNumber())
        return 0;
    double a = bw->asNumber(), b = cw->asNumber();
    if (!(b > a * (1.0 + tolerance)))
        return 0;
    std::printf("PERF     wall_clock_s: %.3f -> %.3f "
                "(%+.0f%%, tolerance %.0f%%)\n",
                a, b, 100.0 * (b - a) / (a != 0.0 ? a : 1.0),
                100.0 * tolerance);
    return 1;
}

/**
 * Compare two loaded result documents (metrics, and with @p with_stats
 * also every embedded stats dump). Returns the number of flagged
 * divergences; a schema-version difference prints a note only.
 */
inline int
compareResults(const ccache::Json &base, const ccache::Json &cur,
               double threshold, bool with_stats)
{
    const ccache::Json *bv = base.find("version");
    const ccache::Json *cv = cur.find("version");
    if (bv && cv && bv->asNumber() != cv->asNumber())
        std::printf("note: schema versions differ (baseline %d, "
                    "current %d)\n",
                    static_cast<int>(bv->asNumber()),
                    static_cast<int>(cv->asNumber()));

    int flagged = compareMaps(numericMap(base.find("metrics")),
                              numericMap(cur.find("metrics")), "",
                              threshold);
    if (with_stats) {
        std::map<std::string, double> bstats, cstats;
        if (const ccache::Json *s = base.find("stats"))
            flattenStats(*s, "stats", bstats);
        if (const ccache::Json *s = cur.find("stats"))
            flattenStats(*s, "stats", cstats);
        flagged += compareMaps(bstats, cstats, "", threshold);
    }
    return flagged;
}

} // namespace cctools

#endif // CCACHE_TOOLS_RESULT_COMPARE_HH
