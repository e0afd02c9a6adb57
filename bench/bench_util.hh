/**
 * @file
 * Shared experiment-bench runner utilities.
 *
 * Every bench binary regenerates one table or figure of the paper. Two
 * output surfaces are produced per run:
 *
 *  - the historical human-readable tables on stdout (header/rule/note),
 *    still what EXPERIMENTS.md quotes; and
 *  - a machine-comparable JSON result file, written by ResultsWriter to
 *    `results/<bench>.json` (override the directory with
 *    $CCACHE_RESULTS_DIR). The file carries a schema version, the git
 *    revision, the bench's key metrics and optional full stats dumps,
 *    so runs are diffable across commits with `tools/ccstat`.
 *
 * Result-file schema (version kBenchResultsVersion; see DESIGN.md §7):
 *
 *     { "schema": "ccache-bench-results", "version": 2,
 *       "bench": "<name>", "git_sha": "<sha or unknown>",
 *       "config": { "<key>": <value>, ... },
 *       "metrics": { "<metric>": <number>, ... },
 *       "stats": { "<label>": <StatRegistry::dumpJson()>, ... },
 *       "perf": { "wall_clock_s": <number> } }
 *
 * The "perf" section is the one intentionally nondeterministic part of
 * the file: it measures this run's wall clock on this machine
 * (DESIGN.md §13). It is composed only at write() time and never
 * enters document(), so the determinism tests and the thread-count
 * identity checks compare documents without it; byte-level comparisons
 * of written files must strip it first (`ccstat --identical` does).
 *
 * Benches define their measurement grid as SweepRunner points (one per
 * independent (bench, config) simulation) and print their tables after
 * the sweep barrier, so the whole grid fans out across cores while the
 * stdout tables and the JSON result file stay byte-identical at any
 * thread count (DESIGN.md §8).
 */

#ifndef CCACHE_BENCH_BENCH_UTIL_HH
#define CCACHE_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "common/rng.hh"

namespace bench {

/** Version of the bench-results JSON schema (see file header).
 *  v2 added the run-local "perf" section. */
inline constexpr int kBenchResultsVersion = 2;

/**
 * Bench self-description: every bench registers a one-line description
 * at the top of main() via maybeDescribe(argc, argv, "..."). Invoked
 * with --describe, the bench prints that line and exits instead of
 * running — `ccbench --list` queries the catalog this way, so the list
 * column can never drift from the binaries.
 */
inline void
maybeDescribe(int argc, char **argv, const char *description)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--describe") == 0) {
            std::printf("%s\n", description);
            std::exit(0);
        }
    }
}

inline void
header(const std::string &title)
{
    std::printf("\n================================================="
                "=====================\n%s\n"
                "================================================="
                "=====================\n",
                title.c_str());
}

inline void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

inline void
rule()
{
    std::printf("----------------------------------------------------"
                "------------------\n");
}

/** Directory for result files: $CCACHE_RESULTS_DIR or ./results. */
inline std::string
resultsDir()
{
    const char *env = std::getenv("CCACHE_RESULTS_DIR");
    return env && *env ? env : "results";
}

/** True iff @p sha looks like a short-or-full git object name. */
inline bool
plausibleGitSha(const std::string &sha)
{
    if (sha.size() < 4 || sha.size() > 40)
        return false;
    for (char c : sha) {
        bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex)
            return false;
    }
    return true;
}

/**
 * Current git revision (short), or "unknown". Every failure mode of the
 * probe — popen failure, non-git checkout, git missing, a non-zero exit,
 * shell noise on stdout — yields exactly "unknown" so garbage can never
 * reach a committed result file.
 */
inline std::string
gitSha()
{
    std::string sha;
#if defined(__unix__) || defined(__APPLE__)
    FILE *p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p))
        sha.assign(buf);
    int status = ::pclose(p);
    while (!sha.empty() &&
           (sha.back() == '\n' || sha.back() == '\r' || sha.back() == ' '))
        sha.pop_back();
    if (status != 0 || !plausibleGitSha(sha))
        return "unknown";
#else
    sha = "unknown";
#endif
    return sha.empty() ? "unknown" : sha;
}

/**
 * Crash-safe file write: the content lands in `<path>.tmp.<pid>` first
 * and is atomically renamed over @p path only after every stream
 * operation (open, write, flush, close) reported success. A reader —
 * including a catalog run again after an interrupted one — therefore
 * sees either the complete old file or the complete new file, never a
 * torn one.
 */
inline bool
atomicWriteFile(const std::string &path, const std::string &content)
{
    namespace fs = std::filesystem;
#if defined(__unix__) || defined(__APPLE__)
    std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
#else
    std::string tmp = path + ".tmp";
#endif
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << content;
        out.flush();
        if (!out) {
            out.close();
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        std::error_code rm;
        fs::remove(tmp, rm);
        return false;
    }
    return true;
}

/**
 * Accumulates one bench run's machine-readable output and writes the
 * schema-versioned JSON result file. Typical use:
 *
 *     bench::ResultsWriter results("fig7_microbench");
 *     results.config("operand_bytes", 4096);
 *     results.metric("copy.speedup", speedup);
 *     results.statsJson("cc_copy", sys.stats().dumpJson());
 *     results.write();   // -> results/fig7_microbench.json
 */
class ResultsWriter
{
  public:
    explicit ResultsWriter(std::string bench_name)
        : name_(std::move(bench_name))
    {
        doc_["schema"] = "ccache-bench-results";
        doc_["version"] = kBenchResultsVersion;
        doc_["bench"] = name_;
        doc_["git_sha"] = gitSha();
        doc_["config"] = ccache::Json::object();
        doc_["metrics"] = ccache::Json::object();
        doc_["stats"] = ccache::Json::object();
    }

    /** Record one configuration fact (what was run). */
    void config(const std::string &key, ccache::Json value)
    {
        doc_["config"][key] = std::move(value);
    }

    /** Record one headline number (what came out). Metric names follow
     *  the stats convention: `<series>.<quantity>`, e.g. "copy.speedup". */
    void metric(const std::string &name, double value)
    {
        doc_["metrics"][name] = value;
    }

    /** Embed a full stats dump (StatRegistry::dumpJson()) under
     *  @p label, one per configuration. */
    void statsJson(const std::string &label, ccache::Json dump)
    {
        doc_["stats"][label] = std::move(dump);
    }

    /** Attach an arbitrary extra section (e.g. trace-file pointers). */
    void extra(const std::string &key, ccache::Json value)
    {
        doc_[key] = std::move(value);
    }

    /**
     * Record one contained per-point failure. The "errors" section is
     * created on first use only, so error-free documents stay
     * byte-identical to the committed baselines. Entry shape:
     *
     *     { "point": "<sweep key>", "kind": "sim_error" | "fatal_error"
     *       | "exception", "message": "<what()>",
     *       "diagnostic": <JSON, when the SimError carried one> }
     */
    void error(const std::string &point, const std::string &kind,
               const std::string &message,
               const ccache::Json *diagnostic = nullptr)
    {
        ccache::Json e = ccache::Json::object();
        e["point"] = point;
        e["kind"] = kind;
        e["message"] = message;
        if (diagnostic && !diagnostic->isNull())
            e["diagnostic"] = *diagnostic;
        doc_["errors"].push(std::move(e));
        ++errorCount_;
    }

    /** Contained failures recorded so far (non-zero => bench exits 1). */
    std::size_t errorCount() const { return errorCount_; }

    const std::string &name() const { return name_; }

    /** The accumulated result document (determinism tests compare its
     *  serialized form across thread counts). Deliberately excludes the
     *  "perf" section, which is nondeterministic by design. */
    const ccache::Json &document() const { return doc_; }

    /**
     * This run's wall clock since this writer was constructed.
     * Nondeterministic on purpose — this is the number the perf CI gate
     * tracks (DESIGN.md §13).
     */
    ccache::Json perfSection() const
    {
        ccache::Json p = ccache::Json::object();
        p["wall_clock_s"] = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_)
                                .count();
        return p;
    }

    /**
     * Write `<resultsDir()>/<bench>.json` (directory created on demand)
     * via temp-file + atomic rename with checked stream state, and
     * print where it landed. The perf section is composed here, on the
     * deterministic document. Returns the path, empty on failure — the
     * caller must propagate that as a non-zero exit (bench::finish
     * does).
     */
    std::string write()
    {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::create_directories(resultsDir(), ec);
        std::string path = resultsDir() + "/" + name_ + ".json";
        ccache::Json doc = doc_;
        doc["perf"] = perfSection();
        if (!atomicWriteFile(path, doc.dump(2) + "\n")) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return "";
        }
        std::printf("\nresults: %s\n", path.c_str());
        return path;
    }

  private:
    std::string name_;
    ccache::Json doc_;
    std::size_t errorCount_ = 0;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/** Base seed of every bench sweep (see SweepContext::seed()). */
inline constexpr std::uint64_t kSweepBaseSeed = 0x5eedcac8e5ULL;

/**
 * Execution context of one sweep point. A point owns its RNG and its
 * metric, config and stats-dump slots, so points share no mutable state
 * and may run on any thread in any order. A point that simulates builds
 * its own sim::System, which owns the registry and trace it records to.
 *
 * The RNG seed is derived as hash(kSweepBaseSeed, point key), never
 * from a global or from scheduling, so a point's random stream is a
 * pure function of its identity (DESIGN.md §8).
 */
class SweepContext
{
  public:
    explicit SweepContext(std::string key)
        : key_(std::move(key)),
          seed_(ccache::deriveSeed(kSweepBaseSeed, key_)), rng_(seed_)
    {
    }

    const std::string &key() const { return key_; }

    /** This point's derived seed: hash(kSweepBaseSeed, key). */
    std::uint64_t seed() const { return seed_; }

    /** This point's private RNG, seeded with seed(). */
    ccache::Rng &rng() { return rng_; }

    /** An independent named sub-stream, e.g. rngFor("monte_carlo"):
     *  adding draws to one stream never shifts another. */
    ccache::Rng rngFor(std::string_view label) const
    {
        return ccache::Rng(ccache::deriveSeed(seed_, label));
    }

    /** Record one headline number into the bench's ResultsWriter
     *  (applied at the barrier, in point order). */
    void metric(const std::string &name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    /** Record one configuration fact into the ResultsWriter. */
    void config(std::string key, ccache::Json value)
    {
        configs_.emplace_back(std::move(key), std::move(value));
    }

    /** Embed a full stats dump under @p label in the ResultsWriter. */
    void statsJson(std::string label, ccache::Json dump)
    {
        statsDumps_.emplace_back(std::move(label), std::move(dump));
    }

  private:
    friend class SweepRunner;

    std::string key_;
    std::uint64_t seed_;
    ccache::Rng rng_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, ccache::Json>> configs_;
    std::vector<std::pair<std::string, ccache::Json>> statsDumps_;
};

/**
 * The parallel sweep engine: fans a bench's independent (config) points
 * out with ccache::parallelFor and applies their outputs to the
 * ResultsWriter at the barrier, in point-definition order, so the
 * result document — and anything the points stored into caller-owned
 * slots — is bit-identical to a serial run regardless of thread count
 * or scheduling (DESIGN.md §8).
 *
 *     bench::ResultsWriter results("fig8_cache_levels");
 *     bench::SweepRunner sweep(&results);
 *     std::vector<Outcome> out(12);
 *     for (...each config...)
 *         sweep.add(key, [&, i](bench::SweepContext &ctx) {
 *             out[i] = runOnce(...);          // into a disjoint slot
 *             ctx.metric(key + ".saving", out[i].saving);
 *         });
 *     sweep.run();           // $CCACHE_JOBS threads (1 = inline)
 *     ...print tables from out[]...
 */
class SweepRunner
{
  public:
    using PointFn = std::function<void(SweepContext &)>;

    explicit SweepRunner(ResultsWriter *results = nullptr)
        : results_(results)
    {
    }

    /** Define one point. @p key names it uniquely within the sweep: it
     *  is the metric prefix by convention and the RNG shard key. */
    void add(std::string key, PointFn fn)
    {
        CC_ASSERT(!ran_, "SweepRunner::add after run");
        points_.emplace_back(std::move(key), std::move(fn));
    }

    /** Run every point on @p jobs threads (1 = inline serial run, the
     *  determinism reference), then apply their outputs in point order. */
    void run(unsigned jobs = ccache::defaultJobs())
    {
        CC_ASSERT(!ran_, "SweepRunner::run called twice");
        ran_ = true;
        // Failures are contained per point, inside the task, so every
        // other point still contributes. A failed point contributes
        // only its structured error record; whether other points ran
        // before or after it cannot change their bytes (DESIGN.md §8
        // survives error containment).
        ccache::parallelFor(jobs, points_.size(), [this](std::size_t i) {
            Point &p = points_[i];
            try {
                p.fn(p.ctx);
            } catch (const ccache::SimError &e) {
                p.errorKind = "sim_error";
                p.errorMessage = e.what();
                if (!e.diagnostic().empty()) {
                    std::string perr;
                    p.errorDiagnostic =
                        ccache::Json::parse(e.diagnostic(), &perr);
                }
            } catch (const ccache::FatalError &e) {
                p.errorKind = "fatal_error";
                p.errorMessage = e.what();
            } catch (const std::exception &e) {
                p.errorKind = "exception";
                p.errorMessage = e.what();
            }
        });
        merge();
    }

    /** Points that failed (their error records are in the
     *  ResultsWriter's "errors" section after the barrier). */
    std::size_t errorCount() const { return errors_; }

  private:
    struct Point
    {
        Point(std::string key, PointFn f)
            : ctx(std::move(key)), fn(std::move(f))
        {
        }

        SweepContext ctx;
        PointFn fn;
        std::string errorKind;      ///< empty = the point succeeded
        std::string errorMessage;
        ccache::Json errorDiagnostic;
    };

    void merge()
    {
        for (Point &p : points_) {
            if (!p.errorKind.empty()) {
                // A failed point may hold partial metrics from before
                // the throw; contributing any of them would make the
                // output depend on where exactly it died. Only the
                // error record survives.
                ++errors_;
                std::fprintf(stderr,
                             "sweep point '%s' FAILED (%s): %s\n",
                             p.ctx.key().c_str(), p.errorKind.c_str(),
                             p.errorMessage.c_str());
                if (results_)
                    results_->error(p.ctx.key(), p.errorKind,
                                    p.errorMessage, &p.errorDiagnostic);
                continue;
            }
            if (!results_)
                continue;
            for (auto &[key, value] : p.ctx.configs_)
                results_->config(key, std::move(value));
            for (auto &[name, value] : p.ctx.metrics_)
                results_->metric(name, value);
            for (auto &[label, dump] : p.ctx.statsDumps_)
                results_->statsJson(label, std::move(dump));
        }
    }

    std::vector<Point> points_;
    ResultsWriter *results_;
    bool ran_ = false;
    std::size_t errors_ = 0;
};

/**
 * Standard bench epilogue: write the result file and derive the process
 * exit code. Returns non-zero when the write failed, when any sweep
 * point was contained as an error, or when the bench's own sanity check
 * (@p ok) failed — so ccbench and CI see every degraded run.
 */
inline int
finish(ResultsWriter &results, const SweepRunner &sweep, bool ok = true)
{
    bool wrote = !results.write().empty();
    if (sweep.errorCount() > 0)
        std::fprintf(stderr, "%s: %zu sweep point(s) failed\n",
                     results.name().c_str(), sweep.errorCount());
    return wrote && ok && sweep.errorCount() == 0 ? 0 : 1;
}

} // namespace bench

#endif // CCACHE_BENCH_BENCH_UTIL_HH
