/**
 * @file
 * ccbench: run the whole bench catalog in parallel and gate on the
 * golden baseline in one shot.
 *
 * Usage:
 *
 *     ccbench [-j N] [--inner-jobs N] [--bin-dir DIR] [--results DIR]
 *             [--baseline DIR] [--list] [--no-compare]
 *             [--filter REGEX] [BENCH...]
 *
 * Catalog selection: positional BENCH arguments are substring matches;
 * `--filter` takes an ECMAScript regex (partial match, repeatable).
 * Both may be combined — a bench runs when it passes both
 * (tools/catalog_filter.hh).
 *
 * Every executable in the bench directory (default: the `bench/`
 * sibling of this binary's directory, i.e. `build/bench/`) is one unit
 * of work. ccbench fans the units out with ccache::parallelFor (`-j`,
 * default: $CCACHE_JOBS or hardware threads; never more threads than
 * benches), each bench running as its own posix_spawn()ed process, so
 * a bench that crashes fails alone, with
 *
 *   - CCACHE_RESULTS_DIR pointing at the shared results directory, so
 *     every bench writes `results/<bench>.json` exactly as a serial
 *     shell loop over build/bench would, and
 *   - CCACHE_JOBS set to `--inner-jobs` (default 1), so the per-bench
 *     sweep engines don't oversubscribe the machine while ccbench is
 *     already using every core across benches. `-j1 --inner-jobs N`
 *     inverts that: benches serial, each sweep parallel — both modes
 *     must produce byte-identical result files (DESIGN.md §8).
 *
 * Each bench's stdout/stderr is captured to `results/<bench>.log`.
 * After the barrier, every result file with a matching file in the
 * baseline directory (default `ci/baseline/`) is compared with the
 * shared result_compare.hh logic at cctools::kDriftThreshold, and a
 * wall-clock summary reports the parallel makespan against the
 * serial-equivalent (sum of per-bench) time.
 *
 * The serial catalog runs in seconds, so there is no resume: an
 * interrupted catalog is simply run again. Every bench writes its
 * result file atomically (bench::atomicWriteFile), so an interruption
 * never leaves a torn file behind.
 *
 * Exit status: 0 all benches ran and no metric drifted, 1 when a bench
 * failed or a metric drifted, 2 on usage or I/O errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <cerrno>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/parallel_for.hh"
#include "catalog_filter.hh"
#include "number_arg.hh"
#include "result_compare.hh"

extern char **environ;

namespace {

namespace fs = std::filesystem;

struct Options
{
    unsigned jobs = 0;          ///< 0 until set: ccache::defaultJobs()
    unsigned innerJobs = 1;
    std::string binDir;
    std::string resultsDir;
    std::string baselineDir = "ci/baseline";
    bool listOnly = false;
    bool compare = true;
    cctools::CatalogFilter filter;
};

struct BenchRun
{
    std::string name;
    fs::path binary;
    int exitCode = -1;
    double seconds = 0.0;
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [-j N] [--inner-jobs N] [--bin-dir DIR] "
                 "[--results DIR]\n"
                 "       [--baseline DIR] [--list] [--no-compare] "
                 "[--filter REGEX] [BENCH...]\n",
                 argv0);
}

/** Default bench directory: `../bench` relative to this binary. */
std::string
defaultBinDir(const char *argv0)
{
    std::error_code ec;
    fs::path self = fs::canonical(argv0, ec);
    if (!ec) {
        fs::path sibling = self.parent_path().parent_path() / "bench";
        if (fs::is_directory(sibling, ec))
            return sibling.string();
    }
    return "build/bench";
}

/** Results directory: $CCACHE_RESULTS_DIR or ./results. */
std::string
defaultResultsDir()
{
    const char *env = std::getenv("CCACHE_RESULTS_DIR");
    return env && *env ? env : "results";
}

/** Every executable regular file in @p dir passing @p filter, sorted
 *  by name. */
std::vector<BenchRun>
discoverCatalog(const std::string &dir, const cctools::CatalogFilter &filter)
{
    std::vector<BenchRun> catalog;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        fs::perms p = entry.status().permissions();
        if ((p & (fs::perms::owner_exec | fs::perms::group_exec |
                  fs::perms::others_exec)) == fs::perms::none)
            continue;
        std::string name = entry.path().filename().string();
        if (!filter.matches(name))
            continue;
        catalog.push_back(BenchRun{name, entry.path()});
    }
    if (ec)
        std::fprintf(stderr, "ccbench: cannot read %s: %s\n",
                     dir.c_str(), ec.message().c_str());
    std::sort(catalog.begin(), catalog.end(),
              [](const BenchRun &a, const BenchRun &b) {
                  return a.name < b.name;
              });
    return catalog;
}

/**
 * One-line self-description of a bench: every catalog binary responds
 * to --describe by printing its registered description and exiting
 * (bench::maybeDescribe). The bench is spawned from an argv, as
 * runBench does, so no shell parses its path. Empty on any failure —
 * the list then simply shows a blank column for that binary.
 */
std::string
describeBench(const fs::path &binary)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return "";
    std::string bin = binary.string();
    char describe[] = "--describe";
    char *child_argv[] = {bin.data(), describe, nullptr};

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    pid_t pid = -1;
    int rc = ::posix_spawn(&pid, bin.c_str(), &fa, nullptr, child_argv,
                           environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);

    std::string out;
    if (rc == 0) {
        char buf[256];
        for (;;) {
            ssize_t n = ::read(fds[0], buf, sizeof buf);
            if (n > 0)
                out.append(buf, static_cast<std::size_t>(n));
            else if (n == 0 || errno != EINTR)
                break;
        }
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    ::close(fds[0]);
    return out.substr(0, out.find_first_of("\r\n"));
}

/**
 * Run one bench as a subprocess, stdout+stderr captured to its log
 * file. Returns via run.exitCode: the child's exit status, 128+sig if
 * it died on a signal, or -1 if the spawn itself failed.
 */
void
runBench(BenchRun &run, const Options &opt)
{
    std::string log = opt.resultsDir + "/" + run.name + ".log";

    // Child environment: inherit ours, overriding the two knobs that
    // coordinate bench parallelism with ccbench's own fan-out.
    std::vector<std::string> env_strings;
    for (char **e = environ; *e; ++e) {
        if (!std::strncmp(*e, "CCACHE_JOBS=", 12) ||
            !std::strncmp(*e, "CCACHE_RESULTS_DIR=", 19))
            continue;
        env_strings.emplace_back(*e);
    }
    env_strings.push_back("CCACHE_JOBS=" + std::to_string(opt.innerJobs));
    env_strings.push_back("CCACHE_RESULTS_DIR=" + opt.resultsDir);
    std::vector<char *> envp;
    envp.reserve(env_strings.size() + 1);
    for (std::string &s : env_strings)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    std::string bin = run.binary.string();
    char *child_argv[] = {bin.data(), nullptr};

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);

    auto start = std::chrono::steady_clock::now();
    pid_t pid = -1;
    int rc = ::posix_spawn(&pid, bin.c_str(), &fa, nullptr, child_argv,
                           envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        std::fprintf(stderr, "ccbench: cannot spawn %s: %s\n",
                     bin.c_str(), std::strerror(rc));
        run.exitCode = -1;
        return;
    }

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            run.exitCode = -1;
            return;
        }
    }
    auto end = std::chrono::steady_clock::now();
    run.seconds = std::chrono::duration<double>(end - start).count();
    if (WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        run.exitCode = 128 + WTERMSIG(status);
    else
        run.exitCode = -1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto needArg = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "ccbench: %s needs an argument\n",
                             flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "-j") ||
            !std::strcmp(argv[i], "--jobs")) {
            const char *flag = argv[i];
            opt.jobs = cctools::positiveArg<unsigned>("ccbench", flag,
                                                      needArg(flag));
        } else if (!std::strncmp(argv[i], "-j", 2)) {
            opt.jobs = cctools::positiveArg<unsigned>("ccbench", "-j",
                                                      argv[i] + 2);
        } else if (!std::strcmp(argv[i], "--inner-jobs")) {
            opt.innerJobs = cctools::positiveArg<unsigned>(
                "ccbench", "--inner-jobs", needArg("--inner-jobs"));
        } else if (!std::strcmp(argv[i], "--bin-dir")) {
            opt.binDir = needArg("--bin-dir");
        } else if (!std::strcmp(argv[i], "--results")) {
            opt.resultsDir = needArg("--results");
        } else if (!std::strcmp(argv[i], "--baseline")) {
            opt.baselineDir = needArg("--baseline");
        } else if (!std::strcmp(argv[i], "--list")) {
            opt.listOnly = true;
        } else if (!std::strcmp(argv[i], "--no-compare")) {
            opt.compare = false;
        } else if (!std::strcmp(argv[i], "--filter")) {
            std::string error;
            if (!opt.filter.addRegex(needArg("--filter"), &error)) {
                std::fprintf(stderr, "ccbench: bad --filter regex: %s\n",
                             error.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
            return 0;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "ccbench: unknown option %s\n", argv[i]);
            usage(argv[0]);
            return 2;
        } else {
            opt.filter.addSubstring(argv[i]);
        }
    }
    if (opt.jobs == 0)
        opt.jobs = ccache::defaultJobs();
    if (opt.binDir.empty())
        opt.binDir = defaultBinDir(argv[0]);
    if (opt.resultsDir.empty())
        opt.resultsDir = defaultResultsDir();

    std::vector<BenchRun> catalog =
        discoverCatalog(opt.binDir, opt.filter);
    if (catalog.empty()) {
        std::fprintf(stderr, "ccbench: no bench executables in %s\n",
                     opt.binDir.c_str());
        return 2;
    }
    if (opt.listOnly) {
        for (const BenchRun &b : catalog) {
            std::string what = describeBench(b.binary);
            if (what.empty())
                std::printf("%s\n", b.name.c_str());
            else
                std::printf("%-28s %s\n", b.name.c_str(), what.c_str());
        }
        return 0;
    }

    std::error_code ec;
    fs::create_directories(opt.resultsDir, ec);
    if (ec) {
        std::fprintf(stderr, "ccbench: cannot create %s: %s\n",
                     opt.resultsDir.c_str(), ec.message().c_str());
        return 2;
    }

    std::printf("ccbench: %zu benches, %u jobs (inner sweeps: %u), "
                "results -> %s\n",
                catalog.size(), opt.jobs, opt.innerJobs,
                opt.resultsDir.c_str());

    // Fan the catalog out. Each task writes only its own BenchRun slot.
    auto wall_start = std::chrono::steady_clock::now();
    ccache::parallelFor(opt.jobs, catalog.size(),
                        [&](std::size_t i) { runBench(catalog[i], opt); });
    auto wall_end = std::chrono::steady_clock::now();
    double wall =
        std::chrono::duration<double>(wall_end - wall_start).count();

    int failures = 0;
    double serial_equiv = 0.0;
    for (const BenchRun &b : catalog) {
        serial_equiv += b.seconds;
        if (b.exitCode != 0) {
            std::printf("FAIL     %-28s exit %d (see %s/%s.log)\n",
                        b.name.c_str(), b.exitCode,
                        opt.resultsDir.c_str(), b.name.c_str());
            ++failures;
        } else {
            std::printf("ok       %-28s %6.2fs\n", b.name.c_str(),
                        b.seconds);
        }
    }

    // Baseline gate: every result file with a committed golden twin.
    int flagged = 0;
    int compared = 0;
    if (opt.compare && failures == 0) {
        for (const BenchRun &b : catalog) {
            std::string base_path =
                opt.baselineDir + "/" + b.name + ".json";
            if (!fs::exists(base_path))
                continue;
            std::string cur_path =
                opt.resultsDir + "/" + b.name + ".json";
            ccache::Json base, cur;
            if (!cctools::loadResults(base_path, base) ||
                !cctools::loadResults(cur_path, cur)) {
                ++flagged;
                continue;
            }
            int n = cctools::compareResults(
                base, cur, cctools::kDriftThreshold, false);
            std::printf("%-8s %-28s vs %s (%d metric(s) beyond "
                        "%.1f%%)\n",
                        n ? "DRIFT" : "match", b.name.c_str(),
                        base_path.c_str(), n,
                        100.0 * cctools::kDriftThreshold);
            flagged += n;
            ++compared;
        }
        if (compared == 0)
            std::printf("note: no baselines found under %s\n",
                        opt.baselineDir.c_str());
    }

    std::printf("\n%zu benches in %.2fs wall (serial-equivalent "
                "%.2fs, %.2fx)\n",
                catalog.size(), wall, serial_equiv,
                wall > 0.0 ? serial_equiv / wall : 0.0);
    if (failures)
        std::printf("%d bench(es) FAILED\n", failures);
    if (flagged)
        std::printf("%d metric(s) drifted beyond the baseline "
                    "threshold\n",
                    flagged);
    return failures || flagged ? 1 : 0;
}
