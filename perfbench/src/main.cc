/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--trace-out FILE]
 *
 * Runs one workload in this process on one thread, repeating set-up +
 * run until S host seconds have passed. The first iteration is a
 * warm-up: it runs the once-per-process checks and counts simulated
 * events, and is left out of every median. With --trace 0 every
 * iteration runs untraced and the end-to-end metrics are reported. With
 * --trace 1 iterations alternate untraced / traced; the traced ones
 * record host-time spans around every layer call, and the per-layer
 * metrics, per-layer self times and the tracing overhead (traced minus
 * untraced run_s) are reported. The spans are written as Chrome
 * trace-event JSON to --trace-out.
 *
 * Output: one "digest" line (a hash of every simulated output, which a
 * host-time-only change must leave unchanged), one "values" line with
 * every measured number, and as the last line one JSON object with
 * "correct", "attempted", "failed" and "metrics". Any failed check
 * makes the exit status non-zero.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "bench.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fleet_hotspot|apps_fig9|cc_kernels|trace_sampled "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 0);
            if (val.empty() || *end != '\0')
                usage("--seed takes an unsigned integer");
            haveSeed = true;
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(o.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--trace-out") {
            o.traceOut = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.workload.empty() || !haveSeed)
        usage("--workload and --seed are required");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "fleet_hotspot")
        return makeFleetHotspot(seed);
    if (name == "apps_fig9")
        return makeAppsFig9(seed);
    if (name == "cc_kernels")
        return makeCcKernels(seed);
    if (name == "trace_sampled")
        return makeTraceSampled(seed);
    usage(("unknown workload " + name).c_str());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile of sorted @p v. */
double
quantile(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string
unitFor(const std::string &name)
{
    auto ends = [&](const char *suffix) {
        std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
            name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_mb"))
        return "MB";
    if (ends(".n"))
        return "count";
    if (ends("_s"))
        return "s";
    if (name.find("_ns") != std::string::npos || name.rfind("ns_", 0) == 0)
        return "ns";
    if (ends("_ratio") || ends("_fraction") || ends("_error"))
        return "ratio";
    return "count";
}

std::string
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
metricsJson(const std::map<std::string, double> &metrics)
{
    std::string out = "{";
    char buf[256];
    for (const auto &[name, value] : metrics) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      out.size() > 1 ? ", " : "", name.c_str(), value,
                      unitFor(name).c_str());
        out += buf;
    }
    return out + "}";
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload = makeWorkload(opt.workload, opt.seed);

    // Warm-up + at least three measured iterations; with tracing, at
    // least two of those traced. Tracing alternates with untraced
    // iterations and stops after kMaxTraced, which bounds the spans kept
    // in memory and the size of the trace file.
    constexpr int kMinIterations = 4;
    constexpr int kMaxTraced = 6;
    int tracedCount = 0;
    Tracer tracer;
    HostProbe probe;
    std::vector<Iteration> its;
    std::vector<bool> traced;
    std::vector<double> probeS;  ///< mean of the probes around iteration i
    Clock::time_point start = Clock::now();
    std::uint64_t attempted = 0, failed = 0;
    std::string digest;
    double peakRss = 0.0;
    try {
        double probeBefore = probe.run();
        for (int i = 0; i < kMinIterations || secondsSince(start) < opt.seconds;
             ++i) {
            bool on = opt.trace && i % 2 == 1 && tracedCount < kMaxTraced;
            tracedCount += on;
            tracer.setEnabled(on);
            tracer.setIteration(i);
            Iteration it;
            {
                auto root = tracer.span("bench.iteration");
                it = workload->iterate(tracer, i == 0);
            }
            double probeAfter = probe.run();
            probeS.push_back(0.5 * (probeBefore + probeAfter));
            probeBefore = probeAfter;
            attempted += it.attempted;
            failed += it.failed;
            // Determinism: every iteration simulates the same inputs,
            // so its outputs must match the warm-up's byte for byte.
            std::string hash = fnv1a(std::exchange(it.digest, {}));
            if (i == 0) {
                digest = hash;
            } else {
                ++attempted;
                if (hash != digest) {
                    ++failed;
                    std::fprintf(stderr, "perfbench: iteration %d digest "
                                 "differs from the warm-up's\n", i);
                }
            }
            its.push_back(std::move(it));
            traced.push_back(on);
            // The heap fragments a little more with every iteration, so
            // the high-water mark is taken after a fixed number of them,
            // not after however many the host speed allowed.
            if (i + 1 == kMinIterations)
                peakRss = peakRssMb();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }
    tracer.setEnabled(false);

    std::printf("digest %s %s\n", opt.workload.c_str(), digest.c_str());

    // Medians over the measured iterations, split by tracing.
    auto medianOf = [&](auto field, bool wantTraced) {
        std::vector<double> v;
        for (std::size_t i = 1; i < its.size(); ++i)
            if (traced[i] == wantTraced)
                v.push_back(field(its[i], probeS[i]));
        return median(v);
    };
    // End-to-end times are rescaled to the reference host speed; the
    // raw host seconds are reported beside them.
    auto runS = [](const Iteration &it, double p) {
        return it.runS * HostProbe::kReferenceS / p;
    };
    auto setupS = [](const Iteration &it, double p) {
        return it.setupS * HostProbe::kReferenceS / p;
    };
    auto rawRunS = [](const Iteration &it, double) { return it.runS; };
    auto rawSetupS = [](const Iteration &it, double) { return it.setupS; };
    auto probeOf = [](const Iteration &, double p) { return p; };

    std::map<std::string, double> values;
    std::set<std::string> valueNames;
    for (std::size_t i = 1; i < its.size(); ++i)
        for (const auto &[name, v] : its[i].values)
            valueNames.insert(name);
    for (const std::string &name : valueNames) {
        values[name] = medianOf(
            [&](const Iteration &it, double) {
                auto found = it.values.find(name);
                return found == it.values.end() ? 0.0 : found->second;
            },
            opt.trace);
    }
    values["host.run_raw_s"] = medianOf(rawRunS, false);
    values["host.setup_raw_s"] = medianOf(rawSetupS, false);
    values["host.probe_s"] = medianOf(probeOf, false);

    std::map<std::string, double> metrics;
    double untracedRun = medianOf(runS, false);
    std::uint64_t events = its.front().events;
    if (!opt.trace) {
        metrics["run_s"] = untracedRun;
        metrics["setup_s"] = medianOf(setupS, false);
        metrics["ns_per_event"] =
            events ? untracedRun * 1e9 / static_cast<double>(events) : 0.0;
        metrics["peak_rss_mb"] = peakRss;
    } else {
        metrics = values;
        double tracedRun = medianOf(runS, true);
        metrics["trace.overhead_s"] = tracedRun - untracedRun;
        metrics["trace.overhead_ratio"] =
            untracedRun > 0.0 ? (tracedRun - untracedRun) / untracedRun
                              : 0.0;
        metrics["sim.events"] = static_cast<double>(events);

        // Inclusive time per span name and self time per layer.
        std::set<std::string> spanNames;
        for (const Span &s : tracer.spans())
            spanNames.insert(s.name);
        auto tracedMedian = [&](const std::map<int, double> &perIter) {
            std::vector<double> v;
            for (std::size_t i = 1; i < its.size(); ++i) {
                if (!traced[i])
                    continue;
                auto found = perIter.find(static_cast<int>(i));
                v.push_back(found == perIter.end() ? 0.0 : found->second);
            }
            return median(v);
        };
        for (const std::string &name : spanNames) {
            if (name != "bench.iteration")
                metrics[name + "_s"] =
                    tracedMedian(tracer.totalByIteration(name));
        }
        std::map<std::string, std::map<int, double>> selfByLayer;
        for (const auto &[iter, layers] : tracer.selfTimeByIteration())
            for (const auto &[layer, s] : layers)
                selfByLayer[layer][iter] = s;
        for (const auto &[layer, perIter] : selfByLayer)
            metrics[layer + ".self_s"] = tracedMedian(perIter);

        // Latencies: median and p99 of the samples pooled over traced
        // iterations, with the sample count.
        std::map<std::string, std::vector<double>> pooled;
        for (std::size_t i = 1; i < its.size(); ++i) {
            if (!traced[i])
                continue;
            for (const auto &[name, v] : its[i].samples)
                pooled[name].insert(pooled[name].end(), v.begin(), v.end());
        }
        for (auto &[name, v] : pooled) {
            std::sort(v.begin(), v.end());
            metrics[name + ".p50"] = quantile(v, 0.50);
            metrics[name + ".p99"] = quantile(v, 0.99);
            metrics[name + ".n"] = static_cast<double>(v.size());
        }

        if (!opt.traceOut.empty() &&
            !tracer.writeChromeTrace(opt.traceOut, opt.workload)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
            return 1;
        }
    }

    std::printf("iterations %zu (%zu traced), %.2f s\n", its.size(),
                static_cast<std::size_t>(
                    std::count(traced.begin(), traced.end(), true)),
                secondsSince(start));
    std::printf("values %s\n", metricsJson(values).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}
