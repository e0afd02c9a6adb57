/**
 * @file
 * cc_server: replay synthetic multi-tenant open-loop traffic through
 * the serving layer (DESIGN.md §11) and report tail latency.
 *
 * Usage:
 *
 *     cc_server [--tenants N] [--requests N] [--load RPKC]
 *               [--policy fifo|batch] [--seed HEX] [--scatter FRAC]
 *               [--queue-cap N] [--wave N] [--json PATH] [--stats]
 *               [--trace PATH]
 *               [--shards N] [--chaos SPEC] [--deadline CY]
 *               [--timeout CY] [--attempts N] [--hedge CY]
 *               [--verify-golden]
 *               [--zipf-keys N] [--fanout FRAC[:LEGS]] [--rebalance]
 *               [--global-queue N]
 *
 * Tenant 0 is a small-request interactive tenant with weight 4; the
 * remaining tenants are heavier background traffic (some scattered
 * operands, some multi-chunk cc_cmp requests). The run is simulated
 * time only and a pure function of its arguments: the same command
 * line always prints the same bytes (DESIGN.md §8).
 *
 * With `--shards N` (N >= 1) the run goes through the fault-tolerant
 * ShardRouter (DESIGN.md §12): tenants place onto N shards by
 * consistent hashing, and `--chaos` injects shard failures using the
 * "kind@start+duration:shard[*magnitude]" grammar (kinds: crash,
 * slow, partial; e.g. "crash@200000+150000:1"). `--deadline`,
 * `--timeout`, `--attempts` and `--hedge` tune the reliability
 * pipeline; `--verify-golden` checks every completed request against
 * a host-side reference model.
 *
 * Fleet-controller flags (sharded mode, DESIGN.md §15):
 * `--zipf-keys N` draws every request's content key from a Zipf(0.99)
 * space of N ranks (the key folds into the golden operand pattern);
 * `--fanout FRAC[:LEGS]` makes that fraction of background requests
 * span LEGS shards (default 2) behind a fan-in barrier;
 * `--rebalance` turns on the hot-spot detector and live tenant
 * migration; `--global-queue N` caps fleet-wide queued requests and
 * sheds lowest-QoS work at the budget.
 *
 * Output: a human summary on stdout, plus the report JSON (`--json -`
 * for stdout, or a file path). `--stats` embeds the stats registry
 * dump(s); `--trace` writes a Chrome trace of the waves (single-shard
 * mode only: combined with `--shards` it is rejected).
 *
 * Numbers are parsed strictly (number_arg.hh): a malformed, negative,
 * overflowing or non-finite value, or one out of its range, is a
 * usage error that names the flag (exit 2). A configuration the model
 * rejects (a FatalError, e.g. `--zipf-keys` beyond 2^32 - 1) prints
 * `cc_server: <message>` and exits 2 as well.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>

#include "common/logging.hh"
#include "number_arg.hh"
#include "serve/server.hh"
#include "serve/shard_router.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

using namespace ccache;
using cctools::numberArg;

namespace {

struct Options
{
    unsigned tenants = 2;
    std::size_t requests = 1000;
    double loadRpkc = 4.0;
    serve::ServePolicy policy = serve::ServePolicy::Batch;
    std::uint64_t seed = 0x5e47ed7aff1cULL;
    double scatter = 0.2;
    std::size_t queueCap = 256;
    unsigned waveSize = 16;
    std::string jsonPath;
    std::string tracePath;
    bool stats = false;

    /** Sharded mode (0 = classic single-server path). */
    unsigned shards = 0;
    std::string chaosSpec;
    Cycles deadline = 60000;
    Cycles timeout = 0;
    unsigned attempts = 3;
    Cycles hedge = 0;
    bool verifyGolden = false;

    /** Fleet controller (sharded mode, DESIGN.md §15). @{ */
    std::size_t zipfKeys = 0;
    double fanoutFraction = 0.0;
    unsigned fanoutLegs = 2;
    bool rebalance = false;
    std::size_t globalQueue = 0;
    /** @} */
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--tenants N] [--requests N] [--load RPKC]\n"
                 "       [--policy fifo|batch] [--seed HEX] "
                 "[--scatter FRAC]\n"
                 "       [--queue-cap N] [--wave N] [--json PATH|-] "
                 "[--stats] [--trace PATH]\n"
                 "       [--shards N] [--chaos SPEC] [--deadline CY] "
                 "[--timeout CY]\n"
                 "       [--attempts N] [--hedge CY] [--verify-golden]\n"
                 "       [--zipf-keys N] [--fanout FRAC[:LEGS]] "
                 "[--rebalance] [--global-queue N]\n",
                 argv0);
}

int
serverMain(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto needArg = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "cc_server: %s needs an argument\n",
                             flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        // Parse flag @p f's argument into @p field (hex for --seed).
        auto number = [&](const char *f, auto &field, int base = 10) {
            field = numberArg<std::remove_reference_t<decltype(field)>>(
                "cc_server", f, needArg(f), base);
        };
        if (!std::strcmp(argv[i], "--tenants")) {
            number("--tenants", opt.tenants);
        } else if (!std::strcmp(argv[i], "--requests")) {
            number("--requests", opt.requests);
        } else if (!std::strcmp(argv[i], "--load")) {
            number("--load", opt.loadRpkc);
        } else if (!std::strcmp(argv[i], "--policy")) {
            if (!serve::parsePolicy(needArg("--policy"), &opt.policy)) {
                std::fprintf(stderr,
                             "cc_server: --policy must be fifo or batch\n");
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--seed")) {
            number("--seed", opt.seed, 16);
        } else if (!std::strcmp(argv[i], "--scatter")) {
            number("--scatter", opt.scatter);
        } else if (!std::strcmp(argv[i], "--queue-cap")) {
            number("--queue-cap", opt.queueCap);
        } else if (!std::strcmp(argv[i], "--wave")) {
            number("--wave", opt.waveSize);
        } else if (!std::strcmp(argv[i], "--json")) {
            opt.jsonPath = needArg("--json");
        } else if (!std::strcmp(argv[i], "--trace")) {
            opt.tracePath = needArg("--trace");
        } else if (!std::strcmp(argv[i], "--stats")) {
            opt.stats = true;
        } else if (!std::strcmp(argv[i], "--shards")) {
            number("--shards", opt.shards);
        } else if (!std::strcmp(argv[i], "--chaos")) {
            opt.chaosSpec = needArg("--chaos");
        } else if (!std::strcmp(argv[i], "--deadline")) {
            number("--deadline", opt.deadline);
        } else if (!std::strcmp(argv[i], "--timeout")) {
            number("--timeout", opt.timeout);
        } else if (!std::strcmp(argv[i], "--attempts")) {
            number("--attempts", opt.attempts);
        } else if (!std::strcmp(argv[i], "--hedge")) {
            number("--hedge", opt.hedge);
        } else if (!std::strcmp(argv[i], "--verify-golden")) {
            opt.verifyGolden = true;
        } else if (!std::strcmp(argv[i], "--zipf-keys")) {
            number("--zipf-keys", opt.zipfKeys);
        } else if (!std::strcmp(argv[i], "--fanout")) {
            std::string arg = needArg("--fanout");
            std::size_t colon = arg.find(':');
            opt.fanoutFraction = numberArg<double>(
                "cc_server", "--fanout", arg.substr(0, colon).c_str());
            if (colon != std::string::npos) {
                opt.fanoutLegs = numberArg<unsigned>(
                    "cc_server", "--fanout", arg.c_str() + colon + 1);
            }
            if (opt.fanoutFraction < 0.0 || opt.fanoutFraction > 1.0 ||
                opt.fanoutLegs < 2) {
                std::fprintf(stderr, "cc_server: --fanout wants "
                                     "FRAC in [0,1] and LEGS >= 2\n");
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--rebalance")) {
            opt.rebalance = true;
        } else if (!std::strcmp(argv[i], "--global-queue")) {
            number("--global-queue", opt.globalQueue);
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "cc_server: unknown option %s\n", argv[i]);
            usage(argv[0]);
            return 2;
        }
    }
    if (opt.tenants < 1 || opt.requests < 1 || opt.waveSize < 1 ||
        opt.queueCap < 1 || opt.attempts < 1) {
        std::fprintf(stderr, "cc_server: --tenants, --requests, --wave, "
                             "--queue-cap and --attempts must be at "
                             "least 1\n");
        return 2;
    }
    if (opt.loadRpkc <= 0.0) {
        std::fprintf(stderr, "cc_server: --load must be greater than 0\n");
        return 2;
    }
    if (opt.scatter < 0.0 || opt.scatter > 1.0) {
        std::fprintf(stderr, "cc_server: --scatter must be in [0, 1]\n");
        return 2;
    }
    // The router's events do not reach the EventTrace, so a sharded run
    // has no timeline to write.
    if (opt.shards > 0 && !opt.tracePath.empty()) {
        std::fprintf(stderr,
                     "cc_server: --trace is single-shard only; it cannot "
                     "be combined with --shards\n");
        return 2;
    }

    // Traffic: tenant 0 interactive, the rest background (fan-out, if
    // enabled, applies to the background tenants).
    workload::TrafficParams traffic;
    traffic.totalRequests = opt.requests;
    traffic.seed = opt.seed;
    traffic.zipfKeys = opt.zipfKeys;
    for (unsigned i = 0; i < opt.tenants; ++i) {
        workload::TenantTraffic t;
        t.name = "t" + std::to_string(i);
        if (i == 0 && opt.tenants > 1) {
            t.requestsPerKilocycle = 0.2 * opt.loadRpkc;
            t.minBytes = 256;
            t.maxBytes = 1024;
        } else {
            t.requestsPerKilocycle =
                opt.tenants > 1 ? 0.8 * opt.loadRpkc / (opt.tenants - 1)
                                : opt.loadRpkc;
            t.minBytes = 1024;
            t.maxBytes = 8192;
            t.weightCmp = 0.5;
            t.scatterFraction = opt.scatter;
            t.fanoutFraction = opt.fanoutFraction;
            t.fanoutLegs = opt.fanoutLegs;
        }
        traffic.tenants.push_back(std::move(t));
    }

    serve::ServerParams params;
    params.queue.capacity = opt.queueCap;
    params.sched.policy = opt.policy;
    params.sched.waveSize = opt.waveSize;
    params.tenants.clear();
    for (unsigned i = 0; i < opt.tenants; ++i) {
        serve::TenantQos q;
        q.name = "t" + std::to_string(i);
        q.weight = i == 0 ? 4 : 1;
        params.tenants.push_back(std::move(q));
    }

    if (opt.shards > 0) {
        // Sharded, fault-tolerant path (DESIGN.md §12).
        serve::ChaosSchedule chaos;
        if (!opt.chaosSpec.empty()) {
            std::string err;
            if (!serve::ChaosSchedule::parse(opt.chaosSpec, opt.shards,
                                             &chaos, &err)) {
                std::fprintf(stderr, "cc_server: bad --chaos: %s\n",
                             err.c_str());
                return 2;
            }
        }

        serve::RouterParams router;
        router.shards = opt.shards;
        router.admissionDeadline = opt.deadline;
        router.shardTimeout = opt.timeout;
        router.retry.maxAttempts = opt.attempts;
        router.retry.seed = opt.seed;
        router.hedgeAge = opt.hedge;
        router.verifyGolden = opt.verifyGolden;
        router.patternSeed = opt.seed;
        if (opt.rebalance)
            router.rebalancePeriod = 5000;
        router.globalQueueCap = opt.globalQueue;

        serve::ShardRouter fleet(sim::SystemConfig{}, params, router);
        serve::FleetReport report =
            fleet.run(generateTraffic(traffic), chaos);

        std::printf("cc_server: shards=%u tenants=%u load=%.2f rpkc "
                    "seed=%llx chaos=\"%s\"\n",
                    opt.shards, opt.tenants, opt.loadRpkc,
                    static_cast<unsigned long long>(opt.seed),
                    chaos.toSpec().c_str());
        std::printf("  offered %llu, served %llu, shed %llu "
                    "(availability %.4f) in %llu cycles\n",
                    static_cast<unsigned long long>(report.offered),
                    static_cast<unsigned long long>(report.served),
                    static_cast<unsigned long long>(report.shed),
                    report.availability,
                    static_cast<unsigned long long>(report.elapsed));
        std::printf("  retries %llu, reroutes %llu, hedges %llu "
                    "(wins %llu), breaker trips %llu\n",
                    static_cast<unsigned long long>(report.retries),
                    static_cast<unsigned long long>(report.reroutes),
                    static_cast<unsigned long long>(report.hedgesLaunched),
                    static_cast<unsigned long long>(report.hedgeWins),
                    static_cast<unsigned long long>(report.breakerTrips));
        if (report.fanoutParents != 0)
            std::printf("  fanout: %llu parents, %llu legs, %llu "
                        "partial\n",
                        static_cast<unsigned long long>(
                            report.fanoutParents),
                        static_cast<unsigned long long>(
                            report.fanoutLegs),
                        static_cast<unsigned long long>(
                            report.fanoutPartial));
        if (opt.rebalance)
            std::printf("  migrations %llu (dual-dispatch %llu, "
                        "transplants %llu)\n",
                        static_cast<unsigned long long>(
                            report.migrations),
                        static_cast<unsigned long long>(
                            report.migrationDualDispatch),
                        static_cast<unsigned long long>(
                            report.migrationTransplants));
        if (opt.globalQueue != 0)
            std::printf("  global budget: %llu evictions, %llu sheds\n",
                        static_cast<unsigned long long>(
                            report.globalEvictions),
                        static_cast<unsigned long long>(
                            report.globalSheds));
        if (opt.verifyGolden)
            std::printf("  golden: %llu checked, %llu mismatches\n",
                        static_cast<unsigned long long>(
                            report.goldenChecked),
                        static_cast<unsigned long long>(
                            report.goldenMismatch));
        for (const auto &s : report.shards)
            std::printf("  shard %u: served %6llu failed %4llu waves "
                        "%5llu down %llu cy service p50/p99 = "
                        "%llu/%llu cy\n",
                        s.index,
                        static_cast<unsigned long long>(s.served),
                        static_cast<unsigned long long>(s.failed),
                        static_cast<unsigned long long>(s.waves),
                        static_cast<unsigned long long>(s.downCycles),
                        static_cast<unsigned long long>(s.p50ServiceCycles),
                        static_cast<unsigned long long>(
                            s.p99ServiceCycles));
        for (const auto &t : report.tenants)
            std::printf("  %-8s served %6llu shed %4llu sojourn "
                        "p50/p99/p99.9 = %llu/%llu/%llu cy\n",
                        t.name.c_str(),
                        static_cast<unsigned long long>(t.served),
                        static_cast<unsigned long long>(t.shed),
                        static_cast<unsigned long long>(
                            t.p50SojournCycles),
                        static_cast<unsigned long long>(
                            t.p99SojournCycles),
                        static_cast<unsigned long long>(
                            t.p999SojournCycles));

        Json doc = report.toJson();
        if (opt.stats)
            doc["fleet_stats"] = fleet.fleetStats().dumpJson();
        if (!opt.jsonPath.empty()) {
            std::string text = doc.dump(2) + "\n";
            if (opt.jsonPath == "-") {
                std::fputs(text.c_str(), stdout);
            } else {
                std::ofstream out(opt.jsonPath,
                                  std::ios::binary | std::ios::trunc);
                out << text;
                if (!out) {
                    std::fprintf(stderr, "cc_server: cannot write %s\n",
                                 opt.jsonPath.c_str());
                    return 1;
                }
                std::printf("report: %s\n", opt.jsonPath.c_str());
            }
        }
        return report.goldenMismatch == 0 ? 0 : 1;
    }

    sim::System sys;
    if (!opt.tracePath.empty())
        sys.trace().enable();

    serve::CcServer server(sys, params);
    serve::ServeReport report =
        server.run(generateTraffic(traffic));

    std::printf("cc_server: policy=%s tenants=%u load=%.2f rpkc "
                "seed=%llx\n",
                serve::toString(opt.policy), opt.tenants, opt.loadRpkc,
                static_cast<unsigned long long>(opt.seed));
    std::printf("  offered %llu, admitted %llu, served %llu, rejected "
                "%llu in %llu cycles (%.2f req/Mcycle)\n",
                static_cast<unsigned long long>(report.offered),
                static_cast<unsigned long long>(report.admitted),
                static_cast<unsigned long long>(report.served),
                static_cast<unsigned long long>(report.rejected),
                static_cast<unsigned long long>(report.elapsed),
                report.throughputRpmc);
    for (const auto &t : report.tenants)
        std::printf("  %-8s served %6llu  queue p50/p99/p99.9 = "
                    "%llu/%llu/%llu cy  service p50/p99 = %llu/%llu cy\n",
                    t.name.c_str(),
                    static_cast<unsigned long long>(t.served),
                    static_cast<unsigned long long>(t.p50QueueCycles),
                    static_cast<unsigned long long>(t.p99QueueCycles),
                    static_cast<unsigned long long>(t.p999QueueCycles),
                    static_cast<unsigned long long>(t.p50ServiceCycles),
                    static_cast<unsigned long long>(t.p99ServiceCycles));

    Json doc = report.toJson();
    if (opt.stats)
        doc["stats"] = sys.stats().dumpJson();
    if (!opt.jsonPath.empty()) {
        std::string text = doc.dump(2) + "\n";
        if (opt.jsonPath == "-") {
            std::fputs(text.c_str(), stdout);
        } else {
            std::ofstream out(opt.jsonPath,
                              std::ios::binary | std::ios::trunc);
            out << text;
            if (!out) {
                std::fprintf(stderr, "cc_server: cannot write %s\n",
                             opt.jsonPath.c_str());
                return 1;
            }
            std::printf("report: %s\n", opt.jsonPath.c_str());
        }
    }
    if (!opt.tracePath.empty() &&
        !sys.trace().writeFile(opt.tracePath))
        return 1;

    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A configuration the model cannot simulate (say, a key space the
    // Zipf alias table cannot index) is a usage error, not an abort.
    try {
        return serverMain(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "cc_server: %s\n", e.what());
        return 2;
    }
}
