/**
 * @file
 * Ablation: the two ECC alternatives of Section IV-I for in-place
 * logical operations.
 *
 *  1. XOR-check unit: read out xor(A,B) and xor(ECC_A, ECC_B) and check
 *     ECC(A^B) == ECC(A)^ECC(B) at the controller — extra transfers per
 *     operation, zero residual risk.
 *  2. Cache scrubbing: periodic background check — near-zero overhead,
 *     bounded exposure window.
 */

#include "bench_util.hh"
#include "cc/ecc.hh"
#include "common/rng.hh"
#include "energy/energy_params.hh"

using namespace ccache;
using namespace ccache::cc;

int
main(int argc, char **argv)
{
    bench::maybeDescribe(argc, argv,
                         "Section IV-I: XOR-check unit vs scrubbing ECC ablation");
    bench::header("Ablation: ECC strategies for in-place logical ops "
                  "(Section IV-I)");

    bench::ResultsWriter results("ablation_ecc");
    constexpr std::size_t trials = 100000;
    results.config("trials", static_cast<double>(trials));

    std::size_t holds = 0;
    double xor_extra = 0.0, logic = 0.0;
    const double intervals_ms[] = {10.0, 100.0, 1000.0};
    double scrub_overhead[3] = {}, scrub_errors[3] = {};

    bench::SweepRunner sweep(&results);

    // Alternative 1: the xor-identity is exact for the linear SECDED
    // code; verify over a large random sample (the point's own derived
    // RNG stream) and cost the extra transfers.
    sweep.add("xor_identity", [&](bench::SweepContext &ctx) {
        for (std::size_t i = 0; i < trials; ++i)
            holds += Secded::xorIdentityHolds(ctx.rng().next(),
                                              ctx.rng().next()) ? 1 : 0;
        ctx.metric("xor_identity.holds_fraction",
                   static_cast<double>(holds) /
                       static_cast<double>(trials));
    });
    sweep.add("xor_check", [&](bench::SweepContext &ctx) {
        using energy::cacheOpEnergy;
        xor_extra =
            cacheOpEnergy(CacheLevel::L3, energy::CacheOp::Read) +
            cacheOpEnergy(CacheLevel::L3, energy::CacheOp::Write) * 0.2;
        logic = cacheOpEnergy(CacheLevel::L3, energy::CacheOp::Logic);
        ctx.metric("xor_check.extra_pj", xor_extra);
        ctx.metric("xor_check.overhead_fraction", xor_extra / logic);
    });
    // Alternative 2: scrubbing, one point per interval.
    for (int s = 0; s < 3; ++s) {
        double interval_ms = intervals_ms[s];
        std::string key = "scrub_" + std::to_string(
            static_cast<int>(interval_ms)) + "ms";
        sweep.add(key, [&, s, interval_ms,
                        key](bench::SweepContext &ctx) {
            ScrubbingModel m;
            m.intervalMs = interval_ms;
            scrub_overhead[s] = m.cycleOverhead();
            scrub_errors[s] = m.expectedErrorsPerInterval();
            ctx.metric(key + ".cycle_overhead", scrub_overhead[s]);
            ctx.metric(key + ".expected_errors", scrub_errors[s]);
        });
    }
    sweep.run();

    std::printf("xor-identity ECC(A^B) == ECC(A)^ECC(B): %zu/%zu random "
                "word pairs\n",
                holds, trials);
    std::printf("XOR-check unit: ~%.0f pJ extra per 64-byte logical op "
                "(op itself: %.0f pJ)\n",
                xor_extra, logic);
    std::printf("  -> %.0f%% energy overhead on every in-place logical "
                "operation\n\n",
                100.0 * xor_extra / logic);
    std::printf("%-14s %16s %24s\n", "interval", "cycle overhead",
                "expected errors/interval");
    bench::rule();
    for (int s = 0; s < 3; ++s)
        std::printf("%10.0f ms %15.4f%% %24.2e\n", intervals_ms[s],
                    100.0 * scrub_overhead[s], scrub_errors[s]);

    bench::rule();
    bench::note("With 0.7-7 soft errors/year, scrubbing at 100 ms costs");
    bench::note("<0.01% of cycles with ~1e-9 expected errors per window —");
    bench::note("the paper's preferred alternative. The XOR-check unit");
    bench::note("doubles logical-op energy but leaves zero exposure.");
    return bench::finish(results, sweep);
}
