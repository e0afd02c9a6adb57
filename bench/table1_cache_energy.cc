/**
 * @file
 * Reproduces Table I: cache energy per read access, split into the
 * in-cache H-tree interconnect ("cache-ic") and the bit-array access
 * ("cache-access") components, for L1-D / L2 / L3-slice.
 */

#include "bench_util.hh"
#include "energy/energy_params.hh"

using namespace ccache;
using namespace ccache::energy;

int
main(int argc, char **argv)
{
    bench::maybeDescribe(argc, argv,
                         "Table I: per-access read energy split (H-tree vs bit-array)");
    bench::header("Table I: Cache energy per read access");

    std::printf("%-10s %15s %15s %10s\n", "Cache", "cache-ic (h-tree)",
                "cache-access", "ic share");
    bench::rule();

    struct Row
    {
        const char *name;
        CacheReadSplit split;
    } rows[] = {
        {"L1-D", readSplit(CacheLevel::L1)},
        {"L2", readSplit(CacheLevel::L2)},
        {"L3-slice", readSplit(CacheLevel::L3)},
    };

    bench::ResultsWriter results("table1_cache_energy");
    const char *keys[] = {"l1d", "l2", "l3_slice"};

    // One sweep point per cache level.
    bench::SweepRunner sweep(&results);
    for (int r = 0; r < 3; ++r) {
        sweep.add(keys[r], [&, r](bench::SweepContext &ctx) {
            const auto &row = rows[r];
            std::string key = keys[r];
            ctx.metric(key + ".htree_pj", row.split.htree);
            ctx.metric(key + ".access_pj", row.split.access);
            ctx.metric(key + ".htree_fraction",
                       row.split.htree / row.split.total());
        });
    }
    sweep.run();

    for (const auto &row : rows)
        std::printf("%-10s %12.0f pJ %12.0f pJ %9.0f%%\n", row.name,
                    row.split.htree, row.split.access,
                    100.0 * row.split.htree / row.split.total());

    bench::rule();
    bench::note("Paper: L1-D 179/116, L2 675/127, L3-slice 1985/467 pJ;");
    bench::note("the H-tree consumes ~80% of an L3-slice read "
                "(Section III).");
    return bench::finish(results, sweep);
}
