/**
 * @file
 * Checkpointing example: copy-on-write page checkpointing with cc_copy,
 * showing why page-aligned copies get perfect operand locality and how
 * the overhead compares across engines (the paper's Figure 10 story).
 *
 * Run: ./build/examples/example_checkpoint_demo
 */

#include <cstdio>

#include "apps/checkpoint.hh"

using namespace ccache;
using namespace ccache::apps;

int
main()
{
    CheckpointConfig cfg;
    cfg.intervals = 12;

    std::printf("copy-on-write checkpointing, radix-sort-like workload, "
                "%zu intervals of %llu instructions\n\n",
                cfg.intervals,
                static_cast<unsigned long long>(
                    Checkpoint::kIntervalInstructions));

    std::printf("%-9s %14s %16s %12s %10s\n", "engine", "app cycles",
                "chkpt cycles", "pages", "overhead");
    for (Engine engine : {Engine::Base, Engine::Base32, Engine::Cc}) {
        sim::System sys;
        Checkpoint ck(workload::SplashApp::Radix, cfg);
        auto res = ck.run(sys, engine);
        std::printf("%-9s %14llu %16llu %12llu %9.1f%%\n",
                    toString(engine),
                    static_cast<unsigned long long>(res.baseCycles),
                    static_cast<unsigned long long>(res.checkpointCycles),
                    static_cast<unsigned long long>(res.pagesCopied),
                    res.overheadPct());
    }

    std::printf("\nEvery checkpoint copy is page-to-page, so source and "
                "shadow share\n");
    std::printf("their page offset: the Compute Cache runs every copy "
                "in-place in L3\n");
    std::printf("and the processor never touches the data (Section "
                "VI-E).\n");
    return 0;
}
