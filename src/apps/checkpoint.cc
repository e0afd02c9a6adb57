#include "apps/checkpoint.hh"

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::apps {

namespace {

/** Application IPC for the compute phase of each interval. */
constexpr double kAppIpc = 2.0;

/** Simulated-memory layout: the application heap and its shadow. @{ */
constexpr Addr kHeapBase = 0x1000'0000;
constexpr Addr kShadowBase = 0x5000'0000;
/** @} */
static_assert((kShadowBase - kHeapBase) % kPageSize == 0,
              "a shadow page must keep its source's page offset");

} // namespace

Checkpoint::Checkpoint(workload::SplashApp app,
                       const CheckpointConfig &config)
    : app_(app), config_(config)
{
}

CheckpointResult
Checkpoint::run(sim::System &sys, Engine engine, bool checkpointing)
{
    auto &hier = sys.hierarchy();
    auto &em = sys.energy();
    workload::SplashTrace trace(app_, kHeapBase, config_.seed);

    CheckpointResult result;
    Rng content_rng(config_.seed ^ 0xfeed);

    for (std::size_t interval = 0; interval < config_.intervals;
         ++interval) {
        auto activity = trace.nextInterval(kIntervalInstructions);

        // ---- Application compute phase ------------------------------
        Cycles compute = static_cast<Cycles>(
            static_cast<double>(kIntervalInstructions) / kAppIpc);
        result.baseCycles += compute;
        em.chargeInstructions(kIntervalInstructions);
        // The application's own cache traffic (mostly L1 hits).
        em.chargeCacheOp(CacheLevel::L1, energy::CacheOp::Read,
                         activity.memAccesses);

        // The interval's writes leave dirty data in the caches, which is
        // exactly what the checkpoint copies must observe.
        for (Addr page : activity.dirtiedPages) {
            Block data;
            for (auto &byte : data)
                byte = static_cast<std::uint8_t>(content_rng.below(256));
            hier.write(0, page, &data);
        }

        if (!checkpointing)
            continue;

        // ---- Copy-on-write checkpoint phase -------------------------
        for (Addr page : activity.dirtiedPages) {
            Addr shadow = kShadowBase + (page - kHeapBase);
            sim::KernelResult copy;
            switch (engine) {
              case Engine::Base:
                copy = sys.scalar().copy(0, page, shadow, kPageSize);
                break;
              case Engine::Base32:
                copy = sys.simd32().copy(0, page, shadow, kPageSize);
                break;
              case Engine::Cc:
                sys.cc().mutableParams().forceLevel = CacheLevel::L3;
                copy = sys.ccEngine().copy(0, page, shadow, kPageSize);
                break;
            }
            result.checkpointCycles += copy.cycles;
            ++result.pagesCopied;

            // Spot-check the copy.
            CC_ASSERT(hier.debugRead(shadow) == hier.debugRead(page),
                      "checkpoint copy corrupted page 0x", std::hex,
                      page);
        }
    }

    result.app.cycles = result.baseCycles + result.checkpointCycles;
    result.app.instructions = config_.intervals * kIntervalInstructions;
    sys.advance(0, result.app.cycles);
    result.app.dynamic = em.dynamic();
    result.app.totals = sys.totals();
    result.app.checksum = result.pagesCopied;
    return result;
}

} // namespace ccache::apps
