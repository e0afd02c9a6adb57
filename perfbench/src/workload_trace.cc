/**
 * @file
 * trace_sampled: a seeded multi-phase trace, rendered to the sim/trace
 * text format, goes through the program's trace pipeline: parseTrace,
 * convertIdioms, sample::runFull (the golden run) and sample::runSampled
 * (one replay worker). Every round emits each phase once, and each phase
 * is one 1000-record interval after idiom conversion:
 *
 *   stream  cold sequential reads through never-revisited memory
 *   hot     a read/write loop over an L1-resident 4 KB set
 *   random  random reads over 1 MB, four times the L2
 *   cc      Compute Cache ops over a 256 KB buffer
 *   idiom   raw memcpy / memset / memcmp block loops
 *
 * Why: it is the only workload through the trace parser and sample/,
 * and the hierarchy sees plain demand reads and writes here rather than
 * CC operand staging. It also reports the sampled estimate's error
 * against the golden run, so a speed-up of sample/ cannot hide a loss
 * of accuracy.
 */

#include <cstdio>

#include "bench.hh"
#include "common/rng.hh"
#include "sample/idiom.hh"
#include "sample/sampled_runner.hh"
#include "sim/trace.hh"

namespace perfbench {
namespace {

using namespace ccache;
using Kind = sim::TraceRecord::Kind;

constexpr std::size_t kIntervalRecords = 1000;
constexpr std::size_t kRounds = 20;          ///< x5 phases = 100 intervals
constexpr std::size_t kRandomBlocks = 16384;  ///< 1 MB

sim::TraceRecord
mem(Kind kind, CoreId core, Addr addr)
{
    sim::TraceRecord rec;
    rec.kind = kind;
    rec.core = core;
    rec.addr = addr;
    return rec;
}

/** Deterministic trace generator. After idiom conversion every phase
 *  is exactly one interval, so intervals align with phases. */
class TraceGen
{
  public:
    explicit TraceGen(std::uint64_t seed) : rng_(seed)
    {
        hotBase_ = 0x2000'0000 + rng_.below(256) * kPageSize;
    }

    std::vector<sim::TraceRecord> generate()
    {
        std::vector<sim::TraceRecord> out;
        out.reserve(kRounds * 5 * kIntervalRecords);
        for (std::size_t round = 0; round < kRounds; ++round) {
            stream(out);
            hot(out);
            random(out);
            cc(out);
            idiom(out);
        }
        return out;
    }

  private:
    void stream(std::vector<sim::TraceRecord> &out)
    {
        for (std::size_t i = 0; i < kIntervalRecords; ++i)
            out.push_back(mem(Kind::Read, 0,
                              0x1000'0000 + streamCursor_++ * kBlockSize));
    }

    void hot(std::vector<sim::TraceRecord> &out)
    {
        for (std::size_t i = 0; i < kIntervalRecords; ++i) {
            Addr addr = hotBase_ + rng_.below(64) * kBlockSize;
            out.push_back(mem(rng_.chance(0.3) ? Kind::Write : Kind::Read, 1,
                              addr));
        }
    }

    void random(std::vector<sim::TraceRecord> &out)
    {
        for (std::size_t i = 0; i < kIntervalRecords; ++i)
            out.push_back(mem(Kind::Read, 2,
                              0x3000'0000 +
                                  rng_.below(kRandomBlocks) * kBlockSize));
    }

    void cc(std::vector<sim::TraceRecord> &out)
    {
        constexpr Addr base = 0x4000'0000;
        constexpr std::size_t slots = 256;   ///< 1 KB slots
        for (std::size_t i = 0; i < kIntervalRecords; ++i) {
            Addr a = base + rng_.below(slots) * 1024;
            Addr b = base + rng_.below(slots) * 1024;
            Addr c = base + rng_.below(slots) * 1024;
            cc::CcInstruction in;
            switch (rng_.below(5)) {
              case 0: in = cc::CcInstruction::copy(a, b, 1024); break;
              case 1: in = cc::CcInstruction::buz(a, 1024); break;
              case 2: in = cc::CcInstruction::cmp(a, b, 512); break;
              case 3:
                in = cc::CcInstruction::logicalAnd(a, b, c, 1024);
                break;
              default:
                in = cc::CcInstruction::logicalXor(a, b, c, 1024);
                break;
            }
            sim::TraceRecord rec;
            rec.kind = Kind::CcOp;
            rec.core = 3;
            rec.instr = in;
            out.push_back(rec);
        }
    }

    /**
     * memcpy (16 blocks), memset (32 blocks) and memcmp (8 block pairs)
     * loops through fresh memory, ten of each in a seeded order, between
     * scratch writes at a 2-block stride that never chain into runs.
     * Each loop converts to one CC instruction, so the phase converts to
     * exactly kIntervalRecords records and intervals stay aligned with
     * phases after convertIdioms.
     */
    void idiom(std::vector<sim::TraceRecord> &out)
    {
        constexpr CoreId core = 4;
        constexpr std::size_t kLoops = 30;
        constexpr std::size_t kScratch = kIntervalRecords - kLoops;
        std::size_t types[kLoops];
        for (std::size_t i = 0; i < kLoops; ++i)
            types[i] = i % 3;
        for (std::size_t i = kLoops - 1; i > 0; --i)
            std::swap(types[i], types[rng_.below(i + 1)]);

        for (std::size_t i = 0; i < kLoops; ++i) {
            std::size_t scratch =
                kScratch * (i + 1) / kLoops - kScratch * i / kLoops;
            for (std::size_t s = 0; s < scratch; ++s)
                out.push_back(mem(Kind::Write, core,
                                  0x7000'0000 + scratch_++ * 2 * kBlockSize));
            Addr src = 0x5000'0000 + idiomCursor_ * 0x4000;
            Addr dst = 0x6000'0000 + idiomCursor_ * 0x4000;
            ++idiomCursor_;
            if (types[i] == 0) {
                for (std::size_t b = 0; b < 16; ++b) {
                    out.push_back(mem(Kind::Read, core, src + b * kBlockSize));
                    out.push_back(mem(Kind::Write, core, dst + b * kBlockSize));
                }
            } else if (types[i] == 1) {
                for (std::size_t b = 0; b < 32; ++b)
                    out.push_back(mem(Kind::Write, core, src + b * kBlockSize));
            } else {
                for (std::size_t b = 0; b < 8; ++b) {
                    out.push_back(mem(Kind::Read, core, src + b * kBlockSize));
                    out.push_back(mem(Kind::Read, core, dst + b * kBlockSize));
                }
            }
        }
    }

    Rng rng_;
    Addr hotBase_ = 0;
    std::uint64_t streamCursor_ = 0;
    std::uint64_t idiomCursor_ = 0;
    std::uint64_t scratch_ = 0;
};

/** One record in the sim/trace text format. */
void
render(const sim::TraceRecord &rec, std::string &out)
{
    char buf[160];
    if (rec.kind != Kind::CcOp) {
        std::snprintf(buf, sizeof buf, "%c %u 0x%llx\n",
                      rec.kind == Kind::Read ? 'R' : 'W', rec.core,
                      static_cast<unsigned long long>(rec.addr));
    } else {
        const cc::CcInstruction &in = rec.instr;
        auto hex = [](Addr a) { return static_cast<unsigned long long>(a); };
        switch (in.op) {
          case cc::CcOpcode::Buz:
            std::snprintf(buf, sizeof buf, "CC %u cc_buz 0x%llx %zu\n",
                          rec.core, hex(in.dest), in.size);
            break;
          case cc::CcOpcode::Copy:
          case cc::CcOpcode::Cmp:
            std::snprintf(buf, sizeof buf, "CC %u %s 0x%llx 0x%llx %zu\n",
                          rec.core, cc::toString(in.op), hex(in.src1),
                          hex(in.op == cc::CcOpcode::Copy ? in.dest
                                                          : in.src2),
                          in.size);
            break;
          default:
            std::snprintf(buf, sizeof buf,
                          "CC %u %s 0x%llx 0x%llx 0x%llx %zu\n", rec.core,
                          cc::toString(in.op), hex(in.src1), hex(in.src2),
                          hex(in.dest), in.size);
            break;
        }
    }
    out += buf;
}

void
appendResult(const char *tag, const sim::TraceReplayResult &r,
             std::string &out)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s %llu %llu %llu %llu %llu %llu %llu %016llx\n", tag,
                  static_cast<unsigned long long>(r.reads),
                  static_cast<unsigned long long>(r.writes),
                  static_cast<unsigned long long>(r.ccInstructions),
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.l1Misses),
                  static_cast<unsigned long long>(r.memAccesses),
                  static_cast<unsigned long long>(r.ccBlockOps),
                  static_cast<unsigned long long>(r.resultChecksum));
    out += buf;
}

bool
sameResult(const sim::TraceReplayResult &a, const sim::TraceReplayResult &b)
{
    std::string x, y;
    appendResult("", a, x);
    appendResult("", b, y);
    return x == y;
}

/** Replay @p records on a fresh System; with @p samples, time each
 *  record (R/W into cache.access_ns, CC into cc.replay_ns). */
sim::TraceReplayResult
replay(const std::vector<sim::TraceRecord> &records,
       std::unique_ptr<sim::System> &sys,
       std::map<std::string, std::vector<double>> *samples)
{
    sys = std::make_unique<sim::System>();
    sim::TraceReplayResult res;
    std::vector<double> *access = nullptr, *ccOps = nullptr;
    if (samples) {
        access = &(*samples)["cache.access_ns"];
        ccOps = &(*samples)["cc.replay_ns"];
    }
    for (const sim::TraceRecord &rec : records) {
        if (!samples) {
            sim::replayRecord(*sys, rec, res);
            continue;
        }
        Clock::time_point a = Clock::now();
        sim::replayRecord(*sys, rec, res);
        double ns = nanosBetween(a, Clock::now());
        (rec.kind == Kind::CcOp ? ccOps : access)->push_back(ns);
    }
    res.cycles = sys->elapsed();
    return res;
}

class TraceSampled : public Workload
{
  public:
    explicit TraceSampled(std::uint64_t seed)
        : records_(TraceGen(subSeed(seed, "trace.records")).generate())
    {
        for (const sim::TraceRecord &rec : records_)
            render(rec, text_);
        params_.intervalRecords = kIntervalRecords;
        params_.clusters = 8;
        // Warm-up spans one full round of phases, so representatives of
        // phases that keep state across rounds see warmed caches.
        params_.warmupRecords = 5 * kIntervalRecords;
        params_.jobs = 1;
    }

    Iteration iterate(Tracer &tracer, bool first) override
    {
        Iteration it;

        Clock::time_point t0 = Clock::now();
        sim::ParsedTrace parsed;
        {
            auto span = tracer.span("sim.parse");
            parsed = sim::parseTrace(text_);
        }
        it.setupS = secondsSince(t0);

        Clock::time_point t1 = Clock::now();
        sample::ConvertResult converted;
        {
            auto span = tracer.span("sample.convert");
            converted = sample::convertIdioms(parsed.records);
        }
        sim::TraceReplayResult golden;
        {
            auto span = tracer.span("sim.full_replay");
            golden = sample::runFull(converted.records);
        }
        sample::SampledRun sampled;
        {
            auto span = tracer.span("sample.sampled");
            sampled = sample::runSampled(converted.records, params_);
        }
        it.runS = secondsSince(t1);

        const sample::SampledEstimate &est = sampled.estimate;
        digestOf(converted.stats, golden, sampled, it.digest);

        // Checks: the text parses cleanly to the generated records.
        it.attempted = records_.size() + 1;
        it.failed = parsed.errors.size();
        if (parsed.records.size() != records_.size())
            ++it.failed;
        for (const sim::TraceParseError &e : parsed.errors)
            std::fprintf(stderr, "trace_sampled: line %zu: %s\n",
                         e.lineNumber, e.message.c_str());

        it.values["sample.rel_error"] =
            sample::compareWithGolden(est, golden).maxError();
        it.values["sample.replay_fraction"] = est.replayFraction();
        it.values["sample.records_replayed_ratio"] = est.recordsTotal
            ? static_cast<double>(est.recordsReplayed) /
                static_cast<double>(est.recordsTotal)
            : 0.0;
        it.values["sample.phases"] =
            static_cast<double>(sampled.representatives.size());

        if (first)
            firstChecks(parsed, converted.records, golden, sampled, it);
        if (tracer.enabled())
            tracedMeasurements(converted.records, it);
        return it;
    }

  private:
    static void digestOf(const sample::ConvertStats &conv,
                         const sim::TraceReplayResult &golden,
                         const sample::SampledRun &run, std::string &out)
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "convert %llu %llu %llu %llu %llu %llu %llu %llu\n",
                      static_cast<unsigned long long>(conv.recordsIn),
                      static_cast<unsigned long long>(conv.recordsOut),
                      static_cast<unsigned long long>(conv.copyRuns),
                      static_cast<unsigned long long>(conv.copyBlocks),
                      static_cast<unsigned long long>(conv.cmpRuns),
                      static_cast<unsigned long long>(conv.cmpBlocks),
                      static_cast<unsigned long long>(conv.zeroRuns),
                      static_cast<unsigned long long>(conv.zeroBlocks));
        out += buf;
        appendResult("golden", golden, out);
        const sample::SampledEstimate &e = run.estimate;
        std::snprintf(buf, sizeof buf,
                      "estimate %.17g %.17g %.17g %.17g %zu %zu %llu\n",
                      e.l1Misses, e.memAccesses, e.ccBlockOps, e.cycles,
                      e.intervalsTotal, e.intervalsReplayed,
                      static_cast<unsigned long long>(e.recordsReplayed));
        out += buf;
        for (const sample::RepresentativeRun &rep : run.representatives) {
            std::snprintf(buf, sizeof buf, "rep %zu %llu %.17g %zu ",
                          rep.interval,
                          static_cast<unsigned long long>(rep.intervalCount),
                          rep.weight, rep.warmupUsed);
            out += buf;
            appendResult("", rep.metrics, out);
        }
    }

    /**
     * Once per process: the parsed records replay exactly like the
     * in-memory ones; an independent replay of the converted records
     * matches the golden run; and re-running each representative from
     * outside matches the sampled run. These replays also count the
     * simulated events of every System the pipeline used.
     */
    void firstChecks(const sim::ParsedTrace &parsed,
                     const std::vector<sim::TraceRecord> &converted,
                     const sim::TraceReplayResult &golden,
                     const sample::SampledRun &sampled, Iteration &it)
    {
        std::unique_ptr<sim::System> a, b;
        it.attempted += 2;
        if (!sameResult(replay(parsed.records, a, nullptr),
                        replay(records_, b, nullptr))) {
            ++it.failed;
            std::fprintf(stderr, "trace_sampled: the parsed text replays "
                         "differently from the generated records\n");
        }

        std::unique_ptr<sim::System> full;
        if (!sameResult(replay(converted, full, nullptr), golden)) {
            ++it.failed;
            std::fprintf(stderr, "trace_sampled: runFull differs from an "
                         "independent replay\n");
        }
        it.events += simulatedEvents(*full);
        addLayerCounters(*full, it.values);
        finishLayerCounters(it.values);

        for (const sample::RepresentativeRun &rep : sampled.representatives) {
            std::size_t start = rep.interval * kIntervalRecords;
            sim::System sys;
            sim::TraceReplayResult scratch, metrics;
            for (std::size_t i = start - rep.warmupUsed; i < start; ++i)
                sim::replayRecord(sys, converted[i], scratch);
            it.events += simulatedEvents(sys);
            sys.resetMetrics();
            std::size_t end = std::min(start + kIntervalRecords,
                                       converted.size());
            for (std::size_t i = start; i < end; ++i)
                sim::replayRecord(sys, converted[i], metrics);
            metrics.cycles = sys.elapsed();
            it.events += simulatedEvents(sys);
            ++it.attempted;
            if (!sameResult(metrics, rep.metrics)) {
                ++it.failed;
                std::fprintf(stderr, "trace_sampled: representative %zu "
                             "does not replay identically\n", rep.interval);
            }
        }
    }

    /** Traced iterations only, outside the timed regions and the spans:
     *  per-record replay latencies, and the profiler and clusterer on
     *  their own (runSampled runs both inside sample.sampled). */
    void tracedMeasurements(const std::vector<sim::TraceRecord> &converted,
                            Iteration &it)
    {
        std::unique_ptr<sim::System> sys;
        replay(converted, sys, &it.samples);
        addLayerCounters(*sys, it.values);
        finishLayerCounters(it.values);

        Clock::time_point t0 = Clock::now();
        std::vector<sample::IntervalFeatures> intervals =
            sample::profileTrace(converted, kIntervalRecords);
        it.values["sample.profile_s"] = secondsSince(t0);

        sample::ClusterParams cp;
        cp.clusters = params_.clusters;
        cp.seed = params_.seed;
        Clock::time_point t1 = Clock::now();
        sample::clusterIntervals(intervals, cp);
        it.values["sample.cluster_s"] = secondsSince(t1);
    }

    std::vector<sim::TraceRecord> records_;
    std::string text_;
    sample::SampledRunParams params_;
};

} // namespace

std::unique_ptr<Workload>
makeTraceSampled(std::uint64_t seed)
{
    return std::make_unique<TraceSampled>(seed);
}

} // namespace perfbench
