#include "bench.hh"

#include <cstdio>

#include "common/rng.hh"

namespace perfbench {

namespace {
constexpr std::size_t kProbeTags = std::size_t{1} << 21;  ///< 16 MB
} // namespace

int
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    Clock::time_point now = Clock::now();
    spans_.push_back(Span{name, now, now, open_, iteration_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    spans_[index].end = Clock::now();
    open_ = spans_[index].parent;
}

std::map<int, double>
Tracer::totalByIteration(const std::string &name) const
{
    std::map<int, double> out;
    for (const Span &s : spans_) {
        if (name == s.name)
            out[s.iteration] += nanosBetween(s.start, s.end) * 1e-9;
    }
    return out;
}

std::map<int, std::map<std::string, double>>
Tracer::selfTimeByIteration() const
{
    // Spans are single-threaded and properly nested, so the part of a
    // span its children cover is the sum of their durations.
    std::vector<double> childNs(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[s.parent] += nanosBetween(s.start, s.end);
    }
    std::map<int, std::map<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string name = s.name;
        std::string layer = name.substr(0, name.find('.'));
        out[s.iteration][layer] +=
            (nanosBetween(s.start, s.end) - childNs[i]) * 1e-9;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &workload) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    auto micros = [&](Clock::time_point t) {
        return nanosBetween(origin, t) * 1e-3;
    };
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":1,\"args\":{\"name\":\"perfbench host time: "
                 "%s\"}}",
                 workload.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,"
                     "\"iteration\":%d,\"workload\":\"%s\"}}",
                     s.name, micros(s.start), micros(s.end) - micros(s.start),
                     i, s.parent, s.iteration, workload.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

HostProbe::HostProbe() : tags_(kProbeTags, 0)
{
    run();  // fault in the tag array before the first measurement
}

double
HostProbe::run()
{
    constexpr std::size_t kLookups = 800000;
    constexpr std::size_t kWays = 8;
    constexpr std::uint64_t kSets = kProbeTags / kWays;
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kLookups; ++i) {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        std::uint64_t block = (state_ & 0x3ffffff) >> 6;  // 64 MB space
        std::uint64_t *ways = &tags_[(block % kSets) * kWays];
        bool hit = false;
        for (std::size_t w = 0; w < kWays && !hit; ++w)
            hit = ways[w] == block;
        if (!hit) {
            for (std::size_t w = kWays - 1; w > 0; --w)
                ways[w] = ways[w - 1];
            ways[0] = block;
        }
        std::uint32_t &misses = pages_[block >> 6];
        misses += !hit;
        if (pages_.size() > 16384)
            pages_.erase(pages_.begin());
    }
    return secondsSince(start);
}

std::uint64_t
simulatedEvents(ccache::sim::System &sys)
{
    const ccache::StatRegistry &st = sys.stats();
    return st.value("hier.l1_hits") + st.value("hier.l1_misses") +
        st.value("hier.l1_write_hits") + st.value("cc.block_ops");
}

void
addLayerCounters(ccache::sim::System &sys,
                 std::map<std::string, double> &values)
{
    const ccache::StatRegistry &st = sys.stats();
    for (const char *name :
         {"hier.l1_hits", "hier.l1_write_hits", "hier.l1_misses",
          "hier.l2_hits", "hier.l2_misses", "hier.l3_hits",
          "hier.l3_misses", "cc.block_ops", "cc.in_place_ops",
          "cc.risc_fallbacks", "cc.circuit_verifications",
          "noc.messages"})
        values[name] += static_cast<double>(st.value(name));
}

void
finishLayerCounters(std::map<std::string, double> &v)
{
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    double l1Hits = v["hier.l1_hits"] + v["hier.l1_write_hits"];
    v["cache.l1_hit_ratio"] = ratio(l1Hits, l1Hits + v["hier.l1_misses"]);
    v["cache.l2_hit_ratio"] =
        ratio(v["hier.l2_hits"], v["hier.l2_hits"] + v["hier.l2_misses"]);
    v["cache.l3_hit_ratio"] =
        ratio(v["hier.l3_hits"], v["hier.l3_hits"] + v["hier.l3_misses"]);
    v["cc.in_place_ratio"] = ratio(v["cc.in_place_ops"], v["cc.block_ops"]);
}

double
dumpStats(Tracer &tracer, ccache::sim::System &sys, std::string &digest)
{
    Clock::time_point start = Clock::now();
    ccache::Json doc;
    ccache::energy::EnergyTotals totals;
    {
        auto span = tracer.span("stats.dump");
        doc = sys.stats().dumpJson();
        totals = sys.totals();
    }
    double seconds = secondsSince(start);
    char buf[160];
    std::snprintf(buf, sizeof buf, "energy %.17g %.17g %.17g %.17g\n",
                  totals.coreDynamic, totals.uncoreDynamic,
                  totals.coreStatic, totals.uncoreStatic);
    digest += doc.dump();
    digest += '\n';
    digest += buf;
    return seconds;
}

std::uint64_t
subSeed(std::uint64_t seed, const char *purpose)
{
    return ccache::deriveSeed(seed, purpose);
}

} // namespace perfbench
