/**
 * @file
 * Tests for the event-trace sink: disabled-by-default behavior, track
 * cursors, Chrome trace-event JSON output, the warning on a failed
 * write, and the guarantee that enabling tracing does not perturb
 * simulation statistics.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/event_trace.hh"
#include "common/json.hh"
#include "sim/system.hh"

namespace ccache {
namespace {

TEST(EventTrace, DisabledSinkRecordsNothing)
{
    EventTrace trace;
    EXPECT_FALSE(trace.enabled());
    trace.complete(tracecat::kCc, "cc_copy", 0, 0, 10);
    trace.instant(tracecat::kFault, "fault.retry", EventTrace::kGlobalTrack,
                  5);
    EXPECT_EQ(trace.size(), 0u);
}

TEST(EventTrace, TrackCursorsSerializeOverlappingEvents)
{
    EventTrace trace;
    trace.enable();
    // Two events claiming the same start cycle on one track lay
    // end-to-end; a third on another track is independent.
    trace.complete(tracecat::kCc, "a", 0, 100, 10);
    trace.complete(tracecat::kCc, "b", 0, 100, 10);
    trace.complete(tracecat::kNoc, "c", 1, 100, 10);
    ASSERT_EQ(trace.size(), 3u);

    Json doc;
    std::string error;
    doc = Json::parse(trace.dumpChromeJson(), &error);
    ASSERT_TRUE(error.empty()) << error;
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::uint64_t ts_a = 0, ts_b = 0, ts_c = 0;
    for (const Json &e : events->asArray()) {
        const Json *name = e.find("name");
        if (!name || !e.find("ts"))
            continue;
        if (name->asString() == "a")
            ts_a = static_cast<std::uint64_t>(e.find("ts")->asNumber());
        if (name->asString() == "b")
            ts_b = static_cast<std::uint64_t>(e.find("ts")->asNumber());
        if (name->asString() == "c")
            ts_c = static_cast<std::uint64_t>(e.find("ts")->asNumber());
    }
    EXPECT_EQ(ts_a, 100u);
    EXPECT_EQ(ts_b, 110u);  // pushed past 'a' by the track cursor
    EXPECT_EQ(ts_c, 100u);  // different track, unaffected
}

TEST(EventTrace, ChromeJsonCarriesMetadataAndCategories)
{
    EventTrace trace;
    trace.enable();
    Json args = Json::object();
    args["addr"] = "0x1000";
    trace.complete(tracecat::kCache, "read.l2", 2, 0, 5, args);
    trace.instant(tracecat::kFault, "fault.retry",
                  EventTrace::kGlobalTrack, 3);

    std::string error;
    Json doc = Json::parse(trace.dumpChromeJson(), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(doc.find("displayTimeUnit")->asString(), "ns");

    bool saw_meta = false, saw_cache = false, saw_fault = false;
    for (const Json &e : doc.find("traceEvents")->asArray()) {
        const Json *ph = e.find("ph");
        if (ph && ph->asString() == "M")
            saw_meta = true;
        const Json *cat = e.find("cat");
        if (cat && cat->asString() == tracecat::kCache) {
            saw_cache = true;
            EXPECT_EQ(e.find("args")->find("addr")->asString(), "0x1000");
        }
        if (cat && cat->asString() == tracecat::kFault)
            saw_fault = true;
    }
    EXPECT_TRUE(saw_meta);
    EXPECT_TRUE(saw_cache);
    EXPECT_TRUE(saw_fault);
}

TEST(EventTrace, WriteFileFailureWarns)
{
    // A file under a missing directory cannot be opened: writeFile says
    // so on stderr and returns false.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "ccache_missing_dir";
    fs::remove_all(dir);
    EventTrace trace;
    trace.enable();
    trace.complete(tracecat::kCc, "cc_copy", 0, 0, 10);

    ::testing::internal::CaptureStderr();
    bool ok = trace.writeFile((dir / "trace.json").string());
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("warn: cannot open trace file"), std::string::npos)
        << err;
    EXPECT_FALSE(fs::exists(dir));
}

/** Drive one CC kernel; optionally with the trace sink enabled. */
std::string
runAndDumpStats(bool traced, std::string *chrome_out = nullptr)
{
    sim::System sys;
    const std::size_t n = 1024;
    std::vector<std::uint8_t> data(n, 0x5a);
    sys.load(0x100000, data.data(), n);
    sys.warm(CacheLevel::L3, 0, 0x100000, n);
    sys.warm(CacheLevel::L3, 0, 0x200000, n);
    sys.resetMetrics();
    if (traced)
        sys.trace().enable();

    sys.cc().mutableParams().forceLevel = CacheLevel::L3;
    auto r = sys.ccEngine().copy(0, 0x100000, 0x200000, n);
    sys.advance(0, r.cycles);

    if (chrome_out)
        *chrome_out = sys.trace().dumpChromeJson();
    return sys.stats().dump();
}

TEST(EventTraceSystem, TracingDoesNotPerturbStats)
{
    std::string untraced = runAndDumpStats(false);
    std::string chrome;
    std::string traced = runAndDumpStats(true, &chrome);
    // Bit-identical stats dump with and without the sink enabled.
    EXPECT_EQ(untraced, traced);

    // And the traced run actually produced a loadable Chrome trace.
    std::string error;
    Json doc = Json::parse(chrome, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_GT(doc.find("traceEvents")->asArray().size(), 0u);
}

TEST(EventTraceSystem, DisabledRunEmitsNoEvents)
{
    sim::System sys;
    const std::size_t n = 512;
    std::vector<std::uint8_t> data(n, 0x11);
    sys.load(0x100000, data.data(), n);
    sys.warm(CacheLevel::L3, 0, 0x100000, n);
    sys.resetMetrics();
    sys.cc().mutableParams().forceLevel = CacheLevel::L3;
    sys.ccEngine().copy(0, 0x100000, 0x200000, n);
    EXPECT_EQ(sys.trace().size(), 0u);
}

TEST(EventTraceSystem, ResetMetricsClearsTrace)
{
    sim::System sys;
    sys.trace().enable();
    const std::size_t n = 512;
    std::vector<std::uint8_t> data(n, 0x11);
    sys.load(0x100000, data.data(), n);
    sys.warm(CacheLevel::L3, 0, 0x100000, n);
    sys.warm(CacheLevel::L3, 0, 0x200000, n);
    sys.cc().mutableParams().forceLevel = CacheLevel::L3;
    sys.ccEngine().copy(0, 0x100000, 0x200000, n);
    ASSERT_GT(sys.trace().size(), 0u);
    sys.resetMetrics();
    EXPECT_EQ(sys.trace().size(), 0u);
    EXPECT_TRUE(sys.trace().enabled());  // enable survives a reset
}

} // namespace
} // namespace ccache
