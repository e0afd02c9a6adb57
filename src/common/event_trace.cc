#include "common/event_trace.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ccache {

Cycles &
EventTrace::cursor(int track)
{
    std::size_t idx = static_cast<std::size_t>(track + 1);
    if (idx >= cursors_.size())
        cursors_.resize(idx + 1, 0);
    return cursors_[idx];
}

void
EventTrace::complete(const char *cat, std::string name, int track,
                     Cycles start, Cycles dur, Json args)
{
    if (!enabled_)
        return;
    Cycles &cur = cursor(track);
    Cycles ts = std::max(start, cur);
    cur = ts + dur;
    events_.push_back(
        {std::move(name), cat, 'X', ts, dur, track, std::move(args)});
}

void
EventTrace::instant(const char *cat, std::string name, int track, Cycles ts,
                    Json args)
{
    if (!enabled_)
        return;
    Cycles at = std::max(ts, cursor(track));
    events_.push_back(
        {std::move(name), cat, 'i', at, 0, track, std::move(args)});
}

void
EventTrace::clear()
{
    events_.clear();
    cursors_.clear();
}

Json
EventTrace::toJson() const
{
    Json events = Json::array();

    // Metadata: name the process and one thread (track) per core, plus
    // the global track used by events without a core context.
    auto meta = [&](const char *what, int tid, const std::string &label) {
        Json m = Json::object();
        m["name"] = what;
        m["ph"] = "M";
        m["pid"] = 1;
        m["tid"] = tid;
        Json args = Json::object();
        args["name"] = label;
        m["args"] = std::move(args);
        events.push(std::move(m));
    };
    meta("process_name", 0, "ccache-sim");

    std::vector<int> tracks;
    for (const Event &e : events_)
        tracks.push_back(e.track);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
    for (int t : tracks) {
        std::string label;
        if (t == kGlobalTrack)
            label = "system";
        else if (t >= kNocTrackBase)
            label = "noc stop " + std::to_string(t - kNocTrackBase);
        else
            label = "core " + std::to_string(t);
        meta("thread_name", t + 1, label);
    }

    for (const Event &e : events_) {
        Json j = Json::object();
        j["name"] = e.name;
        j["cat"] = e.cat;
        j["ph"] = std::string(1, e.ph);
        j["ts"] = e.ts;
        if (e.ph == 'X')
            j["dur"] = e.dur;
        else if (e.ph == 'i')
            j["s"] = "t";   // instant scope: thread
        j["pid"] = 1;
        j["tid"] = e.track + 1;
        if (!e.args.isNull())
            j["args"] = e.args;
        events.push(std::move(j));
    }

    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ns";
    Json other = Json::object();
    other["clock"] = "1 trace us == 1 simulated core cycle";
    doc["otherData"] = std::move(other);
    return doc;
}

std::string
EventTrace::dumpChromeJson() const
{
    return toJson().dump();
}

bool
EventTrace::writeFile(const std::string &path) const
{
    // Temp-file + atomic rename with checked stream state: an
    // interrupted or failed write can never leave a torn trace file
    // behind for tooling to trip over.
    namespace fs = std::filesystem;
#if defined(__unix__) || defined(__APPLE__)
    std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
#else
    std::string tmp = path + ".tmp";
#endif
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            CC_WARN("cannot open trace file ", tmp);
            return false;
        }
        out << dumpChromeJson() << "\n";
        out.flush();
        if (!out) {
            CC_WARN("write to trace file ", tmp, " failed");
            out.close();
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        CC_WARN("cannot rename ", tmp, " over ", path, ": ",
                ec.message());
        std::error_code rm;
        fs::remove(tmp, rm);
        return false;
    }
    return true;
}

} // namespace ccache
