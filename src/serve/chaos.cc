#include "serve/chaos.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/rng.hh"

namespace ccache::serve {

namespace {

bool
parseKind(const std::string &text, ChaosKind *out)
{
    if (text == "crash") {
        *out = ChaosKind::Crash;
        return true;
    }
    if (text == "slow") {
        *out = ChaosKind::Slow;
        return true;
    }
    if (text == "partial") {
        *out = ChaosKind::Partial;
        return true;
    }
    return false;
}

bool
fail(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

/** Strict parse of a full token: decimal digits only (no space, no
 *  sign) that fit 64 bits. */
bool
parseU64(const std::string &text, std::uint64_t *out)
{
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && stop == end;
}

/** Strict parse of a full token as a finite double: no leading space,
 *  no trailing text, no NaN or infinity. */
bool
parseFinite(const std::string &text, double *out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

} // namespace

const char *
toString(ChaosKind kind)
{
    switch (kind) {
      case ChaosKind::Crash: return "crash";
      case ChaosKind::Slow: return "slow";
      case ChaosKind::Partial: return "partial";
    }
    return "unknown";
}

std::string
ChaosEvent::toSpec() const
{
    char buf[96];
    if (kind == ChaosKind::Crash) {
        std::snprintf(buf, sizeof buf, "%s@%llu+%llu:%u", toString(kind),
                      static_cast<unsigned long long>(start),
                      static_cast<unsigned long long>(duration), shard);
    } else {
        std::snprintf(buf, sizeof buf, "%s@%llu+%llu:%u*%g", toString(kind),
                      static_cast<unsigned long long>(start),
                      static_cast<unsigned long long>(duration), shard,
                      magnitude);
    }
    return buf;
}

Json
ChaosEvent::toJson() const
{
    Json e = Json::object();
    e["kind"] = toString(kind);
    e["shard"] = shard;
    e["start"] = start;
    e["duration"] = duration;
    if (kind != ChaosKind::Crash)
        e["magnitude"] = magnitude;
    return e;
}

bool
ChaosSchedule::parse(const std::string &spec, unsigned shards,
                     ChaosSchedule *out, std::string *err)
{
    ChaosSchedule sched;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t semi = spec.find(';', pos);
        std::string tok = spec.substr(
            pos, semi == std::string::npos ? std::string::npos : semi - pos);
        pos = semi == std::string::npos ? spec.size() : semi + 1;
        if (tok.empty())
            continue;

        std::size_t at = tok.find('@');
        std::size_t plus = tok.find('+', at == std::string::npos ? 0 : at);
        std::size_t colon =
            tok.find(':', plus == std::string::npos ? 0 : plus);
        if (at == std::string::npos || plus == std::string::npos ||
            colon == std::string::npos) {
            return fail(err, "chaos event '" + tok +
                                 "' is not kind@start+duration:shard");
        }

        ChaosEvent ev;
        if (!parseKind(tok.substr(0, at), &ev.kind))
            return fail(err, "unknown chaos kind in '" + tok + "'");
        if (!parseU64(tok.substr(at + 1, plus - at - 1), &ev.start))
            return fail(err, "bad start time in '" + tok + "'");
        // end() = start + duration must not wrap past 2^64.
        if (!parseU64(tok.substr(plus + 1, colon - plus - 1),
                      &ev.duration) ||
            ev.duration > std::numeric_limits<Cycles>::max() - ev.start)
            return fail(err, "bad duration in '" + tok + "'");
        if (ev.duration == 0)
            return fail(err, "zero duration in '" + tok + "'");

        std::string rest = tok.substr(colon + 1);
        std::size_t star = rest.find('*');
        std::uint64_t shard = 0;
        if (!parseU64(rest.substr(0, star), &shard))
            return fail(err, "bad shard index in '" + tok + "'");
        if (shard >= shards)
            return fail(err, "shard " + std::to_string(shard) +
                                 " out of range in '" + tok + "'");
        ev.shard = static_cast<unsigned>(shard);
        if (star != std::string::npos) {
            if (!parseFinite(rest.substr(star + 1), &ev.magnitude) ||
                ev.magnitude <= 0.0)
                return fail(err, "bad magnitude in '" + tok + "'");
        }
        sched.events.push_back(ev);
    }
    sched.canonicalize();
    *out = std::move(sched);
    return true;
}

std::string
ChaosSchedule::toSpec() const
{
    std::string out;
    for (const ChaosEvent &ev : events) {
        if (!out.empty())
            out += ';';
        out += ev.toSpec();
    }
    return out;
}

Json
ChaosSchedule::toJson() const
{
    Json arr = Json::array();
    for (const ChaosEvent &ev : events)
        arr.push(ev.toJson());
    return arr;
}

ChaosSchedule
ChaosSchedule::random(std::uint64_t seed, unsigned shards, Cycles horizon,
                      unsigned count)
{
    ChaosSchedule sched;
    if (shards < 2 || horizon == 0)
        return sched;
    Rng rng(mix64(seed ^ 0xc4a05ULL));
    for (unsigned i = 0; i < count; ++i) {
        ChaosEvent ev;
        switch (rng.below(3)) {
          case 0: ev.kind = ChaosKind::Crash; break;
          case 1: ev.kind = ChaosKind::Slow; break;
          default: ev.kind = ChaosKind::Partial; break;
        }
        ev.shard = 1 + static_cast<unsigned>(rng.below(shards - 1));
        ev.start = rng.below(horizon);
        // Windows span 5%..25% of the horizon.
        ev.duration = horizon / 20 + rng.below(horizon / 5 + 1);
        ev.magnitude = 2.0 + static_cast<double>(rng.below(7));
        sched.events.push_back(ev);
    }
    sched.canonicalize();
    return sched;
}

void
ChaosSchedule::canonicalize()
{
    std::sort(events.begin(), events.end(),
              [](const ChaosEvent &a, const ChaosEvent &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  if (a.shard != b.shard)
                      return a.shard < b.shard;
                  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              });
}

} // namespace ccache::serve
