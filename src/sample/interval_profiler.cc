#include "sample/interval_profiler.hh"

#include <algorithm>
#include <cmath>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::sample {

namespace {

/** log2 bucket of a reuse distance (distance >= 1). */
std::size_t
reuseBucket(std::uint64_t distance)
{
    std::size_t b = 0;
    while (distance > 1 && b + 1 < kReuseBuckets) {
        distance >>= 1;
        ++b;
    }
    return b;
}

} // namespace

std::vector<double>
IntervalFeatures::normalized() const
{
    std::vector<double> v;
    v.reserve(6 + kReuseBuckets);

    double n = records ? static_cast<double>(records) : 1.0;
    v.push_back(static_cast<double>(reads) / n);
    v.push_back(static_cast<double>(writes) / n);
    v.push_back(static_cast<double>(ccOps) / n);

    // CC bytes per record, log-compressed: a memcpy-heavy phase moves
    // KBs per record, a scalar phase zero. log2(1 + x) / 16 maps
    // [0, 64 KB/record] into ~[0, 1].
    v.push_back(std::log2(1.0 + static_cast<double>(ccBytes) / n) / 16.0);

    // Working set, log-compressed: log2(1 + pages) / 24 keeps traces up
    // to ~16 M distinct pages inside [0, 1].
    v.push_back(std::log2(1.0 + static_cast<double>(workingSetPages)) /
                24.0);

    // Cold-touch fraction and the reuse histogram, normalized over the
    // interval's touches so the shape (streaming vs looping) is what
    // clusters, not the interval length.
    std::uint64_t touches = coldTouches;
    for (std::size_t i = 0; i < kReuseBuckets; ++i)
        touches += reuseHist[i];
    double t = touches ? static_cast<double>(touches) : 1.0;
    v.push_back(static_cast<double>(coldTouches) / t);
    for (std::size_t i = 0; i < kReuseBuckets; ++i)
        v.push_back(static_cast<double>(reuseHist[i]) / t);

    return v;
}

IntervalProfiler::IntervalProfiler(std::size_t interval_records)
    : intervalRecords_(interval_records)
{
    if (interval_records == 0)
        CC_FATAL("interval size must be positive");
}

void
IntervalProfiler::touch(Addr addr)
{
    Addr block = addr & ~static_cast<Addr>(kBlockSize - 1);
    ++accessClock_;
    auto [it, inserted] = lastTouch_.try_emplace(block, accessClock_);
    if (inserted) {
        ++current_.coldTouches;
    } else {
        std::uint64_t distance = accessClock_ - it->second;
        ++current_.reuseHist[reuseBucket(distance)];
        it->second = accessClock_;
    }
    intervalPages_.insert(addr >> kPageOffsetBits);
}

void
IntervalProfiler::observe(const sim::TraceRecord &rec)
{
    CC_ASSERT(!finished_, "observe after finish");
    if (current_.records == 0)
        current_.firstRecord = recordIndex_;

    switch (rec.kind) {
      case sim::TraceRecord::Kind::Read:
        ++current_.reads;
        ++totals_.reads;
        touch(rec.addr);
        break;
      case sim::TraceRecord::Kind::Write:
        ++current_.writes;
        ++totals_.writes;
        touch(rec.addr);
        break;
      case sim::TraceRecord::Kind::CcOp:
        ++current_.ccOps;
        ++totals_.ccOps;
        current_.ccBytes += rec.instr.size;
        totals_.ccBytes += rec.instr.size;
        // A CC op touches every block of every operand; for the
        // feature vector the operand bases are enough to track the
        // page footprint without walking the whole vector.
        for (Addr a : rec.instr.operandAddrs())
            touch(a);
        break;
    }

    ++current_.records;
    ++recordIndex_;
    ++totals_.records;

    if (current_.records == intervalRecords_) {
        current_.workingSetPages = intervalPages_.size();
        intervals_.push_back(current_);
        current_ = IntervalFeatures{};
        intervalPages_.clear();
    }
}

void
IntervalProfiler::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (current_.records > 0) {
        current_.workingSetPages = intervalPages_.size();
        intervals_.push_back(current_);
        current_ = IntervalFeatures{};
        intervalPages_.clear();
    }
}

std::vector<IntervalFeatures>
profileTrace(const std::vector<sim::TraceRecord> &records,
             std::size_t interval_records)
{
    IntervalProfiler prof(interval_records);
    for (const sim::TraceRecord &rec : records)
        prof.observe(rec);
    prof.finish();
    return prof.intervals();
}

} // namespace ccache::sample
