#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace ccache {

StatHistogram::StatHistogram(std::string name, double bucket_width,
                             std::size_t nbuckets, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc)),
      bucketWidth_(bucket_width), buckets_(nbuckets + 1, 0)
{
    CC_ASSERT(bucket_width > 0.0, "bucket width must be positive");
    CC_ASSERT(nbuckets > 0, "need at least one bucket");
}

void
StatHistogram::sample(double value)
{
    std::size_t idx = value < 0.0
        ? 0
        : std::min<std::size_t>(static_cast<std::size_t>(value / bucketWidth_),
                                buckets_.size() - 1);
    ++buckets_[idx];
    ++count_;
    sum_ += value;
    if (count_ == 1) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
}

void
StatHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

double
StatHistogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::size_t
StatLogHistogram::bucketIndex(std::uint64_t value) const
{
    const std::uint64_t sub = std::uint64_t{1} << kSubBucketBits;
    if (value < sub)
        return static_cast<std::size_t>(value);
    unsigned msb = std::bit_width(value) - 1;   // value in [2^msb, 2^msb+1)
    unsigned octave = msb - kSubBucketBits;
    return static_cast<std::size_t>(
        sub + std::uint64_t{octave} * sub + ((value >> octave) - sub));
}

std::uint64_t
StatLogHistogram::bucketLowerBound(std::size_t idx) const
{
    const std::uint64_t sub = std::uint64_t{1} << kSubBucketBits;
    if (idx < sub)
        return idx;
    unsigned octave = static_cast<unsigned>(idx / sub) - 1;
    std::uint64_t offset = idx % sub;
    return (sub + offset) << octave;
}

std::uint64_t
StatLogHistogram::bucketUpperBound(std::size_t idx) const
{
    const std::uint64_t sub = std::uint64_t{1} << kSubBucketBits;
    if (idx < sub)
        return idx;
    unsigned octave = static_cast<unsigned>(idx / sub) - 1;
    return bucketLowerBound(idx) + ((std::uint64_t{1} << octave) - 1);
}

void
StatLogHistogram::sample(std::uint64_t value)
{
    std::size_t idx = bucketIndex(value);
    if (idx >= buckets_.size())
        buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    ++count_;
    sum_ += static_cast<double>(value);
    if (count_ == 1) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
}

void
StatLogHistogram::reset()
{
    buckets_.clear();
    count_ = 0;
    sum_ = 0.0;
    min_ = max_ = 0;
}

double
StatLogHistogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t
StatLogHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return std::min(bucketUpperBound(i), max_);
    }
    return max_;
}

StatCounter &
StatRegistry::counter(const std::string &name, const std::string &desc)
{
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.emplace(name, StatCounter(name, desc)).first;
    return it->second;
}

StatAccum &
StatRegistry::accum(const std::string &name, const std::string &desc)
{
    auto it = accums_.find(name);
    if (it == accums_.end())
        it = accums_.emplace(name, StatAccum(name, desc)).first;
    return it->second;
}

StatHistogram &
StatRegistry::histogram(const std::string &name, double bucket_width,
                        std::size_t nbuckets, const std::string &desc)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_
                 .emplace(name,
                          StatHistogram(name, bucket_width, nbuckets, desc))
                 .first;
    return it->second;
}

StatLogHistogram &
StatRegistry::logHistogram(const std::string &name, const std::string &desc)
{
    auto it = logHistograms_.find(name);
    if (it == logHistograms_.end())
        it = logHistograms_.emplace(name, StatLogHistogram(name, desc))
                 .first;
    return it->second;
}

StatFormula &
StatRegistry::formula(const std::string &name, StatFormula::Fn fn,
                      const std::string &desc)
{
    formulas_[name] = StatFormula(name, std::move(fn), desc);
    return formulas_[name];
}

StatGroup
StatRegistry::group(const std::string &prefix)
{
    return StatGroup(*this, prefix);
}

std::uint64_t
StatRegistry::value(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
StatRegistry::accumValue(const std::string &name) const
{
    auto it = accums_.find(name);
    return it == accums_.end() ? 0.0 : it->second.value();
}

double
StatRegistry::formulaValue(const std::string &name) const
{
    auto it = formulas_.find(name);
    return it == formulas_.end() ? 0.0 : it->second.value();
}

const StatHistogram *
StatRegistry::histogramAt(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

const StatLogHistogram *
StatRegistry::logHistogramAt(const std::string &name) const
{
    auto it = logHistograms_.find(name);
    return it == logHistograms_.end() ? nullptr : &it->second;
}

void
StatRegistry::resetAll()
{
    for (auto &[name, c] : counters_)
        c.reset();
    for (auto &[name, a] : accums_)
        a.reset();
    for (auto &[name, h] : histograms_)
        h.reset();
    for (auto &[name, h] : logHistograms_)
        h.reset();
}

std::string
StatRegistry::dump() const
{
    std::ostringstream os;
    for (const auto &[name, c] : counters_)
        os << name << " " << c.value() << "\n";
    for (const auto &[name, a] : accums_)
        os << name << " " << a.value() << "\n";
    for (const auto &[name, h] : histograms_)
        os << name << " count=" << h.count() << " mean=" << h.mean()
           << " min=" << h.min() << " max=" << h.max() << "\n";
    for (const auto &[name, h] : logHistograms_)
        os << name << " count=" << h.count() << " mean=" << h.mean()
           << " p50=" << h.quantile(0.50) << " p99=" << h.quantile(0.99)
           << " max=" << h.max() << "\n";
    for (const auto &[name, f] : formulas_)
        os << name << " " << f.value() << "\n";
    return os.str();
}

Json
StatRegistry::dumpJson() const
{
    Json doc = Json::object();
    doc["schema"] = "ccache-stats";
    doc["version"] = kStatsSchemaVersion;

    Json descriptions = Json::object();
    auto describe = [&](const std::string &name, const std::string &desc) {
        if (!desc.empty())
            descriptions[name] = desc;
    };

    Json counters = Json::object();
    for (const auto &[name, c] : counters_) {
        counters[name] = c.value();
        describe(name, c.description());
    }
    doc["counters"] = std::move(counters);

    Json accums = Json::object();
    for (const auto &[name, a] : accums_) {
        accums[name] = a.value();
        describe(name, a.description());
    }
    doc["accums"] = std::move(accums);

    Json formulas = Json::object();
    for (const auto &[name, f] : formulas_) {
        formulas[name] = f.value();
        describe(name, f.description());
    }
    doc["formulas"] = std::move(formulas);

    Json histograms = Json::object();
    for (const auto &[name, h] : histograms_) {
        Json entry = Json::object();
        entry["count"] = h.count();
        entry["mean"] = h.mean();
        entry["min"] = h.min();
        entry["max"] = h.max();
        entry["bucket_width"] = h.bucketWidth();
        Json buckets = Json::array();
        for (std::uint64_t b : h.buckets())
            buckets.push(b);
        entry["buckets"] = std::move(buckets);
        histograms[name] = std::move(entry);
        describe(name, h.description());
    }
    doc["histograms"] = std::move(histograms);

    Json log_histograms = Json::object();
    for (const auto &[name, h] : logHistograms_) {
        Json entry = Json::object();
        entry["count"] = h.count();
        entry["mean"] = h.mean();
        entry["min"] = h.min();
        entry["max"] = h.max();
        entry["sub_bucket_bits"] = StatLogHistogram::kSubBucketBits;
        Json quantiles = Json::object();
        quantiles["p50"] = h.quantile(0.50);
        quantiles["p90"] = h.quantile(0.90);
        quantiles["p99"] = h.quantile(0.99);
        quantiles["p999"] = h.quantile(0.999);
        entry["quantiles"] = std::move(quantiles);
        // Sparse export: one [lower, upper, count] triple per occupied
        // bucket, so wide-range histograms stay small on disk.
        Json buckets = Json::array();
        for (std::size_t i = 0; i < h.buckets().size(); ++i) {
            if (h.buckets()[i] == 0)
                continue;
            Json triple = Json::array();
            triple.push(h.bucketLowerBound(i));
            triple.push(h.bucketUpperBound(i));
            triple.push(h.buckets()[i]);
            buckets.push(std::move(triple));
        }
        entry["buckets"] = std::move(buckets);
        log_histograms[name] = std::move(entry);
        describe(name, h.description());
    }
    doc["log_histograms"] = std::move(log_histograms);

    doc["descriptions"] = std::move(descriptions);
    return doc;
}

} // namespace ccache
