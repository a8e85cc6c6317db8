#include "measure.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>
#include <unordered_map>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

namespace {

/** 1-based nearest rank: ceil(permille * n / 1000), at least 1. */
size_t
nearestRank(size_t n, unsigned permille)
{
    const size_t rank = (size_t(permille) * n + 999) / 1000;
    return std::max<size_t>(rank, 1);
}

} // namespace

double
percentile(const std::vector<double> &sorted, unsigned permille)
{
    if (sorted.empty())
        return 0.0;
    const size_t rank = std::min(nearestRank(sorted.size(), permille),
                                 sorted.size());
    return sorted[rank - 1];
}

size_t
samplesBeyond(size_t n, unsigned permille)
{
    if (n == 0)
        return 0;
    return n - std::min(nearestRank(n, permille), n);
}

unsigned
highestSupported(size_t n)
{
    for (unsigned permille : {999u, 990u, 900u, 500u})
        if (samplesBeyond(n, permille) >= kMinBeyond)
            return permille;
    return 0;
}

std::string
permilleName(unsigned permille)
{
    switch (permille) {
    case 999:
        return "p99.9";
    case 990:
        return "p99";
    case 900:
        return "p90";
    case 500:
        return "p50";
    default:
        return "none";
    }
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentile(values, 500);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           double(values.size());
}

int64_t
selfTime(int64_t start, int64_t end,
         std::vector<std::pair<int64_t, int64_t>> children)
{
    if (end <= start)
        return 0;
    for (auto &c : children) {
        c.first = std::clamp(c.first, start, end);
        c.second = std::clamp(c.second, start, end);
    }
    std::sort(children.begin(), children.end());
    int64_t covered = 0;
    int64_t reach = start; // end of the union swept so far
    for (const auto &[from, to] : children) {
        const int64_t begin = std::max(from, reach);
        if (to > begin) {
            covered += to - begin;
            reach = to;
        }
    }
    return (end - start) - covered;
}

void
SpanLog::absorb(SpanLog &other)
{
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
    other.spans.clear();
}

std::vector<double>
SpanLog::durations(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(double(s.durationNs()));
    return out;
}

std::vector<double>
SpanLog::selfTimes(const char *name) const
{
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    std::vector<double> out;
    for (const Span &s : spans) {
        if (std::strcmp(s.name, name) != 0)
            continue;
        auto it = children.find(s.id);
        out.push_back(double(selfTime(
            s.startNs, s.endNs,
            it == children.end()
                ? std::vector<std::pair<int64_t, int64_t>>{}
                : it->second)));
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "trace\tid\tparent\tname\tstart_ns\tend_ns\n";
    for (const Span &s : spans)
        out << s.trace << '\t' << s.id << '\t' << s.parent << '\t'
            << s.name << '\t' << s.startNs << '\t' << s.endNs << '\n';
    return bool(out);
}

} // namespace perfbench
