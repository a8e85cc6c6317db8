/**
 * The benchmark's own tests: the percentile rule, seeded request
 * streams, the span self-time arithmetic, and the rule that makes a
 * run invalid.  The end-to-end smoke
 * run of every workload lives in run.py --self-test.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "inputs.h"
#include "measure.h"
#include "report.h"

using namespace perfbench;

TEST(PercentileRule, NearestRankIsExact)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(double(i));
    EXPECT_EQ(percentile(v, 500), 500.0);
    EXPECT_EQ(percentile(v, 990), 990.0);
    EXPECT_EQ(percentile(v, 999), 999.0);
    EXPECT_EQ(percentile({7.0}, 990), 7.0);
    EXPECT_EQ(percentile({}, 500), 0.0);
}

TEST(PercentileRule, TailNeedsTenSamplesBeyond)
{
    // p99 of 1000 is rank 990: exactly ten samples beyond it.
    EXPECT_EQ(samplesBeyond(1000, 990), 10u);
    EXPECT_EQ(highestSupported(1000), 990u);
    EXPECT_EQ(highestSupported(999), 900u);
    EXPECT_EQ(highestSupported(10000), 999u);
    EXPECT_EQ(highestSupported(9999), 990u);
    EXPECT_EQ(highestSupported(100), 900u);
    EXPECT_EQ(highestSupported(99), 500u);
    EXPECT_EQ(highestSupported(20), 500u);
    EXPECT_EQ(highestSupported(19), 0u);
    EXPECT_EQ(permilleName(999), "p99.9");
    EXPECT_EQ(permilleName(0), "none");
}

TEST(SpanArithmetic, SelfTimeSubtractsTheUnionOfChildren)
{
    // No children: the whole span.
    EXPECT_EQ(selfTime(0, 100, {}), 100);
    // Disjoint children.
    EXPECT_EQ(selfTime(0, 100, {{10, 20}, {50, 70}}), 70);
    // Overlapping children count once.
    EXPECT_EQ(selfTime(0, 100, {{10, 40}, {30, 60}}), 50);
    // A child nested in another adds nothing.
    EXPECT_EQ(selfTime(0, 100, {{10, 90}, {20, 30}}), 20);
    // Children are clipped to the parent.
    EXPECT_EQ(selfTime(10, 20, {{0, 15}, {18, 40}}), 3);
    // A child outside the parent covers none of it.
    EXPECT_EQ(selfTime(10, 20, {{30, 40}}), 10);
    // Empty or inverted parents have no self time.
    EXPECT_EQ(selfTime(5, 5, {{0, 10}}), 0);
}

TEST(SpanArithmetic, LogFindsChildrenByParentId)
{
    SpanLog log;
    log.add(spanId(1, 0), 0, 1, "request", 0, 1000);
    log.add(spanId(1, 1), spanId(1, 0), 1, "late", 0, 100);
    log.add(spanId(1, 2), spanId(1, 0), 1, "send", 100, 150);
    log.add(spanId(2, 0), 0, 2, "request", 0, 400);
    const std::vector<double> self = log.selfTimes("request");
    ASSERT_EQ(self.size(), 2u);
    EXPECT_EQ(self[0], 850.0);
    EXPECT_EQ(self[1], 400.0);
    EXPECT_EQ(log.durations("send"), std::vector<double>{50.0});
}

namespace {

/** The stream's bytes exactly as sent: due offsets and frames. */
std::vector<uint8_t>
streamBytes(const ServeInputs &inputs, const Stream &stream)
{
    std::vector<uint8_t> out;
    for (size_t i = 0; i < stream.dueNs.size(); ++i) {
        const uint64_t due = uint64_t(stream.dueNs[i]);
        for (int byte = 0; byte < 8; ++byte)
            out.push_back(uint8_t(due >> (8 * byte)));
        const std::vector<uint8_t> frame =
            encodeFrame(inputs.pool[stream.item[i]], uint32_t(i + 1));
        out.insert(out.end(), frame.begin(), frame.end());
    }
    return out;
}

std::vector<uint8_t>
streamOf(const char *workload, uint64_t seed)
{
    const ServeSpec &spec = *serveSpec(workload);
    const ServeInputs in = makeServeInputs(spec, seed);
    ItemBag bag(seed, in.pool.size());
    return streamBytes(in, poissonStream(seed, spec.rateLo, 0.5, bag));
}

} // namespace

TEST(Streams, SameSeedSameBytes)
{
    for (const char *workload : {"serve_short", "serve_reads"}) {
        const std::vector<uint8_t> a = streamOf(workload, 7);
        EXPECT_GT(a.size(), 1000u) << workload;
        EXPECT_EQ(a, streamOf(workload, 7)) << workload;
        EXPECT_NE(a, streamOf(workload, 8)) << workload;
    }
}

TEST(Streams, ScreenDatabaseFollowsTheSeed)
{
    const ScreenInputs a = makeScreenInputs(3), b = makeScreenInputs(3),
                       c = makeScreenInputs(4);
    EXPECT_EQ(a.query.str(), b.query.str());
    ASSERT_EQ(a.database.size(), b.database.size());
    for (size_t i = 0; i < a.database.size(); ++i)
        EXPECT_EQ(a.database[i].str(), b.database[i].str());
    EXPECT_NE(a.query.str(), c.query.str());
}

TEST(Streams, PoissonRateIsRoughlyTheOffered)
{
    ItemBag bag(11, 10);
    const Stream s = poissonStream(11, 2000.0, 2.0, bag);
    EXPECT_NEAR(double(s.dueNs.size()), 4000.0, 300.0);
    for (size_t i = 1; i < s.dueNs.size(); ++i)
        EXPECT_LE(s.dueNs[i - 1], s.dueNs[i]);
}

TEST(Streams, BagSendsEveryEntryEvenly)
{
    ItemBag bag(5, 7), same(5, 7);
    std::vector<size_t> sent(7, 0);
    for (int i = 0; i < 7 * 3 + 2; ++i) {
        const uint32_t item = bag.next();
        ASSERT_LT(item, 7u);
        EXPECT_EQ(item, same.next());
        ++sent[item];
    }
    for (size_t count : sent) {
        EXPECT_GE(count, 3u);
        EXPECT_LE(count, 4u);
    }
}

TEST(Validity, AGoodRunHasNoProblems)
{
    Report r;
    r.attempted = 10;
    r.set("cpu_us_per_item", 250.0, "us");
    r.set("serve.rejected", 0.0, "count");
    EXPECT_TRUE(r.problems(false).empty());
    Report gated;
    gated.attempted = 10;
    gated.set("cpu_us_per_item", 250.0, "us");
    EXPECT_TRUE(gated.problems(true).empty());
}

TEST(Validity, NothingMeasuredNeverReadsAsAGain)
{
    // Every request refused: zero answered items behind a CPU/item.
    Report r;
    r.attempted = 10;
    r.failed = 10;
    r.set("cpu_us_per_item", 0.02 / 0.0, "us");
    r.set("cpu_us_per_item_lo", 0.0 / 0.0, "us");
    r.set("peak_rss_mb", 0.0, "MiB");
    EXPECT_EQ(r.problems(true).size(), 4u);
    // Per-layer counts may be 0, but not NaN.
    Report traced;
    traced.attempted = 1;
    traced.set("serve.build_locks", 0.0, "count");
    EXPECT_TRUE(traced.problems(false).empty());
    traced.set("core.grid_over_dp", std::nan(""), "ratio");
    EXPECT_EQ(traced.problems(false).size(), 1u);
    traced.reject("p50 over the limit");
    EXPECT_EQ(traced.problems(false).size(), 2u);
    EXPECT_FALSE(Report().problems(false).empty()); // nothing attempted
}
