// Self-tests of the benchmark's pure helpers (perfbench/src/helpers.hpp).

#include <gtest/gtest.h>

#include "helpers.hpp"

using namespace perfbench;
using igcn::serve::InferenceResult;
using igcn::serve::UpdateResult;

TEST(Percentile, InterpolatesBetweenRanks)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0);
    std::vector<double> v;
    for (int i = 0; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.5), 100.0);
}

TEST(Percentile, TailKeepsTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(tailQuantile(10000), 0.99);
    EXPECT_DOUBLE_EQ(tailQuantile(1000), 0.99);
    EXPECT_DOUBLE_EQ(tailQuantile(100), 0.9);
    EXPECT_DOUBLE_EQ(tailQuantile(25), 0.6);
    EXPECT_DOUBLE_EQ(tailQuantile(19), 0.5);
    for (size_t n : {20u, 37u, 200u, 999u, 5000u}) {
        std::vector<double> v;
        for (size_t i = 0; i < n; ++i)
            v.push_back(static_cast<double>(i));
        const double p = percentile(v, tailQuantile(n));
        size_t beyond = 0;
        for (double x : v)
            beyond += x > p ? 1 : 0;
        EXPECT_GE(beyond, 10u) << "n=" << n;
    }
}

TEST(Percentile, WindowedTailIgnoresOneStalledWindow)
{
    // Five windows of 1000 samples 0..999; one window also holds a
    // 60-sample stall at 1e6. Each clean window's p99 is 989.01.
    std::vector<double> v;
    for (int w = 0; w < 5; ++w)
        for (int i = 0; i < 1000; ++i)
            v.push_back(w == 2 && i < 60 ? 1e6 : i);
    EXPECT_NEAR(windowedTail(v, 1000), 989.01, 1e-9);
    EXPECT_GT(percentile(v, 0.99), 1e5); // one global p99 is the stall
    EXPECT_DOUBLE_EQ(windowedTail({}, 1000), 0.0);
    EXPECT_DOUBLE_EQ(windowedTail({1.0, 2.0, 3.0}, 1000), 2.0);
}

TEST(Latency, MeasuredFromDueAcrossClockOffset)
{
    // The bench clock reads 50 us ahead of the server clock. Submits
    // reach the server's arrival stamp 3, 0.5 and 7 us after the
    // generator stamps them, so the tightest pair gives the offset.
    const std::vector<double> submit = {100.0, 200.5, 300.0};
    const std::vector<uint64_t> arrival = {53, 151, 257};
    const double offset = clockOffsetUs(submit, arrival);
    EXPECT_DOUBLE_EQ(offset, 49.5);
    // Due at 90 (the generator then ran 10 us late); done at server
    // time 1000, i.e. bench time 1049.5.
    EXPECT_DOUBLE_EQ(latencyFromDueUs(1000, offset, 90.0), 959.5);
    EXPECT_THROW(clockOffsetUs({}, {}), std::invalid_argument);
    EXPECT_THROW(clockOffsetUs({1.0}, {1, 2}), std::invalid_argument);
}

namespace {

InferenceResult
result(uint64_t id, uint64_t start, uint64_t done, uint32_t size)
{
    InferenceResult r;
    r.id = id;
    r.startUs = start;
    r.doneUs = done;
    r.batchSize = size;
    return r;
}

UpdateResult
app(uint64_t id, uint32_t coalesced)
{
    UpdateResult u;
    u.id = id;
    u.coalesced = coalesced;
    return u;
}

} // namespace

TEST(BatchRecovery, SplitsResultsByBatchSize)
{
    // Two back-to-back batches that share timestamps are still split
    // by batchSize.
    const std::vector<InferenceResult> res = {
        result(0, 10, 20, 2), result(1, 10, 20, 2),
        result(2, 10, 20, 1), result(4, 30, 45, 3),
        result(5, 30, 45, 3), result(6, 30, 45, 3)};
    const auto b = recoverInferenceBatches(res);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b[0].first, 0u);
    EXPECT_EQ(b[0].size, 2u);
    EXPECT_EQ(b[1].first, 2u);
    EXPECT_EQ(b[1].size, 1u);
    EXPECT_EQ(b[2].first, 3u);
    EXPECT_EQ(b[2].size, 3u);
    EXPECT_EQ(b[2].doneUs, 45u);

    EXPECT_THROW(recoverInferenceBatches({result(0, 1, 2, 3)}),
                 std::runtime_error);
    EXPECT_THROW(recoverInferenceBatches(
                     {result(0, 1, 2, 2), result(1, 1, 3, 2)}),
                 std::runtime_error);
}

TEST(BatchRecovery, MapsUpdatesToTheirApplication)
{
    // Update requests 3, 7, 8, 9, 12: the first application folds 3,
    // the second 7..9 (coalesced), the third 12.
    const std::vector<uint64_t> ids = {3, 7, 8, 9, 12};
    const auto m =
        mapUpdatesToApplications(ids, {app(3, 1), app(7, 3), app(12, 1)});
    EXPECT_EQ(m, (std::vector<size_t>{0, 1, 1, 1, 2}));

    EXPECT_THROW(mapUpdatesToApplications(ids, {app(3, 1), app(8, 4)}),
                 std::runtime_error);
    EXPECT_THROW(mapUpdatesToApplications(ids, {app(3, 2)}),
                 std::runtime_error);
    EXPECT_THROW(mapUpdatesToApplications(ids, {app(3, 6)}),
                 std::runtime_error);

    // Dispatch order interleaves batches and applications by first id.
    const std::vector<InferenceResult> res = {
        result(0, 1, 2, 3), result(1, 1, 2, 3), result(2, 1, 2, 3),
        result(4, 5, 6, 2), result(5, 5, 6, 2)};
    const auto batches = recoverInferenceBatches(res);
    const auto order =
        dispatchOrder(res, batches, {app(3, 1), app(6, 2)});
    ASSERT_EQ(order.size(), 4u);
    EXPECT_FALSE(order[0].update);
    EXPECT_TRUE(order[1].update);
    EXPECT_EQ(order[1].firstId, 3u);
    EXPECT_FALSE(order[2].update);
    EXPECT_EQ(order[2].index, 1u);
    EXPECT_TRUE(order[3].update);
}
