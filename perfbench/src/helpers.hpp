/**
 * @file
 * Pure helpers of the wall-clock benchmark: percentiles, latency
 * from a request's due time across the bench/server clock offset,
 * and recovery of the micro-batches and update applications a
 * real-time server run formed from its result records. Covered by
 * perfbench/tests/test_helpers.cpp.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace perfbench {

/**
 * Quantile q in [0, 1] of v by linear interpolation between closest
 * ranks (the numpy / statistics.quantiles "inclusive" rule). 0 for an
 * empty sample.
 */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
        static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/**
 * The highest quantile of an n-sample timing that still has at least
 * ten samples beyond it, capped at 0.99 and floored at the median:
 * 1000 samples support p99, 100 support p90, 25 only p60.
 */
inline double
tailQuantile(size_t n)
{
    if (n < 20)
        return 0.5;
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

/**
 * Tail of a long timing series, robust to one stall: split v (in
 * arrival order) into consecutive windows of `window` samples (the
 * last absorbs the remainder), take each window's tailQuantile
 * percentile and return the median over windows.
 */
inline double
windowedTail(const std::vector<double> &v, size_t window)
{
    const size_t n = std::max<size_t>(1, v.size() / std::max<size_t>(1, window));
    std::vector<double> tails;
    for (size_t w = 0; w < n; ++w) {
        const size_t lo = w * v.size() / n;
        const size_t hi = (w + 1) * v.size() / n;
        const std::vector<double> part(v.begin() + lo, v.begin() + hi);
        tails.push_back(percentile(part, tailQuantile(part.size())));
    }
    return percentile(tails, 0.5);
}

/**
 * Offset (bench clock minus server clock, microseconds) of a
 * real-time server session. The generator stamps submit_us on the
 * bench clock just before each submit; the server stamps arrival_us
 * on its own clock just after, so every pair bounds the offset from
 * below and the tightest pair estimates it.
 */
inline double
clockOffsetUs(const std::vector<double> &submit_us,
              const std::vector<uint64_t> &arrival_us)
{
    if (submit_us.empty() || submit_us.size() != arrival_us.size())
        throw std::invalid_argument("clockOffsetUs: need matched pairs");
    double best = -INFINITY;
    for (size_t i = 0; i < submit_us.size(); ++i)
        best = std::max(best, submit_us[i] -
                                  static_cast<double>(arrival_us[i]));
    return best;
}

/** Latency of a request completed at server time done_us, measured
 *  from its bench-clock due time (so generator lateness counts). */
inline double
latencyFromDueUs(uint64_t done_us, double offset_us, double due_us)
{
    return static_cast<double>(done_us) + offset_us - due_us;
}

/** One inference micro-batch recovered from a run's results. */
struct InferenceBatch
{
    /** Index of its first result in ReplayReport::inference. */
    size_t first = 0;
    size_t size = 0;
    uint64_t startUs = 0;
    uint64_t doneUs = 0;
};

/**
 * Split results (ReplayReport::inference, dispatch order) back into
 * the micro-batches that produced them: each batch is the next
 * batchSize results, which must share one startUs/doneUs.
 */
inline std::vector<InferenceBatch>
recoverInferenceBatches(const std::vector<igcn::serve::InferenceResult> &res)
{
    std::vector<InferenceBatch> out;
    size_t i = 0;
    while (i < res.size()) {
        const auto &head = res[i];
        if (head.batchSize == 0 || i + head.batchSize > res.size())
            throw std::runtime_error(
                "recoverInferenceBatches: batch size out of range at "
                "result " + std::to_string(i));
        for (size_t j = i; j < i + head.batchSize; ++j)
            if (res[j].startUs != head.startUs ||
                res[j].doneUs != head.doneUs ||
                res[j].batchSize != head.batchSize)
                throw std::runtime_error(
                    "recoverInferenceBatches: result " +
                    std::to_string(j) + " disagrees with its batch");
        out.push_back({i, head.batchSize, head.startUs, head.doneUs});
        i += head.batchSize;
    }
    return out;
}

/**
 * For each update request (ids in submission order), the index of
 * the update application (ReplayReport::updates, dispatch order) that
 * folded it in. Applications consume consecutive update requests;
 * each must start at the request its UpdateResult::id names.
 */
inline std::vector<size_t>
mapUpdatesToApplications(const std::vector<uint64_t> &update_ids,
                         const std::vector<igcn::serve::UpdateResult> &apps)
{
    std::vector<size_t> out;
    out.reserve(update_ids.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        const size_t first = out.size();
        if (apps[a].coalesced == 0 ||
            first + apps[a].coalesced > update_ids.size() ||
            update_ids[first] != apps[a].id)
            throw std::runtime_error(
                "mapUpdatesToApplications: application " +
                std::to_string(a) + " does not start at the next "
                "pending update request");
        out.insert(out.end(), apps[a].coalesced, a);
    }
    if (out.size() != update_ids.size())
        throw std::runtime_error(
            "mapUpdatesToApplications: " +
            std::to_string(update_ids.size() - out.size()) +
            " update requests were never applied");
    return out;
}

/** One dispatch of a run: an inference batch or an update
 *  application, identified by its index in the recovered list. */
struct Dispatch
{
    bool update = false;
    size_t index = 0;
    /** Id of its first request; FCFS dispatch order is id order. */
    uint64_t firstId = 0;
};

/** Merge batches and applications into dispatch (first-id) order. */
inline std::vector<Dispatch>
dispatchOrder(const std::vector<igcn::serve::InferenceResult> &res,
              const std::vector<InferenceBatch> &batches,
              const std::vector<igcn::serve::UpdateResult> &apps)
{
    std::vector<Dispatch> out;
    out.reserve(batches.size() + apps.size());
    for (size_t b = 0; b < batches.size(); ++b)
        out.push_back({false, b, res[batches[b].first].id});
    for (size_t a = 0; a < apps.size(); ++a)
        out.push_back({true, a, apps[a].id});
    std::sort(out.begin(), out.end(),
              [](const Dispatch &x, const Dispatch &y) {
                  return x.firstId < y.firstId;
              });
    return out;
}

} // namespace perfbench
