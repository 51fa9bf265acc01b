/**
 * @file
 * island-batch: the paper's offline pipeline with no serving layer.
 * Each pass runs islandize and a 2-layer gcnForwardViaIslands over a
 * 200,000-node hub-island graph; passes run back to back from one
 * caller (a closed loop of one client), so a "request" here is one
 * whole-graph inference, islandization included.
 *
 * Outside the timed window every pass output must be byte-identical
 * to the first, and the first must match referenceForward within the
 * consumer tests' tolerance. The traced run (--trace 1) adds spans
 * around islandize, gcnForwardViaIslands, countPruning and
 * simulateIgcn.
 */

#include <cmath>
#include <cstring>

#include "accel/igcn_model.hpp"
#include "core/consumer.hpp"
#include "core/redundancy.hpp"
#include "gcn/models.hpp"
#include "gcn/reference.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "obs/export.hpp"
#include "obs/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace igcn;

constexpr NodeId kNodes = 200000;
constexpr int kFeatures = 32;
constexpr int kHidden = 16;
constexpr int kClasses = 8;
constexpr int kSetupRepeats = 3;
/** Timed passes per --seconds (one pass takes ~0.38 s on 4 cores). */
constexpr double kPassesPerSecond = 2.0;
constexpr int kTracedPasses = 3;
/** The island-consumer tests' absolute tolerance vs referenceForward. */
constexpr double kTolerance = 2e-4;

struct Model
{
    CsrGraph graph;
    Features features;
    std::vector<DenseMatrix> weights;
    ModelConfig config;
};

Model
makeModel(uint64_t seed)
{
    HubIslandParams params;
    params.numNodes = kNodes;
    params.seed = seed;
    Model m;
    m.graph = hubAndIslandGraph(params).graph;
    Rng rng(seed);
    m.features = makeFeatures(m.graph.numNodes(), kFeatures, 1.0, rng);
    m.config.name = "island-batch-gcn";
    m.config.layers = {{kFeatures, kHidden}, {kHidden, kClasses}};
    m.weights = makeWeights(m.config, rng);
    return m;
}

bool
sameBytes(const DenseMatrix &a, const DenseMatrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
        std::memcmp(a.data().data(), b.data().data(),
                    a.rows() * a.cols() * sizeof(float)) == 0;
}

} // namespace

RunResult
runIslandWorkload(const RunArgs &args)
{
    RunResult out;
    Model m;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep)
        setup_s.push_back(
            timeSeconds([&] { m = makeModel(args.seed); }));
    const LocatorConfig locator;
    const RedundancyConfig redundancy;

    // Untimed first pass: warms the pool and the allocator, and is
    // the output every timed pass must reproduce byte for byte.
    const IslandizationResult first_isl = islandize(m.graph, locator);
    const DenseMatrix first = gcnForwardViaIslands(
        m.graph, first_isl, m.features, m.weights, redundancy);

    const int passes = std::max(
        3, static_cast<int>(std::lround(args.seconds * kPassesPerSecond)));
    std::vector<double> pass_ms;
    uint64_t failed = 0;
    const uint64_t loop0 = runtimeNowUs();
    for (int p = 0; p < passes; ++p) {
        IslandizationResult isl;
        DenseMatrix y;
        pass_ms.push_back(1e3 * timeSeconds([&] {
            isl = islandize(m.graph, locator);
            y = gcnForwardViaIslands(m.graph, isl, m.features, m.weights,
                                     redundancy);
        }));
        if (!sameBytes(y, first) ||
            isl.islands.size() != first_isl.islands.size() ||
            isl.numHubs() != first_isl.numHubs())
            failed++;
    }
    const double loop_s = static_cast<double>(runtimeNowUs() - loop0) / 1e6;
    const double peak_rss = peakRssMb();

    const DenseMatrix golden =
        referenceForward(m.graph, m.features, m.weights);
    const double diff = maxAbsDiff(first, golden);
    if (!(diff <= kTolerance))
        failed = static_cast<uint64_t>(passes);
    out.attempted = static_cast<uint64_t>(passes);
    out.failed = failed;
    if (failed > 0)
        out.fail(std::to_string(failed) + " passes differ from the first "
                 "pass or from referenceForward (max |diff| " +
                 std::to_string(diff) + ")");

    // One client in a closed loop: throughput is passes over the whole
    // timed loop, so slow passes the median hides still count.
    const double pass_p50_ms = median(pass_ms);
    const double tail_q = tailQuantile(pass_ms.size());
    out.endToEnd = {
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"p50_ms", pass_p50_ms, "ms"},
        {"tail_ms", percentile(pass_ms, tail_q), "ms"},
        {"capacity_rps", passes / loop_s, "req/s"},
    };
    auto &info = out.info;
    info["nodes"] = std::to_string(m.graph.numNodes());
    info["edges"] = std::to_string(m.graph.numEdges());
    info["passes"] = std::to_string(passes);
    info["tail_quantile"] = std::to_string(tail_q);
    info["pipeline_medges_per_s"] = std::to_string(
        static_cast<double>(m.graph.numEdges()) * passes / loop_s / 1e6);
    info["max_abs_diff_vs_reference"] = std::to_string(diff);

    if (!args.trace)
        return out;

    obs::TraceRecorder rec(true);
    obs::runtimeRegistry().resetValues();
    obs::enableRuntimeProfiling(&rec);
    const uint64_t wall0 = runtimeNowUs();
    const auto span = [&](const char *name, auto &&fn) {
        const uint64_t t0 = runtimeNowUs();
        fn();
        const uint64_t dur = runtimeNowUs() - t0;
        rec.complete(obs::kLaneServer, name, "bench", t0, dur);
        return static_cast<double>(dur) / 1e3;
    };
    std::vector<double> isl_ms, fwd_ms;
    IslandizationResult isl;
    for (int p = 0; p < kTracedPasses; ++p) {
        isl_ms.push_back(span("core.locator.islandize", [&] {
            isl = islandize(m.graph, locator);
        }));
        DenseMatrix y;
        fwd_ms.push_back(span("core.consumer.gcnForwardViaIslands", [&] {
            y = gcnForwardViaIslands(m.graph, isl, m.features, m.weights,
                                     redundancy);
        }));
        if (!sameBytes(y, first))
            out.fail("traced pass output differs from the timed passes");
    }
    PruningReport pruning;
    span("core.redundancy.countPruning", [&] {
        pruning = countPruning(m.graph, isl, redundancy);
    });
    DatasetGraph data;
    data.info = {"island-batch", "IB", m.graph.numNodes(),
                 m.graph.numEdges(), kFeatures, kClasses, 1.0, 1.0};
    data.graph = m.graph;
    data.featureNnz = m.features.nnz();
    const HwConfig hw;
    igcn::RunResult sim;
    const double sim_ms = span("accel.simulateIgcn", [&] {
        sim = simulateIgcn(data, m.config, hw, &isl);
    });
    const double wall_us = static_cast<double>(runtimeNowUs() - wall0);
    const KernelTotals k = readKernelTotals();
    obs::disableRuntimeProfiling();
    if (!args.traceOut.empty() &&
        !obs::writePerfettoTrace(rec, args.traceOut))
        out.fail("cannot write " + args.traceOut);

    const auto secs = [](uint64_t us) {
        return static_cast<double>(us) / 1e6;
    };
    const auto ratio = [](double a, double b) {
        return b > 0 ? a / b : 0.0;
    };
    double traced_pass_ms = 0.0;
    for (int p = 0; p < kTracedPasses; ++p)
        traced_pass_ms += isl_ms[p] + fwd_ms[p];
    out.perLayer = {
        {"core.locator.islandize_ms", median(isl_ms), "ms"},
        {"core.locator.hub_detect_busy_s",
         secs(k.get("hub_detect").busyUs), "s"},
        {"core.locator.tpbfs_busy_s", secs(k.get("tpbfs_explore").busyUs),
         "s"},
        {"core.locator.tpbfs_par",
         ratio(static_cast<double>(k.get("tpbfs_explore").busyUs),
               static_cast<double>(k.get("tpbfs_explore").wallUs)),
         "ratio"},
        {"core.locator.islands", static_cast<double>(isl.islands.size()),
         "count"},
        {"core.locator.hubs", static_cast<double>(isl.numHubs()), "count"},
        {"core.consumer.forward_ms", median(fwd_ms), "ms"},
        {"core.consumer.island_aggregate_busy_s",
         secs(k.get("island_aggregate").busyUs), "s"},
        {"core.consumer.pruned_agg_frac", pruning.aggPruningRate(),
         "ratio"},
        {"spmm.gemm_wall_s", secs(k.get("gemm").wallUs), "s"},
        {"spmm.gemm_par",
         ratio(static_cast<double>(k.get("gemm").busyUs),
               static_cast<double>(k.get("gemm").wallUs)),
         "ratio"},
        {"spmm.pull_row_wise_wall_s",
         secs(k.get("spmm_pull_row_wise").wallUs), "s"},
        {"gcn.relu_wall_s", secs(k.get("relu").wallUs), "s"},
        {"gcn.scale_rows_wall_s", secs(k.get("scale_rows").wallUs), "s"},
        {"runtime.pool.busy_frac",
         ratio(static_cast<double>(k.workerBusyUs), wall_us * args.threads),
         "ratio"},
        {"runtime.pool.region_us_mean",
         ratio(static_cast<double>(k.wallUs()),
               static_cast<double>(k.regions())),
         "us"},
        {"accel.simulate_ms", sim_ms, "ms"},
        {"accel.cycles", std::round(sim.latencyUs * hw.clockMHz), "count"},
        {"bench.trace_overhead_frac",
         ratio(traced_pass_ms / kTracedPasses, mean(pass_ms)) - 1.0,
         "ratio"},
    };
    info["pruning_base_agg_ops"] = std::to_string(pruning.baselineAggOps());
    info["trace_events"] = std::to_string(rec.size());
    return out;
}

} // namespace perfbench
