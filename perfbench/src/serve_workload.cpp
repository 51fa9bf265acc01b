/**
 * @file
 * serve-read and serve-mixed: a single open-loop generator thread
 * drives serve::Server in real-time mode (start / submit / stop) from
 * a seeded makeSyntheticTrace schedule. Every latency is timed from
 * the request's due time on the bench clock; nothing comes from the
 * server's virtual clock or ServiceModel.
 *
 * One start/stop session runs its phases one after another, each
 * drained before the next begins:
 *   warm-up     a burst of kWarmupRequests, counted in setup_s;
 *   fixed rate  Poisson arrivals at the workload's rate for --seconds
 *               (latency, queue wait, batch and apply times), cut
 *               into kBursts segments;
 *   burst       after each fixed-rate segment, a burst with every
 *               request due at once (capacity_rps).
 * Interleaving the bursts with the segments spreads both samples over
 * the whole run, so a slow spell of the machine moves one segment and
 * one burst rather than one whole metric.
 *
 * Outside the timed window the oracle replays the same requests
 * through a fresh Server::runTrace and requires every served logits
 * row to be byte-identical per request id (DESIGN.md sections 3/6).
 * The traced run (--trace 1) then re-executes the exact batches and
 * update applications the timed run formed through a bench-owned
 * GraphStateHub, InferenceEngine and UpdateApplier, with spans.
 */

#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "gcn/models.hpp"
#include "gcn/reference.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "obs/export.hpp"
#include "obs/runtime.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace igcn;
using namespace igcn::serve;
using SteadyClock = std::chrono::steady_clock;

// The igcn_cli serve defaults (4,000-node hub-island graph, 32
// features, 16 hidden, 8 classes, FCFS batch cap 32, model seed 42).
// The model is the same in every run, so the spread between runs of
// different --seed values is the server's, not the graph's; --seed
// drives the request streams.
constexpr NodeId kNodes = 4000;
constexpr uint64_t kModelSeed = 42;
constexpr int kFeatures = 32;
constexpr int kHidden = 16;
constexpr int kClasses = 8;
constexpr uint32_t kBatchCap = 32;
constexpr double kZipfAlpha = 1.1;
/** Share of update requests that delete edges. */
constexpr double kRemoveFrac = 0.5;
constexpr uint64_t kWarmupRequests = 256;
/** Setup is repeated and its median reported (setup_s). */
constexpr int kSetupRepeats = 3;
/** Generator lateness p99 above this flags the run (info line
 *  "generator_late"). */
constexpr double kLateBoundUs = 2000.0;
/** Head start of a phase's schedule over the moment it is built. */
constexpr double kLeadUs = 2000.0;

enum class PhaseKind : uint8_t { Warmup, Fixed, Burst };

/** Saturation bursts (and fixed-rate segments) per run;
 *  capacity_rps is the bursts' median. */
constexpr size_t kBursts = 8;
/**
 * tail_ms is the median over consecutive windows of this many
 * fixed-rate latencies of each window's highest percentile with 10
 * samples beyond it (p90). Many short windows make the median robust
 * to a stall; p99 over 1,000-request windows rose 64% between runs
 * when the host slowed by a quarter, p50 26%.
 */
constexpr size_t kTailWindow = 100;

struct ServeSpec
{
    double ratePerS;
    /** Share of requests that are edge updates. */
    double updateFrac;
    uint64_t burstRequests;
};

ServeSpec
specFor(bool mixed)
{
    return mixed ? ServeSpec{250.0, 0.2, 1200}
                 : ServeSpec{1000.0, 0.0, 2000};
}

struct Model
{
    CsrGraph graph;
    Features features;
    std::vector<DenseMatrix> weights;
};

Model
makeModel()
{
    HubIslandParams params;
    params.numNodes = kNodes;
    params.seed = kModelSeed;
    Model m;
    m.graph = hubAndIslandGraph(params).graph;
    Rng rng(kModelSeed);
    m.features = makeFeatures(m.graph.numNodes(), kFeatures, 1.0, rng);
    ModelConfig mc;
    mc.name = "serve-gcn";
    mc.layers = {{kFeatures, kHidden}, {kHidden, kClasses}};
    m.weights = makeWeights(mc, rng);
    return m;
}

ServerConfig
serverConfig()
{
    ServerConfig sc;
    sc.scheduler.maxBatch = kBatchCap;
    return sc;
}

std::unique_ptr<Server>
makeServer(const Model &model)
{
    Model copy = model;
    return std::make_unique<Server>(std::move(copy.graph),
                                    std::move(copy.features),
                                    std::move(copy.weights),
                                    serverConfig());
}

/** A phase's requests and their due offsets from the phase start;
 *  rate_per_s == 0 makes a burst with every request due at once. */
struct Phase
{
    std::vector<Request> reqs;
    std::vector<double> dueOffsetUs;
};

/** Distinct trace seed per (run seed, trace). */
uint64_t
traceSeed(uint64_t seed, size_t trace)
{
    return seed * 16 + trace + 1;
}

/** Requests [lo, hi) of p, due offsets re-based to the first. */
Phase
slice(const Phase &p, size_t lo, size_t hi)
{
    Phase out;
    out.reqs.assign(p.reqs.begin() + lo, p.reqs.begin() + hi);
    for (size_t i = lo; i < hi; ++i)
        out.dueOffsetUs.push_back(p.dueOffsetUs[i] - p.dueOffsetUs[lo]);
    return out;
}

Phase
makePhase(const CsrGraph &g, uint64_t n, double update_frac,
          double rate_per_s, uint64_t seed)
{
    TraceConfig tc;
    tc.numUpdates = static_cast<uint64_t>(
        std::llround(static_cast<double>(n) * update_frac));
    tc.numInference = n - tc.numUpdates;
    tc.meanGapUs = rate_per_s > 0 ? 1e6 / rate_per_s : 1.0;
    tc.removeFraction = kRemoveFrac;
    tc.zipfAlpha = kZipfAlpha;
    tc.seed = seed;
    Phase p;
    p.reqs = makeSyntheticTrace(g, tc);
    for (const Request &r : p.reqs)
        p.dueOffsetUs.push_back(
            rate_per_s > 0 ? static_cast<double>(r.arrivalUs) : 0.0);
    return p;
}

/** The live session: every submitted request with its bench-clock
 *  due and submit times (microseconds from the session origin). */
struct Session
{
    std::unique_ptr<Server> server;
    SteadyClock::time_point origin;
    /** Submitted requests; id = the id the server assigned. */
    std::vector<Request> reqs;
    std::vector<double> dueUs;
    std::vector<double> submitUs;
    /** Index of each phase's first request, plus the end. */
    std::vector<size_t> phaseBegin;
    std::vector<PhaseKind> phaseKind;
    /** Bench-clock due time of each phase's schedule origin. */
    std::vector<double> phaseDueUs;
    uint64_t refused = 0;

    // Filled by finish().
    ReplayReport report;
    std::vector<InferenceBatch> batches;
    std::vector<uint64_t> updateIds;
    /** Per update request (submission order): its application. */
    std::vector<size_t> appOfUpdate;
    double offsetUs = 0.0;
    uint64_t wholeGraphBatches = 0;
    uint64_t interleaves = 0;

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   SteadyClock::now() - origin)
            .count();
    }

    size_t
    indexOf(uint64_t id) const
    {
        const uint64_t i = id - reqs.front().id;
        if (id < reqs.front().id || i >= reqs.size())
            throw std::runtime_error("result id " + std::to_string(id) +
                                     " was never submitted");
        return static_cast<size_t>(i);
    }

    size_t
    phaseOf(size_t index) const
    {
        size_t p = 0;
        while (p + 2 < phaseBegin.size() && index >= phaseBegin[p + 1])
            p++;
        return p;
    }

    PhaseKind
    kindOf(size_t index) const
    {
        return phaseKind[phaseOf(index)];
    }

    void
    start()
    {
        server->start();
        origin = SteadyClock::now();
        phaseBegin = {0};
    }

    /** Submit the phase open-loop from this (the only generator)
     *  thread, then wait until the server has completed everything
     *  submitted so far. */
    void
    run(Phase phase, PhaseKind kind)
    {
        const double base = nowUs() + kLeadUs;
        for (size_t i = 0; i < phase.reqs.size(); ++i) {
            Request &r = phase.reqs[i];
            const double due = base + phase.dueOffsetUs[i];
            std::this_thread::sleep_until(
                origin + std::chrono::duration_cast<SteadyClock::duration>(
                             std::chrono::duration<double, std::micro>(
                                 due)));
            submitUs.push_back(nowUs());
            const ServeResult res = r.kind == RequestKind::Inference
                ? server->submitInference(r.node)
                : server->submitUpdate(r.addedEdges, r.removedEdges);
            r.id = res.id;
            refused += res.ok() ? 0 : 1;
            dueUs.push_back(due);
            reqs.push_back(std::move(r));
        }
        phaseBegin.push_back(reqs.size());
        phaseKind.push_back(kind);
        phaseDueUs.push_back(base);
        const uint64_t want = reqs.size() - refused;
        while (server->stats().inferenceRequests() +
                   server->stats().updatesCoalesced() <
               want)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    /** Stop the server and recover batch membership from its report. */
    void
    finish()
    {
        report = server->stop();
        wholeGraphBatches = server->stats().wholeGraphBatches();
        interleaves = server->stats().interleaves();
        for (size_t i = 1; i < reqs.size(); ++i)
            if (reqs[i].id != reqs[0].id + i)
                throw std::runtime_error("session ids are not contiguous");
        for (const Request &r : reqs)
            if (r.kind == RequestKind::Update)
                updateIds.push_back(r.id);
        batches = recoverInferenceBatches(report.inference);
        appOfUpdate = mapUpdatesToApplications(updateIds, report.updates);

        std::vector<double> submit;
        std::vector<uint64_t> arrival;
        for (const InferenceResult &r : report.inference) {
            submit.push_back(submitUs[indexOf(r.id)]);
            arrival.push_back(r.arrivalUs);
        }
        for (const UpdateResult &u : report.updates) {
            submit.push_back(submitUs[indexOf(u.id)]);
            arrival.push_back(u.arrivalUs);
        }
        offsetUs = clockOffsetUs(submit, arrival);
    }
};

/** Per request: due-to-done latency and due-to-dispatch queue wait
 *  (bench microseconds; NaN when never completed). */
struct RequestTimes
{
    std::vector<double> latencyUs;
    std::vector<double> queueWaitUs;
    std::vector<double> doneUs;
};

RequestTimes
requestTimes(const Session &s)
{
    RequestTimes t;
    t.latencyUs.assign(s.reqs.size(), NAN);
    t.queueWaitUs.assign(s.reqs.size(), NAN);
    t.doneUs.assign(s.reqs.size(), NAN);
    const auto record = [&](uint64_t id, uint64_t start, uint64_t done) {
        const size_t i = s.indexOf(id);
        t.latencyUs[i] = latencyFromDueUs(done, s.offsetUs, s.dueUs[i]);
        t.queueWaitUs[i] = latencyFromDueUs(start, s.offsetUs, s.dueUs[i]);
        t.doneUs[i] = static_cast<double>(done) + s.offsetUs;
    };
    for (const InferenceResult &r : s.report.inference)
        record(r.id, r.startUs, r.doneUs);
    for (size_t k = 0; k < s.updateIds.size(); ++k) {
        const UpdateResult &app = s.report.updates[s.appOfUpdate[k]];
        record(s.updateIds[k], app.startUs, app.doneUs);
    }
    return t;
}

/** The completed (non-NaN) entries of v within phase p. */
std::vector<double>
inPhase(const Session &s, const std::vector<double> &v, size_t p)
{
    std::vector<double> out;
    for (size_t i = s.phaseBegin[p]; i < s.phaseBegin[p + 1]; ++i)
        if (!std::isnan(v[i]))
            out.push_back(v[i]);
    return out;
}

/** The completed entries of v over every phase of one kind, in
 *  submission order. */
std::vector<double>
inKind(const Session &s, const std::vector<double> &v, PhaseKind kind)
{
    std::vector<double> out;
    for (size_t p = 0; p < s.phaseKind.size(); ++p)
        if (s.phaseKind[p] == kind) {
            const std::vector<double> part = inPhase(s, v, p);
            out.insert(out.end(), part.begin(), part.end());
        }
    return out;
}

using LogitsById = std::unordered_map<uint64_t, std::vector<float>>;

bool
sameBytes(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * Server::runTrace over the session's requests in submission order,
 * keyed by live id. Every virtual arrival is 0: replay keeps the
 * order (updates stay sequence points) and fills whole batches, so
 * the oracle costs a saturation replay instead of the many small
 * batches the virtual clock would form at the fixed rate. Logits do
 * not depend on batch composition (the bit-identity contract), which
 * is exactly what the comparison checks.
 */
LogitsById
oracleLogits(const Model &model, const Session &s,
             uint64_t &whole_graph_batches)
{
    std::vector<Request> trace = s.reqs;
    for (Request &r : trace)
        r.arrivalUs = 0;
    const std::unique_ptr<Server> oracle = makeServer(model);
    ReplayReport rep = oracle->runTrace(std::move(trace));
    whole_graph_batches = oracle->stats().wholeGraphBatches();
    LogitsById out;
    for (InferenceResult &r : rep.inference)
        out.emplace(r.id, std::move(r.logits));
    return out;
}

/** Per-layer numbers of the traced re-execution. */
struct TracedServe
{
    double runBatchUs = 0.0;
    double labelledInBatchUs = 0.0;
    double applyUs = 0.0;
    uint64_t inferenceBatches = 0;
    uint64_t wholeGraphBatches = 0;
    double fieldNodes = 0.0;
    uint64_t interleaves = 0;
    uint64_t logitMismatches = 0;
    /** Epoch-0 islandization. */
    uint64_t islands = 0;
    uint64_t hubs = 0;
    double wallUs = 0.0;
    KernelTotals kernels;
};

/**
 * Re-execute the session's exact batches and applications in dispatch
 * order through bench-owned serving components, recording a span per
 * call (and, through the runtime profiler, per kernel chunk).
 */
TracedServe
tracedReplay(const Model &model, const Session &s, const LogitsById &oracle,
             obs::TraceRecorder &rec)
{
    TracedServe t;
    obs::runtimeRegistry().resetValues();
    obs::enableRuntimeProfiling(&rec);
    const uint64_t wall0 = runtimeNowUs();

    const LocatorConfig locator = serverConfig().locator;
    std::shared_ptr<GraphStateHub> hub;
    {
        const uint64_t t0 = runtimeNowUs();
        hub = std::make_shared<GraphStateHub>(
            makeGraphState(model.graph, locator));
        rec.complete(obs::kLaneServer, "serve.make_graph_state", "bench",
                     t0, runtimeNowUs() - t0);
        const IslandizationResult &isl = hub->acquire()->islands;
        t.islands = isl.islands.size();
        t.hubs = isl.numHubs();
    }
    InferenceEngine engine(hub, model.features, model.weights);
    UpdateApplier applier(hub, locator);

    std::vector<std::vector<Request>> app_requests(s.report.updates.size());
    for (size_t k = 0; k < s.updateIds.size(); ++k)
        app_requests[s.appOfUpdate[k]].push_back(
            s.reqs[s.indexOf(s.updateIds[k])]);

    const std::vector<Dispatch> order =
        dispatchOrder(s.report.inference, s.batches, s.report.updates);
    for (size_t d = 0; d < order.size(); ++d) {
        const Dispatch &dp = order[d];
        if (d > 0 && dp.update != order[d - 1].update)
            t.interleaves++;
        if (dp.update) {
            const uint64_t t0 = runtimeNowUs();
            const UpdateResult res = applier.apply(app_requests[dp.index]);
            const uint64_t dur = runtimeNowUs() - t0;
            t.applyUs += static_cast<double>(dur);
            rec.complete(obs::kLaneServer, "serve.update.apply", "bench",
                         t0, dur,
                         {{"coalesced", res.coalesced},
                          {"edges_applied", res.edgesApplied},
                          {"edges_removed", res.edgesRemoved}});
            continue;
        }
        const InferenceBatch &b = s.batches[dp.index];
        std::vector<Request> batch;
        for (size_t j = b.first; j < b.first + b.size; ++j)
            batch.push_back(s.reqs[s.indexOf(s.report.inference[j].id)]);
        BatchExecInfo info;
        const uint64_t kernel0 = readKernelTotals().labelledWallUs();
        const uint64_t t0 = runtimeNowUs();
        const std::vector<InferenceResult> res =
            engine.runBatch(batch, &info);
        const uint64_t dur = runtimeNowUs() - t0;
        const uint64_t labelled =
            readKernelTotals().labelledWallUs() - kernel0;
        t.runBatchUs += static_cast<double>(dur);
        t.labelledInBatchUs += static_cast<double>(labelled);
        t.inferenceBatches++;
        t.wholeGraphBatches += info.wholeGraph ? 1 : 0;
        t.fieldNodes += info.wholeGraph ? model.graph.numNodes()
                                        : info.subNodes;
        rec.complete(obs::kLaneServer, "serve.engine.runBatch", "bench", t0,
                     dur,
                     {{"size", batch.size()},
                      {"whole_graph", info.wholeGraph ? 1u : 0u},
                      {"sub_nodes", info.subNodes},
                      {"self_us", dur - std::min(dur, labelled)}});
        for (const InferenceResult &r : res) {
            const auto it = oracle.find(r.id);
            if (it == oracle.end() || !sameBytes(it->second, r.logits))
                t.logitMismatches++;
        }
    }
    t.wallUs = static_cast<double>(runtimeNowUs() - wall0);
    t.kernels = readKernelTotals();
    obs::disableRuntimeProfiling();
    return t;
}

} // namespace

RunResult
runServeWorkload(const RunArgs &args, bool mixed)
{
    RunResult out;
    const ServeSpec spec = specFor(mixed);

    // ---- setup: graph, features, Server ctor (epoch-0 islandize)
    // and the warm-up burst; repeated, median reported.
    Model model;
    Session s;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        s = Session{};
        setup_s.push_back(timeSeconds([&] {
            model = makeModel();
            s.server = makeServer(model);
            s.start();
            s.run(makePhase(model.graph, kWarmupRequests, spec.updateFrac,
                            0.0, traceSeed(args.seed, 0)),
                  PhaseKind::Warmup);
        }));
    }

    // ---- timed phases.
    const auto fixed_n = static_cast<uint64_t>(
        std::llround(spec.ratePerS * args.seconds));
    const Phase fixed = makePhase(model.graph, fixed_n, spec.updateFrac,
                                  spec.ratePerS, traceSeed(args.seed, 1));
    for (size_t b = 0; b < kBursts; ++b) {
        s.run(slice(fixed, b * fixed_n / kBursts, (b + 1) * fixed_n / kBursts),
              PhaseKind::Fixed);
        s.run(makePhase(model.graph, spec.burstRequests, spec.updateFrac,
                        0.0, traceSeed(args.seed, 2 + b)),
              PhaseKind::Burst);
    }
    s.finish();
    const double peak_rss = peakRssMb();

    // ---- end-to-end numbers.
    const RequestTimes rt = requestTimes(s);
    const std::vector<double> lat = inKind(s, rt.latencyUs, PhaseKind::Fixed);
    std::vector<double> capacity;
    uint64_t sat_done = 0;
    for (size_t p = 0; p < s.phaseKind.size(); ++p) {
        if (s.phaseKind[p] != PhaseKind::Burst)
            continue;
        const std::vector<double> done = inPhase(s, rt.doneUs, p);
        sat_done += done.size();
        if (!done.empty())
            capacity.push_back(
                static_cast<double>(done.size()) * 1e6 /
                (*std::max_element(done.begin(), done.end()) -
                 s.phaseDueUs[p]));
    }
    const double tail_q = tailQuantile(kTailWindow);
    out.endToEnd = {
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"p50_ms", percentile(lat, 0.5) / 1e3, "ms"},
        {"tail_ms", windowedTail(lat, kTailWindow) / 1e3, "ms"},
        {"capacity_rps", median(capacity), "req/s"},
    };

    // ---- oracle: byte-identical logits per request id.
    uint64_t oracle_whole = 0;
    const LogitsById oracle = oracleLogits(model, s, oracle_whole);
    uint64_t served_ok = s.updateIds.size(); // each mapped to its app
    for (const InferenceResult &r : s.report.inference) {
        const auto it = oracle.find(r.id);
        if (it != oracle.end() && sameBytes(it->second, r.logits))
            served_ok++;
    }
    out.attempted = s.reqs.size();
    out.failed = out.attempted - std::min(out.attempted, served_ok);
    if (out.failed > 0)
        out.fail(std::to_string(out.failed) +
                 " requests unserved or with logits differing from "
                 "Server::runTrace");

    // ---- per-layer numbers from the timed run.
    std::vector<double> batch_us, sat_batch_size, service_us;
    for (const InferenceBatch &b : s.batches) {
        const auto us = static_cast<double>(b.doneUs - b.startUs);
        service_us.push_back(us);
        const PhaseKind kind =
            s.kindOf(s.indexOf(s.report.inference[b.first].id));
        if (kind == PhaseKind::Fixed)
            batch_us.push_back(us);
        else if (kind == PhaseKind::Burst)
            sat_batch_size.push_back(static_cast<double>(b.size));
    }
    std::vector<double> apply_us, sat_coalesced;
    uint64_t noop_events = 0;
    for (const UpdateResult &u : s.report.updates) {
        const auto us = static_cast<double>(u.doneUs - u.startUs);
        service_us.push_back(us);
        noop_events += u.edgesSkippedNoop;
        const PhaseKind kind = s.kindOf(s.indexOf(u.id));
        if (kind == PhaseKind::Fixed)
            apply_us.push_back(us);
        else if (kind == PhaseKind::Burst)
            sat_coalesced.push_back(static_cast<double>(u.coalesced));
    }
    uint64_t edge_events = 0;
    for (const Request &r : s.reqs)
        edge_events += r.addedEdges.size() + r.removedEdges.size();
    std::vector<double> late, lat_inf, lat_upd;
    for (size_t i = 0; i < s.reqs.size(); ++i) {
        if (s.kindOf(i) != PhaseKind::Fixed)
            continue;
        late.push_back(s.submitUs[i] - s.dueUs[i]);
        if (!std::isnan(rt.latencyUs[i]))
            (s.reqs[i].kind == RequestKind::Update ? lat_upd : lat_inf)
                .push_back(rt.latencyUs[i] / 1e3);
    }
    const std::vector<double> qwait =
        inKind(s, rt.queueWaitUs, PhaseKind::Fixed);
    const double late_tail = percentile(late, tailQuantile(late.size()));

    out.perLayer = {
        {"serve.scheduler.queue_wait_p50_ms", percentile(qwait, 0.5) / 1e3,
         "ms"},
        {"serve.scheduler.queue_wait_p99_ms",
         percentile(qwait, tailQuantile(qwait.size())) / 1e3, "ms"},
        {"serve.scheduler.batch_size_mean", mean(sat_batch_size), "count"},
        {"serve.engine.batch_p50_ms", percentile(batch_us, 0.5) / 1e3,
         "ms"},
        {"serve.engine.batch_p99_ms",
         percentile(batch_us, tailQuantile(batch_us.size())) / 1e3, "ms"},
        {"serve.engine.oracle_whole_graph_batches",
         static_cast<double>(oracle_whole), "count"},
        {"serve.update.apply_p50_ms", percentile(apply_us, 0.5) / 1e3,
         "ms"},
        {"serve.update.apply_p99_ms",
         percentile(apply_us, tailQuantile(apply_us.size())) / 1e3, "ms"},
        {"serve.update.coalesced_mean", mean(sat_coalesced), "count"},
        {"serve.update.noop_frac",
         edge_events ? static_cast<double>(noop_events) /
                 static_cast<double>(edge_events)
                     : 0.0,
         "ratio"},
        {"bench.gen_late_p50_us", percentile(late, 0.5), "us"},
        {"bench.gen_late_p99_us", late_tail, "us"},
    };

    auto &info = out.info;
    info["fixed_rate_rps"] = std::to_string(spec.ratePerS);
    info["fixed_requests"] = std::to_string(late.size());
    info["latency_samples"] = std::to_string(lat.size());
    info["tail"] = "p" + std::to_string(100 * tail_q) + " per " +
        std::to_string(kTailWindow) + "-request window, median of windows";
    info["saturation_completed"] = std::to_string(sat_done);
    std::string bursts;
    for (double c : capacity)
        bursts += (bursts.empty() ? "" : " ") + std::to_string(std::lround(c));
    info["capacity_per_burst_rps"] = bursts;
    // The read/write split of the fixed-rate latencies (serve-mixed).
    info["infer_p50_ms"] = std::to_string(percentile(lat_inf, 0.5));
    info["infer_p99_ms"] =
        std::to_string(percentile(lat_inf, tailQuantile(lat_inf.size())));
    info["update_p50_ms"] = std::to_string(percentile(lat_upd, 0.5));
    info["update_p99_ms"] =
        std::to_string(percentile(lat_upd, tailQuantile(lat_upd.size())));
    info["fixed_batches"] = std::to_string(batch_us.size());
    info["fixed_update_applications"] = std::to_string(apply_us.size());
    info["noop_base_edge_events"] = std::to_string(edge_events);
    info["refused"] = std::to_string(s.refused);
    info["generator_late"] = late_tail > kLateBoundUs ? "LATE" : "ok";

    if (!args.trace)
        return out;

    // ---- traced re-execution (never the source of end-to-end
    // numbers).
    obs::TraceRecorder rec(true);
    const TracedServe t = tracedReplay(model, s, oracle, rec);
    if (t.logitMismatches > 0)
        out.fail(std::to_string(t.logitMismatches) +
                 " traced-replay logits differ from Server::runTrace");
    if (t.wholeGraphBatches != s.wholeGraphBatches)
        out.fail("traced replay took the whole-graph path " +
                 std::to_string(t.wholeGraphBatches) + " times, the " +
                 "timed run " + std::to_string(s.wholeGraphBatches));
    if (t.interleaves != s.interleaves)
        out.fail("traced replay interleaves " +
                 std::to_string(t.interleaves) + " != timed " +
                 std::to_string(s.interleaves));
    if (!args.traceOut.empty() &&
        !obs::writePerfettoTrace(rec, args.traceOut))
        out.fail("cannot write " + args.traceOut);

    const KernelTotals &k = t.kernels;
    const auto secs = [](uint64_t us) {
        return static_cast<double>(us) / 1e6;
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double timed_service_us = 0.0;
    for (double us : service_us)
        timed_service_us += us;
    const std::vector<Metric> traced = {
        {"serve.scheduler.interleaves", static_cast<double>(t.interleaves),
         "count"},
        {"serve.engine.whole_graph_frac",
         ratio(static_cast<double>(t.wholeGraphBatches),
               static_cast<double>(t.inferenceBatches)),
         "ratio"},
        {"serve.engine.field_nodes_mean",
         ratio(t.fieldNodes, static_cast<double>(t.inferenceBatches)),
         "count"},
        {"serve.engine.run_batch_busy_s", t.runBatchUs / 1e6, "s"},
        {"serve.engine.unlabelled_frac",
         1.0 - ratio(t.labelledInBatchUs, t.runBatchUs), "ratio"},
        {"serve.update.apply_busy_s", t.applyUs / 1e6, "s"},
        {"core.locator.islands", static_cast<double>(t.islands), "count"},
        {"core.locator.hubs", static_cast<double>(t.hubs), "count"},
        {"core.locator.hub_detect_busy_s", secs(k.get("hub_detect").busyUs),
         "s"},
        {"core.locator.tpbfs_busy_s", secs(k.get("tpbfs_explore").busyUs),
         "s"},
        {"core.locator.tpbfs_par",
         ratio(static_cast<double>(k.get("tpbfs_explore").busyUs),
               static_cast<double>(k.get("tpbfs_explore").wallUs)),
         "ratio"},
        {"spmm.gemm_wall_s", secs(k.get("gemm").wallUs), "s"},
        {"spmm.gemm_par",
         ratio(static_cast<double>(k.get("gemm").busyUs),
               static_cast<double>(k.get("gemm").wallUs)),
         "ratio"},
        {"spmm.pull_row_wise_wall_s", secs(k.get("spmm_pull_row_wise").wallUs),
         "s"},
        {"gcn.relu_wall_s", secs(k.get("relu").wallUs), "s"},
        {"gcn.scale_rows_wall_s", secs(k.get("scale_rows").wallUs), "s"},
        {"runtime.pool.busy_frac",
         ratio(static_cast<double>(k.workerBusyUs), t.wallUs * args.threads),
         "ratio"},
        {"runtime.pool.region_us_mean",
         ratio(static_cast<double>(k.wallUs()),
               static_cast<double>(k.regions())),
         "us"},
        {"bench.trace_overhead_frac",
         ratio(t.runBatchUs + t.applyUs, timed_service_us) - 1.0, "ratio"},
    };
    out.perLayer.insert(out.perLayer.end(), traced.begin(), traced.end());
    info["whole_graph_base_batches"] = std::to_string(t.inferenceBatches);
    info["trace_events"] = std::to_string(rec.size());
    return out;
}

} // namespace perfbench
