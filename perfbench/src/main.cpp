/**
 * @file
 * igcn_perfbench: one workload run of the wall-clock benchmark.
 *
 *   igcn_perfbench --workload serve-read|serve-mixed|island-batch
 *                  --seed N --seconds S --trace 0|1 [--trace-out F]
 *
 * Prints a human-readable summary, an "info {...}" line (machine,
 * threads, seed, sample counts and bases), and as its last line the
 * result object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics of the
 * layers the workload exercises with --trace 1. perfbench/run.py
 * builds and runs it, and orders the metrics as BENCHMARK.json lists
 * them.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: igcn_perfbench --workload serve-read|serve-mixed|"
                 "island-batch --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            args.workload = val;
        else if (key == "--seed")
            args.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            args.trace = val == "1";
        else if (key == "--trace-out")
            args.traceOut = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(args.seconds > 0 && args.seconds <= 600))
        return usage();
    const bool serve =
        args.workload == "serve-read" || args.workload == "serve-mixed";
    if (!serve && args.workload != "island-batch")
        return usage();

    // Thread budget: nproc threads in total. The serve workloads'
    // open-loop generator is one of them, so the pool gets one fewer.
    const int cpus = availableCpus();
    args.threads = serve ? std::max(1, cpus - 1) : cpus;
    igcn::setGlobalThreads(args.threads);

    RunResult r;
    try {
        r = serve ? runServeWorkload(args, args.workload == "serve-mixed")
                  : runIslandWorkload(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "igcn_perfbench: %s\n", e.what());
        return 1;
    }
    r.info["workload"] = args.workload;
    r.info["seed"] = std::to_string(args.seed);
    r.info["seconds"] = jsonNumber(args.seconds);
    r.info["pool_threads"] = std::to_string(args.threads);
    r.info["generator_threads"] = serve ? "1" : "0";
    r.info["nproc"] = std::to_string(cpus);
    r.info["machine"] = cpuModel();

    const std::vector<Metric> &metrics = args.trace ? r.perLayer : r.endToEnd;
    for (const Metric &m : metrics) {
        std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (!std::isfinite(m.value))
            r.fail("non-finite " + m.name);
    }
    std::string info = "info {";
    for (const auto &[k, v] : r.info)
        info += (info.size() > 6 ? ", " : "") + jsonString(k) + ": " +
            jsonString(v);
    std::printf("%s}\n", info.c_str());

    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
            jsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("%s}}\n", out.c_str());
    return 0;
}
