/**
 * @file
 * Shared plumbing of the benchmark's workloads: the run's result
 * record, wall timing, process and machine facts, and kernel
 * totals read from the runtime profiler's registry.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line settings every workload receives. */
struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Perfetto JSON of the traced run ("" = do not write). */
    std::string traceOut;
    /** Pool workers (IGCN_THREADS equivalent). */
    int threads = 1;
};

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Printed with --trace 0. */
    std::vector<Metric> endToEnd;
    /** Printed with --trace 1: the layers the workload exercises
     *  (run.py fills the layers it bypasses with 0). */
    std::vector<Metric> perLayer;
    /** Context printed on the "info" line (sample counts, bases). */
    std::map<std::string, std::string> info;

    void
    fail(const std::string &why)
    {
        correct = false;
        info["failure"] += (info["failure"].empty() ? "" : "; ") + why;
    }
};

/** Wall seconds of a callable. */
template <typename F>
double
timeSeconds(F &&f)
{
    const auto t0 = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Process peak resident set size in MB. */
double peakRssMb();

/** CPUs this process may run on. */
int availableCpus();

/** CPU model name from /proc/cpuinfo ("unknown" if absent). */
std::string cpuModel();

/** Per-kernel totals from obs::runtimeRegistry(). */
struct KernelTotals
{
    struct Row
    {
        uint64_t regions = 0;
        uint64_t wallUs = 0;
        uint64_t busyUs = 0;
    };
    std::map<std::string, Row> byKernel;
    /** Summed worker busy time over all kernels. */
    uint64_t workerBusyUs = 0;

    Row get(const std::string &kernel) const;
    /** Region wall summed over labelled kernels ("unlabeled" regions
     *  and code outside any parallel region do not count). */
    uint64_t labelledWallUs() const;
    uint64_t regions() const;
    uint64_t wallUs() const;
};

KernelTotals readKernelTotals();

/** Median of v (0 for an empty sample). */
double median(const std::vector<double> &v);

/** Arithmetic mean of v (0 for an empty sample). */
double mean(const std::vector<double> &v);

} // namespace perfbench
