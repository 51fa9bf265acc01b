#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>

#include "helpers.hpp"
#include "obs/runtime.hpp"

namespace perfbench {

double
peakRssMb()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

KernelTotals::Row
KernelTotals::get(const std::string &kernel) const
{
    const auto it = byKernel.find(kernel);
    return it == byKernel.end() ? Row{} : it->second;
}

uint64_t
KernelTotals::labelledWallUs() const
{
    uint64_t sum = 0;
    for (const auto &[kernel, row] : byKernel)
        if (kernel != "unlabeled")
            sum += row.wallUs;
    return sum;
}

uint64_t
KernelTotals::regions() const
{
    uint64_t sum = 0;
    for (const auto &[kernel, row] : byKernel)
        sum += row.regions;
    return sum;
}

uint64_t
KernelTotals::wallUs() const
{
    uint64_t sum = 0;
    for (const auto &[kernel, row] : byKernel)
        sum += row.wallUs;
    return sum;
}

KernelTotals
readKernelTotals()
{
    using igcn::obs::MetricKey;
    using igcn::obs::MetricKind;
    using igcn::obs::Registry;
    KernelTotals out;
    igcn::obs::runtimeRegistry().forEach(
        [&](const MetricKey &key, const Registry::Entry &e) {
            if (e.kind == MetricKind::ShardedCounter &&
                key.name == "igcn_runtime_worker_busy_us") {
                out.workerBusyUs += e.sharded->value();
                return;
            }
            if (e.kind != MetricKind::Counter)
                return;
            const auto it = key.labels.find("kernel");
            if (it == key.labels.end())
                return;
            KernelTotals::Row &row = out.byKernel[it->second];
            if (key.name == "igcn_runtime_kernel_regions_total")
                row.regions = e.counter->value();
            else if (key.name == "igcn_runtime_kernel_wall_us_total")
                row.wallUs = e.counter->value();
            else if (key.name == "igcn_runtime_kernel_busy_us_total")
                row.busyUs = e.counter->value();
        });
    return out;
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

} // namespace perfbench
