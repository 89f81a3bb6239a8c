#include "util.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace perfbench {

namespace fs = std::filesystem;

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (auto &item : list) {
        if (item.first == name) {
            item.second = {value, unit};
            return;
        }
    }
    list.push_back({name, {value, unit}});
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
clockCostNs()
{
    // Median of several batches: one batch can be hit by preemption.
    // Clock::now() is an opaque call, so the loop cannot be elided.
    std::vector<double> per;
    for (int rep = 0; rep < 7; ++rep) {
        constexpr int kN = 20000;
        const auto t0 = Clock::now();
        for (int i = 0; i < kN; ++i)
            Clock::now();
        per.push_back(nsBetween(t0, Clock::now()) / kN);
    }
    return median(per);
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

void
printProvenance(const RunOptions &opts)
{
    const char *commit = std::getenv("PERFBENCH_SOURCE");
    std::cout << "# host: cpu=\"" << cpuModel() << "\" nproc="
              << opts.nproc << "\n"
              << "# build: compiler=\"" << PERFBENCH_COMPILER
              << "\" type=" << PERFBENCH_BUILD_TYPE
              << " lto=" << PERFBENCH_LTO << "\n"
              << "# source: " << (commit ? commit : "unknown") << "\n"
              << "# run: workload=" << opts.workload
              << " seed=" << opts.seed << " seconds=" << opts.seconds
              << " trace=" << (opts.trace ? 1 : 0) << "\n";
}

std::string
makeTempDir(const std::string &tag)
{
    static std::atomic<unsigned> counter{0};
    const fs::path dir = fs::current_path() / ".bench_tmp" /
        (tag + "-" + std::to_string(getpid()) + "-" +
         std::to_string(counter++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

void
removeTree(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

} // namespace perfbench
