/**
 * @file
 * Shared plumbing of the perfbench binary: run options, the metric
 * list printed as the result line, order statistics, peak RSS and the
 * host/build provenance block.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned nproc = 1;
};

/** Metrics in print order; names are unique (set() replaces). */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<std::pair<std::string,
                                std::pair<double, std::string>>> &
    items() const { return list; }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        list;
};

/** Correctness failures collected by the checks; empty = correct. */
using Failures = std::vector<std::string>;

/** What one workload run hands back to main(). */
struct Outcome
{
    Failures failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
    /** Peak RSS sampled when the measured phase ends, before any
     *  reference run or self-test can raise the high-water mark. */
    double measuredPeakRssMb = 0.0;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Linear-interpolated percentile, @p p in [0, 1]. */
double percentile(std::vector<double> v, double p);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** User + system CPU time this process has used, in seconds. */
double cpuSeconds();

/**
 * Run @p setup at least 5 times and until 1.5 s of set-up time have
 * passed (at most 41 times); the median wall time, in seconds.
 * @p teardown undoes one set-up between repetitions and is not timed.
 * The state the last set-up leaves behind is what the workload uses.
 */
template <typename Setup, typename Teardown>
double
timedSetup(Setup &&setup, Teardown &&teardown)
{
    std::vector<double> s;
    double total = 0.0;
    for (;;) {
        const auto t0 = Clock::now();
        setup();
        s.push_back(secondsSince(t0));
        total += s.back();
        if (s.size() >= 41 || (s.size() >= 5 && total >= 1.5))
            break;
        teardown();
    }
    std::cout << "set-up: " << s.size() << " repetitions, median "
              << median(s) << " s\n";
    return median(s);
}

/** Mean cost of one steady_clock::now() call, in ns (calibrated). */
double clockCostNs();

/** Print host and build provenance lines (prefixed "# "). */
void printProvenance(const RunOptions &opts);

/** A fresh directory under the working directory's .bench_tmp/. */
std::string makeTempDir(const std::string &tag);

/** Remove a directory tree made by makeTempDir. */
void removeTree(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
