/**
 * @file
 * perfbench: the repository's benchmark. One workload per process:
 *
 *   perfbench --workload <figures|scheme-matrix|serve-cold|serve-warm>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 is the
 * separate traced run that prints the per-layer ledger. Either way
 * the outputs are checked, and the last stdout line is the JSON
 * result: {"correct", "attempted", "failed", "metrics"}. run.py
 * builds this binary and is the entry point; see README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "checks.hh"
#include "serve_workloads.hh"
#include "sim_workloads.hh"
#include "util.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <figures|scheme-matrix|"
                 "serve-cold|serve-warm> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    std::exit(2);
}

RunOptions
parse(int argc, char **argv)
{
    RunOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (o.workload.empty())
        usage("no --workload");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    o.nproc = std::max(1u, std::thread::hardware_concurrency());
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions opts = parse(argc, argv);
    printProvenance(opts);

    Outcome out;
    if (opts.workload == "figures")
        out = runFigures(opts);
    else if (opts.workload == "scheme-matrix")
        out = runSchemeMatrix(opts);
    else if (opts.workload == "serve-cold")
        out = runServeCold(opts);
    else if (opts.workload == "serve-warm")
        out = runServeWarm(opts);
    else
        usage("unknown workload " + opts.workload);

    // After the workload, so its peak RSS excludes the self-test.
    Failures selftest;
    const unsigned selftestBad = selfTest(selftest);
    std::cout << "selftest: every check passes on good data and fails on "
                 "its corruption: "
              << (selftestBad ? "NO" : "yes") << "\n";
    out.failures.insert(out.failures.begin(), selftest.begin(),
                        selftest.end());
    if (!opts.trace)
        out.metrics.set("peak_rss_mb", out.measuredPeakRssMb, "MB");

    for (const std::string &f : out.failures)
        std::cout << "CHECK FAILED: " << f << "\n";
    for (const auto &[name, vu] : out.metrics.items())
        std::printf("%-44s %16.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    bool first = true;
    for (const auto &[name, vu] : out.metrics.items()) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), vu.first,
                    vu.second.c_str());
        first = false;
    }
    std::printf("}}\n");
    return 0;
}
