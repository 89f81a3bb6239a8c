#include "checks.hh"

#include <sstream>

#include "exp/engine.hh"
#include "exp/metrics.hh"
#include "gating/registry.hh"
#include "serve/ring.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim_workloads.hh"

namespace perfbench {

using namespace dcg;

namespace {

void
fail(Failures &f, const std::string &msg)
{
    f.push_back(msg);
}

} // namespace

void
checkFigures(const std::vector<std::vector<exp::SchemeResults>> &figs,
             std::uint64_t simulations, std::uint64_t distinctKeys,
             Failures &f)
{
    if (simulations != distinctKeys)
        fail(f, "figures: " + std::to_string(simulations) +
                    " simulations for " + std::to_string(distinctKeys) +
                    " distinct job keys");
    for (std::size_t fi = 0; fi < figs.size(); ++fi) {
        for (const exp::SchemeResults &row : figs[fi]) {
            const std::string at = "figures[" + std::to_string(fi) +
                "] " + row.profile.name + ": ";
            const RunResult &base = row.base();
            if (row.has("dcg")) {
                const RunResult &d = row.dcg();
                if (d.cycles != base.cycles ||
                    d.instructions != base.instructions)
                    fail(f, at + "DCG timing differs from the baseline");
                if (!(d.totalEnergyPJ < base.totalEnergyPJ))
                    fail(f, at + "DCG energy is not below the baseline");
            }
            for (const char *plb : {"plb-orig", "plb-ext"}) {
                if (row.has(plb) && row.scheme(plb).cycles < base.cycles)
                    fail(f, at + plb + " is faster than the baseline");
            }
            if (row.has("dcg") && row.has("plb-ext") &&
                !(exp::powerSaving(base, row.dcg()) >
                  exp::powerSaving(base, row.plbExt())))
                fail(f, at + "DCG saves no more power than PLB-ext");
        }
    }
}

void
checkSchemeMatrix(const std::vector<exp::SchemeResults> &rows,
                  const std::string &skipProfile, Failures &f)
{
    bool sawSkipProfile = false;
    for (const exp::SchemeResults &row : rows) {
        const std::string at = "scheme-matrix " + row.profile.name + ": ";
        const RunResult &base = row.base();
        for (const char *neutral : {"dcg", "ddcg", "cgooo"}) {
            if (!row.has(neutral))
                fail(f, at + "no " + neutral + " run");
            else if (row.scheme(neutral).cycles != base.cycles)
                fail(f, at + neutral + " cycles " +
                            std::to_string(row.scheme(neutral).cycles) +
                            " != base " + std::to_string(base.cycles));
        }
        for (const auto &[scheme, r] : row.results) {
            if (r.totalEnergyPJ > base.totalEnergyPJ)
                fail(f, at + scheme + " spends more energy than base");
        }
        if (row.profile.name == skipProfile) {
            sawSkipProfile = true;
            const auto it = base.extraStats.find("core.skipped_cycles");
            if (it == base.extraStats.end() || !(it->second > 0))
                fail(f, at + "skip-ahead never engaged");
        }
    }
    if (!sawSkipProfile)
        fail(f, "scheme-matrix: no " + skipProfile + " row");
}

void
checkSameResults(const std::vector<std::string> &expected,
                 const std::vector<std::string> &got,
                 const std::string &what, Failures &f)
{
    if (expected.size() != got.size()) {
        fail(f, what + ": " + std::to_string(got.size()) +
                    " results for " + std::to_string(expected.size()) +
                    " jobs");
        return;
    }
    std::size_t differ = 0;
    for (std::size_t i = 0; i < expected.size(); ++i)
        differ += expected[i] != got[i];
    if (differ)
        fail(f, what + ": " + std::to_string(differ) +
                    " results differ from the local engine run");
}

void
checkColdCluster(std::uint64_t simulations, std::uint64_t distinctJobs,
                 const Placement &held, const Placement &owners, Failures &f)
{
    if (simulations != distinctJobs)
        fail(f, "serve-cold: " + std::to_string(simulations) +
                    " simulations for " + std::to_string(distinctJobs) +
                    " distinct jobs");
    std::size_t misplaced = 0;
    for (const auto &[key, nodes] : owners) {
        const auto it = held.find(key);
        if (it == held.end() || it->second != nodes)
            ++misplaced;
    }
    if (held.size() != owners.size() || misplaced)
        fail(f, "serve-cold: " + std::to_string(misplaced) + " of " +
                    std::to_string(owners.size()) +
                    " keys not stored on exactly their ring owners (" +
                    std::to_string(held.size()) + " keys stored)");
}

void
checkWarmCluster(std::uint64_t measuredSimulations,
                 std::uint64_t firstPassDiskHits,
                 std::uint64_t distinctKeys, Failures &f)
{
    if (measuredSimulations != 0)
        fail(f, "serve-warm: " + std::to_string(measuredSimulations) +
                    " simulations in the measured phase");
    if (firstPassDiskHits != distinctKeys)
        fail(f, "serve-warm: first pass had " +
                    std::to_string(firstPassDiskHits) +
                    " disk hits for " + std::to_string(distinctKeys) +
                    " keys");
}

unsigned
selfTest(Failures &f)
{
    unsigned bad = 0;
    // Each case: the check on real data must pass, the corrupted copy
    // must fail.
    auto expect = [&](const std::string &name, bool passes,
                      bool corruptedFails) {
        if (!passes)
            f.push_back("selftest " + name + ": fails on good data");
        if (!corruptedFails)
            f.push_back("selftest " + name + ": misses the corruption");
        bad += !passes + !corruptedFails;
    };
    auto failsOn = [](auto &&check) {
        Failures local;
        check(local);
        return !local.empty();
    };

    // A small real grid: two benchmarks, every figure scheme.
    exp::GridRequest req;
    req.schemes = {"dcg", "plb-orig", "plb-ext"};
    req.benchmarks = {"gzip", "swim"};
    req.instructions = 40'000;
    req.warmup = 10'000;
    exp::Engine eng(2);
    std::vector<std::vector<exp::SchemeResults>> figs{
        exp::runGrid(eng, req)};
    const std::uint64_t keys = exp::gridJobs(req).size();
    {
        auto bad_figs = figs;
        bad_figs[0][0].results[1].second.cycles += 1;  // dcg on gzip
        expect("figures/cycle-changed",
               !failsOn([&](Failures &x) {
                   checkFigures(figs, eng.simulations(), keys, x);
               }),
               failsOn([&](Failures &x) {
                   checkFigures(bad_figs, eng.simulations(), keys, x);
               }));
        expect("figures/simulation-added", true, failsOn([&](Failures &x) {
                   checkFigures(figs, eng.simulations() + 1, keys, x);
               }));
    }

    // A small real matrix on the skip-ahead profile.
    {
        std::vector<exp::Job> jobs;
        const Profile storm = matrixProfiles().back();
        for (const std::string &s : gating::schemeNames()) {
            exp::Job j = exp::makeJob(storm, table1Config(s), 20'000, 5'000);
            j.captureStats = {"core.skipped_cycles"};
            jobs.push_back(j);
        }
        exp::Engine one(1);
        const auto results = one.run(jobs);
        exp::SchemeResults row;
        row.profile = storm;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            row.results.emplace_back(jobs[i].config.scheme, results[i]);
        std::vector<exp::SchemeResults> rows{row};
        auto bad_rows = rows;
        for (auto &[s, r] : bad_rows[0].results)
            if (s == "ddcg")
                r.cycles += 1;
        expect("scheme-matrix/cycle-changed",
               !failsOn([&](Failures &x) {
                   checkSchemeMatrix(rows, storm.name, x);
               }),
               failsOn([&](Failures &x) {
                   checkSchemeMatrix(bad_rows, storm.name, x);
               }));
    }

    // Result identity: a dropped job and a changed cycle count.
    {
        std::vector<std::string> expected;
        for (const auto &row : figs[0]) {
            for (const auto &[s, r] : row.results) {
                std::ostringstream os;
                writeResultsJson({r}, os);
                expected.push_back(os.str());
            }
        }
        auto dropped = expected;
        dropped.pop_back();
        auto changed = expected;
        std::ostringstream os;
        RunResult r = figs[0][0].base();
        r.cycles += 1;
        writeResultsJson({r}, os);
        changed[0] = os.str();
        const bool good = !failsOn([&](Failures &x) {
            checkSameResults(expected, expected, "selftest", x);
        });
        expect("results/job-dropped", good, failsOn([&](Failures &x) {
                   checkSameResults(expected, dropped, "selftest", x);
               }));
        expect("results/cycle-changed", good, failsOn([&](Failures &x) {
                   checkSameResults(expected, changed, "selftest", x);
               }));
    }

    // Cluster placement and warm-run accounting.
    {
        const serve::HashRing ring({"127.0.0.1:1", "127.0.0.1:2",
                                    "127.0.0.1:3"});
        Placement owners;
        for (int i = 0; i < 16; ++i) {
            const std::string key = "key-" + std::to_string(i);
            const auto idx = ring.ownerIndices(key, 2);
            owners[key] = {idx.begin(), idx.end()};
        }
        auto missing = owners;
        missing.begin()->second.erase(missing.begin()->second.begin());
        const bool good = !failsOn([&](Failures &x) {
            checkColdCluster(16, 16, owners, owners, x);
        });
        expect("serve-cold/replica-missing", good, failsOn([&](Failures &x) {
                   checkColdCluster(16, 16, missing, owners, x);
               }));
        expect("serve-cold/simulation-added", good, failsOn([&](Failures &x) {
                   checkColdCluster(17, 16, owners, owners, x);
               }));
        expect("serve-warm/simulation-added",
               !failsOn([&](Failures &x) { checkWarmCluster(0, 16, 16, x); }),
               failsOn([&](Failures &x) { checkWarmCluster(1, 16, 16, x); }));
    }
    return bad;
}

} // namespace perfbench
