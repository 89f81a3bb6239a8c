/**
 * @file
 * Output checks, one per workload, written as pure functions over the
 * results so selfTest() can feed each a deliberately corrupted copy
 * and show that it fails.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exp/grid.hh"
#include "util.hh"

namespace perfbench {

/**
 * figures: simulations == distinct jobKeys; on every benchmark row DCG
 * keeps the baseline's cycles and instructions at lower energy, both
 * PLB variants take at least the baseline's cycles, and DCG's total
 * power saving exceeds PLB-ext's.
 */
void checkFigures(const std::vector<std::vector<dcg::exp::SchemeResults>> &figs,
                  std::uint64_t simulations, std::uint64_t distinctKeys,
                  Failures &f);

/**
 * scheme-matrix: base, dcg, ddcg and cgooo have identical cycles per
 * profile, no scheme spends more energy than base, and skip-ahead
 * engaged on @p skipProfile (skipped cycles from captured stats).
 */
void checkSchemeMatrix(const std::vector<dcg::exp::SchemeResults> &rows,
                       const std::string &skipProfile, Failures &f);

/** Every job answered, each byte-identical to the local reference. */
void checkSameResults(const std::vector<std::string> &expected,
                      const std::vector<std::string> &got,
                      const std::string &what, Failures &f);

using Placement = std::map<std::string, std::set<std::size_t>>;

/** serve-cold: one simulation per distinct job cluster-wide, and each
 *  key stored on exactly the nodes HashRing::owners names (key ->
 *  node indices). */
void checkColdCluster(std::uint64_t simulations, std::uint64_t distinctJobs,
                      const Placement &held, const Placement &owners,
                      Failures &f);

/** serve-warm: nothing simulated while measured; the first pass was
 *  served from disk, one hit per distinct key. */
void checkWarmCluster(std::uint64_t measuredSimulations,
                      std::uint64_t firstPassDiskHits,
                      std::uint64_t distinctKeys, Failures &f);

/**
 * Run each check on a small real result set (must pass) and on a
 * corrupted copy (must fail): a cycle count changed, a job dropped, a
 * simulation added to a warm run, a replica missing. Returns the
 * number of checks that did not behave; details go to @p f.
 */
unsigned selfTest(Failures &f);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
