/**
 * @file
 * Output digests recorded at the commit that defined the benchmark.
 * A change that alters any simulated number, fit, projection or CSR
 * value changes a digest and fails the run; re-record them (perfbench
 * --print-digests) only when an output change is intended.
 */

#ifndef PERFBENCH_EXPECTED_HH
#define PERFBENCH_EXPECTED_HH

#include <map>
#include <string>

namespace perfbench
{

/** Every SimResult field of every cell, table3_sweep at kPinnedSeed. */
/** Every SimResult field of every cell, table3_sweep at kPinnedSeed. */
inline const std::string kTable3PinnedDigest = "f27198b94300850c";

/** Per paper_regen routine: every value the routine's calls return. */
inline const std::map<std::string, std::string> kRegenDigests = {
    {"ablation_points", "79bdd64eb4ccf894"},
    {"ablation_video_dse", "bd20cbfa935a6a80"},
    {"chiplet_crossover", "096f6e3d3e03d79c"},
    {"csr_studies", "bde9fe4d72c6ec9d"},
    {"fig03bc", "42031454df0e59b7"},
    {"fig13", "6601f0519213d039"},
    {"fig14a", "63c15fab98bb4858"},
    {"fig14b", "36c05603b91b88c1"},
    {"fig15", "04d5642295a120bd"},
    {"fig16", "cbf2e2beeeeb94de"},
};

} // namespace perfbench

#endif // PERFBENCH_EXPECTED_HH
