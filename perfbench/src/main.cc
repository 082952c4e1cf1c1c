/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload table3_sweep|paper_regen|serve_mix --seed N
 *             --seconds S --trace 0|1 [--trace-out PATH] [--git DESC]
 *   perfbench --print-digests      re-record src/expected.hh
 *
 * Human-readable lines start with "# "; the last line of stdout is the
 * JSON result: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end set, with --trace 1 the
 * per-layer set (and a Chrome trace is written to --trace-out).
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "aladdin/sweep.hh"
#include "util/json.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

using namespace perfbench;

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload "
                 "table3_sweep|paper_regen|serve_mix --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH] "
                 "[--git DESC]\n"
                 "       perfbench --print-digests\n";
    return 2;
}

/** Seed, commit, build, engine, thread counts and ACCELWALL_* env. */
void
printConfig(const Options &opts, const std::string &git)
{
    std::cout << "# config: workload=" << opts.workload
              << " seed=" << opts.seed << " seconds=" << opts.seconds
              << " trace=" << (opts.trace ? 1 : 0) << "\n"
              << "# config: git=" << git
              << " build_type=" << PERFBENCH_BUILD_TYPE
              << " sweep_engine="
              << accelwall::aladdin::sweepEngineName(
                     accelwall::aladdin::resolveSweepEngine(
                         accelwall::aladdin::SweepEngine::Auto))
              << "\n"
              << "# config: sweep_jobs=" << kSweepJobs
              << " default_jobs=" << kRegenJobs
              << " serve_workers=" << kServeWorkers
              << " serve_sweep_jobs=" << kServeSweepJobs
              << " generator_senders=" << kServeSenders
              << " serve_rate_per_s=" << kServeRate << "\n";
    std::string env;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "ACCELWALL_", 10) == 0)
            env += std::string(" ") + *e;
    }
    std::cout << "# config: env" << (env.empty() ? " (no ACCELWALL_*)" : env)
              << "\n";
}

void
printResult(Report &r, bool trace)
{
    std::vector<Metric> &metrics = trace ? r.layers : r.end_to_end;
    for (Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            r.check(false, "metric " + m.name + " is not finite");
            m.value = 0.0;
        }
    }
    for (const std::string &line : r.lines)
        std::cout << "# " << line << "\n";
    for (const Metric &m : metrics)
        std::cout << "# " << m.name << " = " << accelwall::fmtJsonNumber(m.value)
                  << " " << m.unit << "\n";
    std::cout << "# attempted=" << r.attempted << " failed=" << r.failed
              << "\n";
    accelwall::JsonWriter w;
    w.beginObject();
    w.key("correct").value(r.failed == 0 && r.attempted > 0);
    w.key("attempted").value(static_cast<unsigned long long>(r.attempted));
    w.key("failed").value(static_cast<unsigned long long>(r.failed));
    w.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << w.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--generator") == 0)
        return generatorMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "--print-digests") == 0)
        return printDigests();

    Options opts;
    opts.self = argv[0];
    std::string git = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = !value.empty() && *end == '\0';
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            have_seconds = !value.empty() && *end == '\0' &&
                           opts.seconds > 0.0 && opts.seconds <= 600.0;
        } else if (flag == "--trace") {
            have_trace = value == "0" || value == "1";
            opts.trace = value == "1";
        } else if (flag == "--trace-out") {
            opts.trace_path = value;
        } else if (flag == "--git") {
            git = value;
        } else {
            return usage("unknown flag " + flag);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");
    if (opts.trace_path.empty())
        opts.trace_path = "perfbench-" + opts.workload + "-trace.json";

    Report (*run)(const Options &) = nullptr;
    if (opts.workload == "table3_sweep")
        run = runTable3Sweep;
    else if (opts.workload == "paper_regen")
        run = runPaperRegen;
    else if (opts.workload == "serve_mix")
        run = runServeMix;
    else
        return usage("unknown workload '" + opts.workload + "'");

    printConfig(opts, git);
    Report report = run(opts);
    if (opts.trace)
        report.lines.push_back("chrome trace: " + opts.trace_path);
    printResult(report, opts.trace);
    return 0;
}
