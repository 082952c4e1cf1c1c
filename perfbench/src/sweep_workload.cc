/**
 * @file
 * table3_sweep: runSweepChecked over the Table III grid for each
 * Table IV kernel, passes back to back from one caller.
 */


#include "aladdin/sweep.hh"
#include "dfg/analysis.hh"
#include "expected.hh"
#include "inputs.hh"
#include "workloads.hh"

namespace perfbench
{

using accelwall::aladdin::SimResult;
using accelwall::aladdin::Simulator;
using accelwall::aladdin::SweepConfig;
using accelwall::aladdin::SweepOptions;
using accelwall::aladdin::SweepPoint;

namespace
{

/** Chains per kernel whose cells the Simulator::run oracle re-runs. */
constexpr std::size_t kOracleChains = 3;

struct Kernels
{
    std::vector<KernelSpec> specs;
    std::vector<std::unique_ptr<Simulator>> sims;
    std::uint64_t nodes = 0;
};

Kernels
buildKernels(const std::vector<KernelSpec> &specs, Tracer &tracer)
{
    Kernels k;
    k.specs = specs;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        accelwall::dfg::Graph g = [&] {
            Tracer::Span s(tracer, "kernels.build", i);
            return specs[i].build();
        }();
        k.nodes += g.numNodes();
        Tracer::Span s(tracer, "aladdin.sim_init", i);
        k.sims.push_back(std::make_unique<Simulator>(std::move(g)));
    }
    return k;
}

/** What one timed section measured. */
struct Timed
{
    /** Kernel sweep and pass times, scaled to nominal host speed. */
    std::vector<double> kernel_ms;
    std::vector<double> pass_s;
    /** Pass wall times as measured, and each pass's host-speed factor. */
    std::vector<double> raw_pass_s;
    std::vector<double> factors;
    std::uint64_t cells_per_pass = 0;
    std::uint64_t ops_per_pass = 0;
    /** Digest of each kernel's grid, from the first pass. */
    std::vector<std::uint64_t> digests;
    /** The first pass's grids, for the oracle. */
    std::vector<std::vector<SweepPoint>> first;
};

Timed
timedSection(const Kernels &k, const SweepConfig &grid, double seconds,
             Tracer &tracer, Report &report, std::uint64_t max_passes = 0)
{
    SweepOptions opts;
    opts.jobs = kSweepJobs;
    HostSpeed speed;
    Timed out;
    auto start = Clock::now();
    for (std::uint64_t pass = 0;; ++pass) {
        double elapsed = secondsBetween(start, Clock::now());
        bool done = max_passes ? pass == max_passes : elapsed >= seconds;
        if (done)
            break;
        Tracer::Span pass_span(tracer, "table3.pass", pass);
        std::vector<double> kernel_s;
        std::uint64_t cells = 0, ops = 0;
        for (std::size_t i = 0; i < k.sims.size(); ++i) {
            auto t0 = Clock::now();
            auto outcome = [&] {
                Tracer::Span s(tracer, "aladdin.sweep",
                               pass * k.sims.size() + i);
                return accelwall::aladdin::runSweepChecked(*k.sims[i],
                                                           grid, opts);
            }();
            kernel_s.push_back(secondsBetween(t0, Clock::now()));
            speed.sample();

            bool ok = outcome.ok() &&
                      outcome.value().report.failed == 0 &&
                      outcome.value().points.size() ==
                          grid.nodes.size() * grid.partitions.size() *
                              grid.simplifications.size();
            Digest d;
            if (ok) {
                for (const SweepPoint &pt : outcome.value().points) {
                    digestResult(d, pt.res);
                    ops += pt.res.ops;
                }
                cells += outcome.value().points.size();
            }
            if (pass == 0) {
                out.digests.push_back(d.value());
                out.first.push_back(ok ? outcome.value().points
                                       : std::vector<SweepPoint>{});
            }
            report.check(ok && d.value() == out.digests[i],
                         "sweep of " + k.specs[i].str() + " in pass " +
                             std::to_string(pass));
        }
        const double factor = speed.closeUnit();
        double pass_s = 0.0;
        for (double s : kernel_s) {
            pass_s += s;
            out.kernel_ms.push_back(1e3 * HostSpeed::normalize(s, factor));
        }
        out.raw_pass_s.push_back(pass_s);
        out.pass_s.push_back(HostSpeed::normalize(pass_s, factor));
        out.factors.push_back(factor);
        if (pass == 0) {
            out.cells_per_pass = cells;
            out.ops_per_pass = ops;
        }
        report.check(cells == out.cells_per_pass && ops == out.ops_per_pass,
                     "cell and op counts repeat in pass " +
                         std::to_string(pass));
    }
    return out;
}

std::vector<Metric>
endToEnd(const Timed &t, double setup_s)
{
    std::vector<Metric> m;
    m.push_back({"setup_s", "s", setup_s});
    m.push_back({"peak_rss_mb", "MB", peakRssMb()});
    m.push_back({"throughput_per_s", "1/s",
                 static_cast<double>(t.cells_per_pass) / median(t.pass_s)});
    m.push_back({"op_time_ms", "ms", median(t.kernel_ms)});
    return m;
}

/**
 * Re-run a seeded sample of cells one at a time through
 * Simulator::run: bit for bit on each chain's first three partitions
 * (the plateau rule never fills them), within its 0.1% tolerance after.
 */
std::vector<double>
oracle(const Kernels &k, const Timed &t, const SweepConfig &grid,
       std::uint64_t seed, Tracer &tracer, Report &report)
{
    std::vector<double> ns_per_op;
    SeedRng rng(seed ^ 0x0a11ceull);
    const std::size_t n_part = grid.partitions.size();
    const std::size_t chains = grid.nodes.size() * grid.simplifications.size();
    for (std::size_t i = 0; i < k.sims.size(); ++i) {
        if (t.first[i].empty())
            continue;
        for (std::size_t c = 0; c < kOracleChains; ++c) {
            std::size_t chain = rng.below(chains);
            for (std::size_t pi = 0; pi < n_part; ++pi) {
                const SweepPoint &cell = t.first[i][chain * n_part + pi];
                SimResult direct;
                auto t0 = Clock::now();
                {
                    Tracer::Span s(tracer, "aladdin.point", i);
                    direct = k.sims[i]->run(cell.dp);
                }
                ns_per_op.push_back(1e9 * secondsBetween(t0, Clock::now()) /
                                    static_cast<double>(direct.ops));
                bool ok = pi < 3 ? sameResult(direct, cell.res)
                                 : closeResult(direct, cell.res);
                report.check(ok, k.specs[i].str() + " cell " +
                                     cell.dp.str() + " vs Simulator::run");
            }
        }
    }
    return ns_per_op;
}

Digest
passDigest(const std::vector<std::uint64_t> &kernel_digests)
{
    Digest all;
    for (std::uint64_t d : kernel_digests)
        all.add(d);
    return all;
}

} // namespace

std::string
table3PinnedDigest()
{
    Tracer off(false);
    Report scratch;
    Kernels k = buildKernels(table3Kernels(kPinnedSeed), off);
    return passDigest(timedSection(k, table3Grid(), 0.0, off, scratch, 1)
                          .digests)
        .hex();
}

Report
runTable3Sweep(const Options &opts)
{
    Report report;
    const SweepConfig grid = table3Grid();
    const std::vector<KernelSpec> specs = table3Kernels(opts.seed);
    std::string names;
    for (const KernelSpec &s : specs)
        names += (names.empty() ? "" : " ") + s.str();
    report.lines.push_back("kernels: " + names);

    Tracer off(false);
    double setup_s = 0.0;
    Kernels k = repeatSetup([&] { return buildKernels(specs, off); }, setup_s);

    Timed t = timedSection(k, grid, opts.seconds, off, report);
    report.end_to_end = endToEnd(t, setup_s);
    report.lines.push_back(
        "at nominal host speed: sweep_cells_per_s=" +
        std::to_string(report.end_to_end[2].value) +
        " kernel_sweep_ms_p50=" + std::to_string(median(t.kernel_ms)) +
        " kernel_sweep_ms_p99=" + fmtP99(t.kernel_ms) +
        " cells_per_pass=" + std::to_string(t.cells_per_pass) +
        " passes=" + std::to_string(t.pass_s.size()) + " pass_ms_p10/50/90=" +
        std::to_string(1e3 * quantile(t.pass_s, 0.1)) + "/" +
        std::to_string(1e3 * quantile(t.pass_s, 0.5)) + "/" +
        std::to_string(1e3 * quantile(t.pass_s, 0.9)) +
        " kernel_sweeps=" + std::to_string(t.kernel_ms.size()));
    report.lines.push_back(
        "as measured: sweep_cells_per_s=" +
        std::to_string(static_cast<double>(t.cells_per_pass) /
                       median(t.raw_pass_s)) +
        " pass_ms_p10/50/90=" +
        std::to_string(1e3 * quantile(t.raw_pass_s, 0.1)) + "/" +
        std::to_string(1e3 * quantile(t.raw_pass_s, 0.5)) + "/" +
        std::to_string(1e3 * quantile(t.raw_pass_s, 0.9)) +
        " host_factor_p10/50/90=" + fmtFactors(t.factors));

    if (opts.seed == kPinnedSeed) {
        Digest all = passDigest(t.digests);
        report.lines.push_back("table3 digest " + all.hex());
        report.check(all.hex() == kTable3PinnedDigest,
                     "table3 pinned-seed digest " + all.hex() +
                         " != recorded " + kTable3PinnedDigest);
    }

    Tracer tracer(opts.trace);
    std::vector<double> ns_per_op =
        oracle(k, t, grid, opts.seed, tracer, report);
    if (!opts.trace)
        return report;

    // Traced run: the same set-up and timed section with spans on, then
    // the internal calls replayed through their public functions. The
    // untraced kernels and grids go first, so peak_rss_mb compares.
    k = {};
    t.first = {};
    double traced_setup_s = 0.0;
    Kernels traced_k = repeatSetup(
        [&] { return buildKernels(specs, tracer); }, traced_setup_s);
    Timed traced = timedSection(traced_k, grid, opts.seconds, tracer, report);
    addOverhead(report, report.end_to_end, endToEnd(traced, traced_setup_s));
    for (std::size_t i = 0; i < traced_k.sims.size(); ++i) {
        {
            Tracer::Span s(tracer, "dfg.analyze", i);
            accelwall::dfg::analyze(traced_k.sims[i]->graph());
        }
        replaySweepInternals(*traced_k.sims[i], grid, i, tracer, report);
    }

    addSweepLayers(report, tracer);
    report.layers.push_back({"kernels.dfg_nodes", "count",
                             static_cast<double>(traced_k.nodes)});
    report.layers.push_back({"aladdin.cells", "count",
                             static_cast<double>(t.cells_per_pass)});
    report.layers.push_back({"aladdin.simulated_ops", "count",
                             static_cast<double>(t.ops_per_pass)});
    report.layers.push_back(
        {"aladdin.point_ns_per_op", "ns/op", median(ns_per_op)});
    finishTrace(report, tracer, opts.trace_path);
    return report;
}

} // namespace perfbench
