/**
 * @file
 * paper_regen: in-process and without printing, the library calls
 * behind the figure, table and ablation binaries in bench/ that carry
 * the paper's Section VI study, its fits, projections, CSR case
 * studies and the chiplet crossover. Inputs are the paper's; the seed
 * only permutes the order of the routines.
 */

#include <functional>
#include <iostream>
#include <map>

#include "aladdin/attribution.hh"
#include "aladdin/sweep.hh"
#include "chipdb/budget.hh"
#include "chipdb/synth.hh"
#include "chiplet/sweep.hh"
#include "csr/csr.hh"
#include "dfg/analysis.hh"
#include "dfgopt/rewrites.hh"
#include "expected.hh"
#include "inputs.hh"
#include "kernels/btc.hh"
#include "kernels/kernels.hh"
#include "nn/conv_dfg.hh"
#include "nn/layers.hh"
#include "potential/model.hh"
#include "projection/domains.hh"
#include "projection/projection.hh"
#include "studies/bitcoin.hh"
#include "studies/fpga.hh"
#include "studies/video.hh"
#include "util/parallel.hh"
#include "workloads.hh"

namespace perfbench
{

namespace aladdin = accelwall::aladdin;
namespace chipdb = accelwall::chipdb;
namespace csr = accelwall::csr;
namespace dfg = accelwall::dfg;
namespace kernels = accelwall::kernels;
namespace potential = accelwall::potential;
namespace projection = accelwall::projection;
namespace studies = accelwall::studies;
namespace units = accelwall::units;
using aladdin::DesignPoint;
using aladdin::SimResult;
using aladdin::Simulator;

namespace
{

/** Every Simulator the routines use, built during set-up. */
struct Sims
{
    std::map<std::string, std::unique_ptr<Simulator>> by_name;
    std::uint64_t nodes = 0;

    const Simulator &operator[](const std::string &name) const
    {
        return *by_name.at(name);
    }
};

/** The graphs the bench binaries simulate, keyed by a short name. */
std::vector<std::pair<std::string, std::function<dfg::Graph()>>>
graphRecipes()
{
    std::vector<std::pair<std::string, std::function<dfg::Graph()>>> out;
    for (const auto &info : kernels::kernelTable()) {
        std::string abbrev = info.abbrev;
        out.push_back({abbrev, [abbrev] { return kernels::makeKernel(abbrev); }});
    }
    for (const char *ext : {"IDCT", "ENT", "BTC"}) {
        std::string abbrev = ext;
        out.push_back({abbrev, [abbrev] { return kernels::makeKernel(abbrev); }});
    }
    out.push_back({"BTC-plain", [] { return kernels::makeBtc(false); }});
    out.push_back({"BTC-boost", [] { return kernels::makeBtc(true); }});
    out.push_back({"DFT16", [] { return kernels::makeDftNaive(16); }});
    out.push_back({"FFT16", [] { return kernels::makeFft(16); }});
    out.push_back({"conv-direct", [] {
                       return accelwall::nn::makeLayerDfg(
                           accelwall::nn::vgg16Layers()[3], 2, 2, 8);
                   }});
    out.push_back({"conv-winograd", [] {
                       return accelwall::nn::makeWinogradConvDfg(
                           accelwall::nn::vgg16Layers()[3], 8);
                   }});
    out.push_back({"IDCT-reduced", [] {
                       return accelwall::dfgopt::reduceStrength(
                           kernels::makeKernel("IDCT"));
                   }});
    return out;
}

Sims
buildSims(Tracer &tracer)
{
    Sims sims;
    std::uint64_t op = 0;
    for (const auto &[name, make] : graphRecipes()) {
        dfg::Graph g = [&] {
            Tracer::Span s(tracer, "kernels.build", op);
            return make();
        }();
        sims.nodes += g.numNodes();
        Tracer::Span s(tracer, "aladdin.sim_init", op++);
        sims.by_name[name] = std::make_unique<Simulator>(std::move(g));
    }
    return sims;
}

/** What the routines of one regeneration see. */
struct Ctx
{
    Ctx(const Sims &s, Tracer &t, HostSpeed &h, HostSpeed &ph,
        std::uint64_t o = 0)
        : sims(s), tracer(t), speed(h), point_speed(ph), op(o)
    {
    }

    const Sims &sims;
    Tracer &tracer;
    /** Ticked after routines and attribute() calls: the regeneration. */
    HostSpeed &speed;
    /** Sampled right after every direct point: the points. */
    HostSpeed &point_speed;
    std::uint64_t op = 0;
    /** Host time of every direct Simulator::run, microseconds. */
    std::vector<double> point_us;
    std::vector<double> point_ns_per_op;
    /** Host time of every attribute() call, by kernel, milliseconds. */
    std::vector<std::pair<std::string, double>> attribute_ms;
    /** Cells and simulated ops of the benchmark's own sweep calls. */
    std::uint64_t cells = 0, sweep_ops = 0;
    /** Values the current routine returned (digested per routine). */
    std::vector<double> values;

    void put(double v) { values.push_back(v); }
    void put(const SimResult &r)
    {
        put(static_cast<double>(r.cycles));
        put(r.runtime_ns);
        put(r.dynamic_energy_pj);
        put(r.leakage_power_uw);
        put(r.energy_pj);
        put(r.power_mw);
        put(r.area_um2);
        put(static_cast<double>(r.ops));
        put(static_cast<double>(r.fused_ops));
        put(r.throughput_ops);
        put(r.efficiency_opj);
        put(r.lane_utilization);
        put(static_cast<double>(r.initiation_interval));
        put(r.pipelined_throughput_ops);
    }
    void put(const DesignPoint &dp)
    {
        put(dp.node_nm);
        put(dp.partition);
        put(dp.simplification);
        put(dp.chaining ? 1.0 : 0.0);
    }

    /** One direct Simulator::run, timed. */
    SimResult point(const std::string &sim, const DesignPoint &dp)
    {
        auto t0 = Clock::now();
        SimResult r;
        {
            Tracer::Span s(tracer, "aladdin.point", op);
            r = sims[sim].run(dp);
        }
        double us = 1e6 * secondsBetween(t0, Clock::now());
        point_us.push_back(us);
        point_ns_per_op.push_back(1e3 * us / static_cast<double>(r.ops));
        put(r);
        point_speed.sample();
        return r;
    }

    void attribution(const std::string &sim, aladdin::Target target)
    {
        aladdin::Attribution a;
        auto t0 = Clock::now();
        {
            Tracer::Span s(tracer, "aladdin.attribute", op);
            a = aladdin::attribute(sims[sim], table3Grid(), target);
        }
        attribute_ms.push_back({sim, 1e3 * secondsBetween(t0, Clock::now())});
        speed.tick();
        put(a.best);
        put(a.total_gain);
        put(a.csr);
        put(a.frac_cmos);
        put(a.frac_heterogeneity);
        put(a.frac_partitioning);
        put(a.frac_simplification);
    }

    void series(const std::vector<csr::ChipGain> &chips,
                const potential::PotentialModel &model, csr::Metric metric)
    {
        std::vector<csr::CsrPoint> pts;
        {
            Tracer::Span s(tracer, "csr.series", op);
            pts = csr::csrSeries(chips, model, metric);
        }
        for (const csr::CsrPoint &p : pts) {
            put(p.year);
            put(p.rel_gain);
            put(p.rel_phy);
            put(p.csr);
        }
    }
};

using Routine = std::pair<const char *, std::function<void(Ctx &)>>;

/** Fig. 14: attribute() for every kernel and both targets. */
void
fig14(Ctx &c, aladdin::Target target)
{
    for (const auto &info : kernels::kernelTable())
        c.attribution(info.abbrev, target);
}

/** Fig. 13: the S3D tables, the paper-grid sweep and its optimum. */
void
fig13(Ctx &c)
{
    for (int p : {1, 4, 16, 64, 256, 1024, 4096}) {
        for (double node : {45.0, 22.0, 10.0, 5.0}) {
            DesignPoint dp;
            dp.node_nm = node;
            dp.partition = p;
            c.point("S3D", dp);
        }
    }
    for (int s : {1, 4, 7, 10, 13}) {
        for (double node : {45.0, 22.0, 10.0, 5.0}) {
            DesignPoint dp;
            dp.node_nm = node;
            dp.partition = 64;
            dp.simplification = s;
            c.point("S3D", dp);
        }
    }
    std::vector<aladdin::SweepPoint> points;
    {
        Tracer::Span s(c.tracer, "aladdin.sweep", c.op);
        points = aladdin::runSweep(c.sims["S3D"], table3Grid());
    }
    c.cells += points.size();
    for (const auto &pt : points)
        c.sweep_ops += pt.res.ops;
    std::size_t best = aladdin::bestEfficiency(points);
    c.put(static_cast<double>(best));
    c.put(points[best].res);
}

void
videoDse(Ctx &c)
{
    for (const char *k : {"IDCT", "ENT"}) {
        c.attribution(k, aladdin::Target::Performance);
        c.attribution(k, aladdin::Target::EnergyEfficiency);
    }
    for (const char *k : {"IDCT", "ENT"}) {
        DesignPoint dp;
        dp.node_nm = 5.0;
        dp.partition = 64;
        c.point(k, dp);
    }
}

void
ablationPoints(Ctx &c)
{
    // Chaining (computation heterogeneity).
    for (const char *k : {"NWN", "AES", "RED", "S3D", "BTC"}) {
        for (double node : {45.0, 14.0, 5.0}) {
            DesignPoint dp;
            dp.node_nm = node;
            dp.partition = 16;
            dp.chaining = false;
            c.point(k, dp);
            dp.chaining = true;
            c.point(k, dp);
        }
    }
    // Memory and communication concepts.
    using aladdin::CommMode;
    using aladdin::MemoryMode;
    for (const char *k : {"TRD", "SMV", "NWN", "S3D"}) {
        for (MemoryMode mem : {MemoryMode::Simple, MemoryMode::Banked,
                               MemoryMode::Heterogeneous}) {
            for (CommMode comm :
                 {CommMode::Fifo, CommMode::Concurrent, CommMode::Dma}) {
                DesignPoint dp;
                dp.node_nm = 14.0;
                dp.partition = 16;
                dp.memory = mem;
                dp.comm = comm;
                c.point(k, dp);
            }
        }
    }
    // Simplification degrees.
    for (const char *k : {"GMM", "NWN"}) {
        for (int degree : {1, 4, 7, 10, 11, 13}) {
            DesignPoint dp;
            dp.node_nm = 14.0;
            dp.partition = 16;
            dp.simplification = degree;
            c.point(k, dp);
        }
    }
    // ASICBoost.
    for (double node : {45.0, 22.0, 10.0, 5.0}) {
        DesignPoint dp;
        dp.node_nm = node;
        dp.partition = 4;
        c.point("BTC-plain", dp);
        c.point("BTC-boost", dp);
    }
    // Algorithm-layer rewrites at 14nm, P=16.
    for (const char *k : {"DFT16", "FFT16", "conv-direct", "conv-winograd",
                          "IDCT", "IDCT-reduced"}) {
        DesignPoint dp;
        dp.node_nm = 14.0;
        dp.partition = 16;
        c.point(k, dp);
    }
}

void
putFit(Ctx &c, const accelwall::Result<accelwall::stats::PowerLawFit> &fit)
{
    c.put(fit.ok() ? 1.0 : 0.0);
    if (fit.ok()) {
        c.put(fit.value().coeff);
        c.put(fit.value().exponent);
        c.put(fit.value().r2);
    }
}

/** Fig. 3b and 3c: the synthetic corpus and its regressions. */
void
corpusFits(Ctx &c)
{
    std::vector<chipdb::ChipRecord> corpus;
    {
        Tracer::Span s(c.tracer, "chipdb.synth", c.op);
        corpus = chipdb::makeSynthCorpus();
    }
    c.put(static_cast<double>(corpus.size()));
    {
        accelwall::Result<accelwall::stats::PowerLawFit> fit =
            [&] {
                Tracer::Span s(c.tracer, "chipdb.fit", c.op);
                return chipdb::fitAreaModelChecked(corpus);
            }();
        putFit(c, fit);
    }
    chipdb::BudgetModel canonical;
    for (const auto &group : canonical.groups()) {
        if (group.min_node_nm > units::Nanometers{55.0})
            continue; // the paper fits only the four modern groups
        auto fit = [&] {
            Tracer::Span s(c.tracer, "chipdb.fit", c.op);
            return chipdb::fitTdpModelChecked(corpus, group.min_node_nm,
                                              group.max_node_nm);
        }();
        putFit(c, fit);
    }
}

/** Fig. 15 (performance) or 16 (efficiency), with bootstrap bands. */
void
projections(Ctx &c, bool efficiency)
{
    using projection::Domain;
    for (Domain d : {Domain::VideoDecoding, Domain::GpuGraphics,
                     Domain::FpgaCnn, Domain::BitcoinMining}) {
        projection::DomainStudy study = [&] {
            Tracer::Span s(c.tracer, "projection.project", c.op);
            return projection::projectDomain(d, efficiency);
        }();
        const auto &p = study.projection;
        projection::BootstrapResult boot = [&] {
            Tracer::Span s(c.tracer, "projection.bootstrap", c.op);
            return projection::bootstrapProjection(study.points,
                                                   p.phy_limit);
        }();
        c.put(static_cast<double>(p.frontier.size()));
        for (double v : {p.linear.slope, p.linear.intercept, p.linear.r2,
                         p.log.a, p.log.b, p.log.r2, p.phy_limit,
                         p.linear_limit, p.log_limit, p.best_observed,
                         p.linear_headroom, p.log_headroom,
                         boot.linear_limit.lo, boot.linear_limit.hi,
                         boot.log_limit.lo, boot.log_limit.hi})
            c.put(v);
        c.put(boot.usable);
    }
}

/** The CSR case studies: Figs. 1, 4, 8, 9 and the sensitivity rows. */
void
csrStudies(Ctx &c)
{
    potential::PotentialModel model;
    c.series(studies::miningChipGains(studies::miningAsics(), false), model,
             csr::Metric::AreaThroughput);
    c.series(studies::videoChipGains(false), model, csr::Metric::Throughput);
    c.series(studies::videoChipGains(true), model,
             csr::Metric::EnergyEfficiency);
    for (const char *net : {"AlexNet", "VGG-16"}) {
        auto designs = studies::fpgaDesignsFor(net);
        c.series(studies::fpgaChipGains(designs, false), model,
                 csr::Metric::Throughput);
        c.series(studies::fpgaChipGains(designs, true), model,
                 csr::Metric::EnergyEfficiency);
    }
    const auto &chips = studies::miningChips();
    c.series(studies::miningChipGains(chips, false), model,
             csr::Metric::AreaThroughput);
    c.series(studies::miningChipGains(chips, true), model,
             csr::Metric::EnergyEfficiency);

    std::vector<potential::PotentialModel> variants;
    for (double scale : {0.5, 2.0}) {
        potential::Calibration cal;
        cal.dyn_w_per_tx_ghz *= scale;
        variants.emplace_back(chipdb::BudgetModel(), cal);
    }
    for (double scale : {0.5, 2.0}) {
        potential::Calibration cal;
        cal.leak_w_per_tx *= scale;
        variants.emplace_back(chipdb::BudgetModel(), cal);
    }
    for (double exponent : {0.83, 0.92})
        variants.emplace_back(chipdb::BudgetModel(4.99e9, exponent));
    for (const auto &m : variants) {
        c.series(studies::miningChipGains(studies::miningAsics(), false), m,
                 csr::Metric::AreaThroughput);
        c.series(studies::videoChipGains(false), m, csr::Metric::Throughput);
        c.series(studies::videoChipGains(true), m,
                 csr::Metric::EnergyEfficiency);
    }
}

/** The accelwall-report chiplet crossover study. */
void
chipletCrossover(Ctx &c)
{
    using namespace units::literals;
    potential::PotentialModel model;
    const auto &table = accelwall::chiplet::shippedCostTable();
    accelwall::chiplet::SweepConfig cfg;
    cfg.base = potential::ChipSpec{7.0_nm, 700.0_mm2, 1.0_ghz, 300.0_w};
    cfg.chiplets = {1, 2, 4, 8};
    for (const auto &node : table.nodes)
        cfg.nodes.push_back(node.node_nm);
    auto outcome = [&] {
        Tracer::Span s(c.tracer, "chiplet.sweep", c.op);
        return accelwall::chiplet::runSweep(model, table, cfg);
    }();
    c.put(outcome.ok() ? 1.0 : 0.0);
    if (!outcome.ok())
        return;
    auto putPartition = [&](const accelwall::chiplet::PartitionResult &r) {
        for (double v : {r.die_area.raw(), r.throughput.raw(), r.power.raw(),
                         r.link_power.raw(), r.latency_penalty, r.cost.raw(),
                         r.throughput_per_usd.raw()})
            c.put(v);
    };
    putPartition(outcome.value().baseline);
    for (const auto &p : outcome.value().points) {
        c.put(p.chiplets);
        c.put(p.node_nm.raw());
        c.put(p.ok ? 1.0 : 0.0);
        if (p.ok) {
            putPartition(p.result);
            c.put(p.gain_per_usd);
        }
    }
}

const std::vector<Routine> &
routines()
{
    static const std::vector<Routine> all = {
        {"fig13", fig13},
        {"fig14a", [](Ctx &c) { fig14(c, aladdin::Target::Performance); }},
        {"fig14b",
         [](Ctx &c) { fig14(c, aladdin::Target::EnergyEfficiency); }},
        {"ablation_video_dse", videoDse},
        {"ablation_points", ablationPoints},
        {"fig03bc", corpusFits},
        {"fig15", [](Ctx &c) { projections(c, false); }},
        {"fig16", [](Ctx &c) { projections(c, true); }},
        {"csr_studies", csrStudies},
        {"chiplet_crossover", chipletCrossover},
    };
    return all;
}

/**
 * One regeneration; returns its wall time without the host-speed
 * slices run inside it, and each routine's digest.
 */
double
regenerate(Ctx &c, const std::vector<std::size_t> &order,
           std::map<std::string, std::string> &digests)
{
    auto t0 = Clock::now();
    {
        Tracer::Span s(c.tracer, "paper.regen", c.op);
        for (std::size_t i : order) {
            c.values.clear();
            routines()[i].second(c);
            Digest d;
            for (double v : c.values)
                d.add(v);
            digests[routines()[i].first] = d.hex();
            c.speed.tick();
        }
    }
    return secondsBetween(t0, Clock::now()) - c.speed.unitSliceSeconds() -
           c.point_speed.unitSliceSeconds();
}

struct Timed
{
    /** Regeneration and point times, scaled to nominal host speed. */
    std::vector<double> regen_s;
    std::vector<double> point_us;
    /**
     * Regeneration times as measured, and the host-speed factors of
     * each regeneration and of its points.
     */
    std::vector<double> raw_regen_s;
    std::vector<double> factors, point_factors;
    std::vector<double> point_ns_per_op;
    std::vector<std::pair<std::string, double>> attribute_ms;
    std::uint64_t cells = 0, sweep_ops = 0;
};

Timed
timedSection(const Sims &sims, const std::vector<std::size_t> &order,
             double seconds, Tracer &tracer, Report &report)
{
    HostSpeed speed, point_speed;
    Timed out;
    auto start = Clock::now();
    for (std::uint64_t n = 0;; ++n) {
        double elapsed = secondsBetween(start, Clock::now());
        if (elapsed >= seconds)
            break;
        Ctx c{sims, tracer, speed, point_speed, n};
        std::map<std::string, std::string> digests;
        const double raw_s = regenerate(c, order, digests);
        const double factor = speed.closeUnit();
        const double point_factor = point_speed.closeUnit();
        out.raw_regen_s.push_back(raw_s);
        out.regen_s.push_back(HostSpeed::normalize(raw_s, factor));
        out.factors.push_back(factor);
        out.point_factors.push_back(point_factor);
        for (const auto &[name, hex] : digests) {
            auto it = kRegenDigests.find(name);
            report.check(it != kRegenDigests.end() && it->second == hex,
                         "paper_regen routine " + name + " digest " + hex);
        }
        for (double us : c.point_us)
            out.point_us.push_back(HostSpeed::normalize(us, point_factor));
        out.point_ns_per_op.insert(out.point_ns_per_op.end(),
                                   c.point_ns_per_op.begin(),
                                   c.point_ns_per_op.end());
        out.attribute_ms.insert(out.attribute_ms.end(),
                                c.attribute_ms.begin(), c.attribute_ms.end());
        if (n == 0) {
            out.cells = c.cells;
            out.sweep_ops = c.sweep_ops;
        }
        report.check(c.cells == out.cells && c.sweep_ops == out.sweep_ops,
                     "cell and op counts repeat in regeneration " +
                         std::to_string(n));
    }
    return out;
}

std::vector<Metric>
endToEnd(const Timed &t, double setup_s)
{
    return {
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"throughput_per_s", "1/s", 1.0 / median(t.regen_s)},
        {"op_time_ms", "ms", median(t.point_us) / 1e3},
    };
}

} // namespace

std::map<std::string, std::string>
regenDigests()
{
    accelwall::util::setDefaultJobs(kRegenJobs);
    Tracer off(false);
    Sims sims = buildSims(off);
    HostSpeed speed, point_speed;
    Ctx c{sims, off, speed, point_speed};
    std::vector<std::size_t> order(routines().size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::map<std::string, std::string> digests;
    regenerate(c, order, digests);
    return digests;
}

Report
runPaperRegen(const Options &opts)
{
    accelwall::util::setDefaultJobs(kRegenJobs);
    Report report;
    const std::vector<std::size_t> order =
        permutation(opts.seed, routines().size());
    std::string names;
    for (std::size_t i : order)
        names += std::string(names.empty() ? "" : " ") + routines()[i].first;
    report.lines.push_back("routine order: " + names);

    Tracer off(false);
    double setup_s = 0.0;
    Sims sims = repeatSetup([&] { return buildSims(off); }, setup_s);

    Timed t = timedSection(sims, order, opts.seconds, off, report);
    report.end_to_end = endToEnd(t, setup_s);
    report.lines.push_back(
        "at nominal host speed: paper_regen_s=" +
        std::to_string(median(t.regen_s)) +
        " regenerations=" + std::to_string(t.regen_s.size()) +
        " point_eval_us_p50=" + std::to_string(median(t.point_us)) +
        " point_eval_us_p99=" + fmtP99(t.point_us) +
        " point_evals=" + std::to_string(t.point_us.size()));
    report.lines.push_back(
        "as measured: paper_regen_s=" + std::to_string(median(t.raw_regen_s)) +
        " host_factor_p10/50/90=" + fmtFactors(t.factors) +
        " point_host_factor_p10/50/90=" + fmtFactors(t.point_factors));
    if (!opts.trace)
        return report;

    // The untraced simulators go first, so peak_rss_mb compares.
    sims = {};
    Tracer tracer(true);
    double traced_setup_s = 0.0;
    Sims traced_sims =
        repeatSetup([&] { return buildSims(tracer); }, traced_setup_s);
    Timed traced = timedSection(traced_sims, order, opts.seconds, tracer,
                                report);
    addOverhead(report, report.end_to_end, endToEnd(traced, traced_setup_s));

    // attribute() minus a runSweep of the same kernel and grid.
    std::map<std::string, double> sweep_ms;
    std::vector<std::string> attributed;
    for (const auto &info : kernels::kernelTable())
        attributed.push_back(info.abbrev);
    attributed.push_back("IDCT");
    attributed.push_back("ENT");
    std::uint64_t op = 1u << 20;
    for (const std::string &k : attributed) {
        {
            Tracer::Span s(tracer, "dfg.analyze", op);
            dfg::analyze(traced_sims[k].graph());
        }
        auto t0 = Clock::now();
        {
            Tracer::Span s(tracer, "aladdin.sweep", op);
            aladdin::runSweep(traced_sims[k], table3Grid());
        }
        sweep_ms[k] = 1e3 * secondsBetween(t0, Clock::now());
        replaySweepInternals(traced_sims[k], table3Grid(), op++, tracer,
                             report);
    }
    std::vector<double> walk_ms;
    for (const auto &[k, ms] : traced.attribute_ms)
        walk_ms.push_back(ms - sweep_ms.at(k));

    Report &r = report;
    addSweepLayers(r, tracer);
    r.layers.push_back({"kernels.dfg_nodes", "count",
                        static_cast<double>(traced_sims.nodes)});
    r.layers.push_back({"aladdin.cells", "count", static_cast<double>(t.cells)});
    r.layers.push_back({"aladdin.simulated_ops", "count",
                        static_cast<double>(t.sweep_ops)});
    r.layers.push_back({"aladdin.point_ns_per_op", "ns/op",
                        median(t.point_ns_per_op)});
    addMedianUs(r, tracer, "aladdin.attribute_ms", "aladdin.attribute", 1e-3,
                "ms");
    r.layers.push_back(
        {"aladdin.attribute_walk_ms", "ms", median(walk_ms)});
    addMedianUs(r, tracer, "chipdb.synth_ms", "chipdb.synth", 1e-3, "ms");
    addMedianUs(r, tracer, "chipdb.fit_ms", "chipdb.fit", 1e-3, "ms");
    addMedianUs(r, tracer, "projection.project_ms", "projection.project",
                1e-3, "ms");
    addMedianUs(r, tracer, "projection.bootstrap_ms", "projection.bootstrap",
                1e-3, "ms");
    addMedianUs(r, tracer, "csr.series_ms", "csr.series", 1e-3, "ms");
    addMedianUs(r, tracer, "chiplet.sweep_ms", "chiplet.sweep", 1e-3, "ms");
    finishTrace(r, tracer, opts.trace_path);
    return report;
}

int
printDigests()
{
    std::cout << "inline const std::string kTable3PinnedDigest = \""
              << table3PinnedDigest() << "\";\n\n"
              << "inline const std::map<std::string, std::string> "
                 "kRegenDigests = {\n";
    for (const auto &[name, hex] : regenDigests())
        std::cout << "    {\"" << name << "\", \"" << hex << "\"},\n";
    std::cout << "};\n";
    return 0;
}

} // namespace perfbench
