#include <algorithm>
#include <cmath>
#include <cstdio>

#include "aladdin/soa_engine.hh"
#include "workloads.hh"

namespace perfbench
{

using accelwall::aladdin::CellCosts;
using accelwall::aladdin::DesignPoint;
using accelwall::aladdin::PlanScratch;
using accelwall::aladdin::ScheduleOut;
using accelwall::aladdin::SimResult;
using accelwall::aladdin::Simulator;
using accelwall::aladdin::SweepConfig;
using accelwall::aladdin::SweepPlan;

namespace
{

/** The full per-layer metric set, in BENCHMARK.json order. */
const std::vector<std::pair<const char *, const char *>> kLayers = {
    {"kernels.build_ms", "ms"},
    {"kernels.dfg_nodes", "count"},
    {"dfg.analyze_ms", "ms"},
    {"aladdin.sim_init_ms", "ms"},
    {"aladdin.sweep_ms", "ms"},
    {"aladdin.cells", "count"},
    {"aladdin.simulated_ops", "count"},
    {"aladdin.plan_lower_us", "us"},
    {"aladdin.cell_costs_us", "us"},
    {"aladdin.schedule_us_p50", "us"},
    {"aladdin.schedule_us_p99", "us"},
    {"aladdin.replay_us", "us"},
    {"aladdin.finish_us", "us"},
    {"aladdin.point_ns_per_op", "ns/op"},
    {"aladdin.attribute_ms", "ms"},
    {"aladdin.attribute_walk_ms", "ms"},
    {"chipdb.synth_ms", "ms"},
    {"chipdb.fit_ms", "ms"},
    {"projection.project_ms", "ms"},
    {"projection.bootstrap_ms", "ms"},
    {"csr.series_ms", "ms"},
    {"chiplet.sweep_ms", "ms"},
    {"util.json_parse_us", "us"},
    {"serve.parse_head_us", "us"},
    {"serve.handle_hit_us", "us"},
    {"serve.cache_lookup_us", "us"},
    {"serve.serialize_us", "us"},
    {"serve.handle_miss_us.sweep", "us"},
    {"serve.handle_miss_us.gains", "us"},
    {"serve.handle_miss_us.csr", "us"},
    {"serve.handle_miss_us.chiplet", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.shed", "count"},
    {"serve.server_time_ms_mean", "ms"},
    {"serve.gen_lag_ms_p99", "ms"},
};

bool
closeRel(double a, double b)
{
    return std::fabs(a - b) <= 1e-3 * std::max(std::fabs(a), std::fabs(b));
}

std::string
fmtNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

void
digestResult(Digest &d, const SimResult &r)
{
    d.add(static_cast<std::uint64_t>(r.cycles));
    d.add(r.runtime_ns);
    d.add(r.dynamic_energy_pj);
    d.add(r.leakage_power_uw);
    d.add(r.energy_pj);
    d.add(r.power_mw);
    d.add(r.area_um2);
    d.add(static_cast<std::uint64_t>(r.ops));
    d.add(static_cast<std::uint64_t>(r.fused_ops));
    d.add(r.throughput_ops);
    d.add(r.efficiency_opj);
    d.add(r.lane_utilization);
    d.add(static_cast<std::uint64_t>(r.initiation_interval));
    d.add(r.pipelined_throughput_ops);
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    Digest da, db;
    digestResult(da, a);
    digestResult(db, b);
    return da.value() == db.value();
}

bool
closeResult(const SimResult &a, const SimResult &b)
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return closeRel(d(a.cycles), d(b.cycles)) &&
           closeRel(a.runtime_ns, b.runtime_ns) &&
           closeRel(a.dynamic_energy_pj, b.dynamic_energy_pj) &&
           closeRel(a.leakage_power_uw, b.leakage_power_uw) &&
           closeRel(a.energy_pj, b.energy_pj) &&
           closeRel(a.power_mw, b.power_mw) &&
           closeRel(a.area_um2, b.area_um2) && a.ops == b.ops &&
           closeRel(d(a.fused_ops), d(b.fused_ops)) &&
           closeRel(a.throughput_ops, b.throughput_ops) &&
           closeRel(a.efficiency_opj, b.efficiency_opj) &&
           closeRel(a.lane_utilization, b.lane_utilization) &&
           closeRel(d(a.initiation_interval), d(b.initiation_interval)) &&
           closeRel(a.pipelined_throughput_ops, b.pipelined_throughput_ops);
}

void
replaySweepInternals(const Simulator &sim, const SweepConfig &cfg,
                     std::uint64_t op, Tracer &tracer, Report &report)
{
    std::unique_ptr<SweepPlan> plan;
    {
        Tracer::Span s(tracer, "aladdin.plan_lower", op);
        plan = std::make_unique<SweepPlan>(sim.graph(), sim.analysis());
    }
    PlanScratch scratch;
    const std::size_t n_part = std::min<std::size_t>(3, cfg.partitions.size());
    for (double node : cfg.nodes) {
        for (int simp : cfg.simplifications) {
            DesignPoint dp;
            dp.node_nm = node;
            dp.simplification = simp;
            dp.chaining = cfg.chaining;
            dp.clock_ghz = cfg.clock_ghz;
            CellCosts costs;
            {
                Tracer::Span s(tracer, "aladdin.cell_costs", op);
                costs = accelwall::aladdin::deriveCellCosts(dp);
            }
            for (std::size_t pi = 0; pi < n_part; ++pi) {
                dp.partition = cfg.partitions[pi];
                ScheduleOut sched;
                {
                    Tracer::Span s(tracer, "aladdin.schedule", op);
                    sched = accelwall::aladdin::runPlanSchedule(
                        *plan, costs, dp, scratch);
                }
                double replayed = 0.0;
                {
                    Tracer::Span s(tracer, "aladdin.replay", op);
                    replayed = accelwall::aladdin::replayDynamicEnergy(
                        scratch.issue_log, scratch.issue_log_len, costs);
                }
                SimResult res;
                {
                    Tracer::Span s(tracer, "aladdin.finish", op);
                    res = accelwall::aladdin::finishPlanCell(
                        *plan, costs, dp, scratch, sched);
                }
                SimResult oracle = sim.run(dp);
                report.check(sameResult(res, oracle) &&
                                 replayed == sched.dynamic_energy_pj,
                             "plan replay of " + dp.str());
            }
        }
    }
}

void
addMedianUs(Report &r, const Tracer &t, const std::string &metric,
            const std::string &span, double scale_from_us,
            const std::string &unit)
{
    std::vector<double> us = t.durationsUs(span);
    if (us.empty())
        return;
    r.layers.push_back({metric, unit, median(us) * scale_from_us});
}

void
addSweepLayers(Report &r, const Tracer &t)
{
    addMedianUs(r, t, "kernels.build_ms", "kernels.build", 1e-3, "ms");
    addMedianUs(r, t, "dfg.analyze_ms", "dfg.analyze", 1e-3, "ms");
    addMedianUs(r, t, "aladdin.sim_init_ms", "aladdin.sim_init", 1e-3, "ms");
    addMedianUs(r, t, "aladdin.sweep_ms", "aladdin.sweep", 1e-3, "ms");
    addMedianUs(r, t, "aladdin.plan_lower_us", "aladdin.plan_lower", 1, "us");
    addMedianUs(r, t, "aladdin.cell_costs_us", "aladdin.cell_costs", 1, "us");
    addMedianUs(r, t, "aladdin.schedule_us_p50", "aladdin.schedule", 1, "us");
    if (auto p99 = percentile(t.durationsUs("aladdin.schedule"), 99.0))
        r.layers.push_back({"aladdin.schedule_us_p99", "us", *p99});
    addMedianUs(r, t, "aladdin.replay_us", "aladdin.replay", 1, "us");
    addMedianUs(r, t, "aladdin.finish_us", "aladdin.finish", 1, "us");
}

void
finishTrace(Report &r, const Tracer &t, const std::string &path)
{
    r.lines.push_back("per-layer spans (calls, total ms, self ms):");
    for (const auto &[name, tot] : t.totals()) {
        r.lines.push_back("  " + name + "  calls=" +
                          std::to_string(tot.calls) +
                          "  total_ms=" + fmtNum(tot.total_ms) +
                          "  self_ms=" + fmtNum(tot.self_ms));
    }
    std::vector<Metric> full;
    for (const auto &[name, unit] : kLayers) {
        auto v = findMetric(r.layers, name);
        if (!v)
            r.lines.push_back(std::string("layer ") + name +
                              ": not exercised by this workload (0)");
        full.push_back({name, unit, v.value_or(0.0)});
    }
    r.layers = std::move(full);
    r.check(t.writeChromeTrace(path), "write trace " + path);
}

std::string
fmtFactors(const std::vector<double> &factors)
{
    if (factors.empty())
        return "n/a";
    return fmtNum(quantile(factors, 0.1)) + "/" +
           fmtNum(quantile(factors, 0.5)) + "/" +
           fmtNum(quantile(factors, 0.9));
}

void
addOverhead(Report &r, const std::vector<Metric> &untraced,
            const std::vector<Metric> &traced)
{
    r.lines.push_back("tracing overhead (traced - untraced):");
    for (const Metric &m : untraced) {
        auto tv = findMetric(traced, m.name);
        if (!tv)
            continue;
        double diff = *tv - m.value;
        r.lines.push_back("  " + m.name + ": " + fmtNum(diff) + " " +
                          m.unit + " (" +
                          fmtNum(m.value != 0.0 ? 100.0 * diff / m.value
                                                : 0.0) +
                          "%)");
    }
}

} // namespace perfbench
