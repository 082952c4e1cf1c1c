/**
 * @file
 * The three benchmark workloads and the helpers they share. See
 * README.md in this directory for why each exists and what it
 * measures.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aladdin/design_point.hh"
#include "aladdin/simulator.hh"
#include "hostspeed.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench
{

/** Thread counts, fixed through public calls (never ACCELWALL_JOBS). */
constexpr int kSweepJobs = 1;     ///< SweepOptions::jobs (table3_sweep)
constexpr int kRegenJobs = 1;     ///< util::setDefaultJobs (paper_regen)
constexpr int kServeWorkers = 2;  ///< ServerOptions::workers
constexpr int kServeSweepJobs = 1; ///< ServiceOptions::sweep_jobs
constexpr int kServeSenders = 2;  ///< generator sender threads

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 51;

/**
 * Run the set-up @p build kSetupReps times and return the last result.
 * The previous result is dropped before each repetition, outside the
 * timing, so set-ups never overlap. A host-speed slice follows each
 * repetition; @p median_s gets the median time at nominal host speed.
 */
template <typename Build>
auto
repeatSetup(Build build, double &median_s)
{
    HostSpeed speed;
    std::vector<double> seconds;
    decltype(build()) last{};
    for (int rep = 0; rep < kSetupReps; ++rep) {
        last = {};
        auto t0 = Clock::now();
        last = build();
        const double raw_s = secondsBetween(t0, Clock::now());
        speed.sample();
        seconds.push_back(HostSpeed::normalize(raw_s, speed.closeUnit()));
    }
    median_s = median(seconds);
    return last;
}

/**
 * Open-loop request rate of serve_mix. About a third of the rate at
 * which the backlog starts to grow on the reference host (see
 * README.md, "Sizing").
 */
constexpr double kServeRate = 300.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace output of a traced run. */
    std::string trace_path;
    /** This binary (argv[0]), which serve_mix re-runs as its generator. */
    std::string self;
};

Report runTable3Sweep(const Options &opts);
Report runPaperRegen(const Options &opts);
Report runServeMix(const Options &opts);

/** table3_sweep's all-cell digest at kPinnedSeed (one pass). */
std::string table3PinnedDigest();

/** Print src/expected.hh's digest tables as computed by this build. */
int printDigests();

/** The serve_mix load-generator process (perfbench --generator ...). */
int generatorMain(int argc, char **argv);

/**
 * The serve_mix output gate: a 200 whose body is byte-identical to the
 * uncached Service::handle body (/healthz's live in-flight gauge
 * aside).
 */
bool responseMatches(int status, const std::string &body,
                     const std::string &expected);

/**
 * Open-loop latency of one request: from its due time (not its send
 * time) to the full response. A failed request counts as over any
 * limit.
 */
double requestLatencyMs(std::int64_t due_ns, std::int64_t end_ns,
                        int status);

/**
 * Generator lags (ms) of the requests whose sender slept until the due
 * time; @p lag_ms holds -1 for the others.
 */
std::vector<double> sleptLags(const std::vector<double> &lag_ms);

/** Request counters scraped from the server's GET /metrics. */
struct Scrape
{
    double hits = 0, misses = 0, evictions = 0, shed = 0;
    /** accelwall_request_duration_seconds: read + handle + serialize. */
    double time_sum_s = 0, time_count = 0;
};

/** Read the Scrape counters out of a /metrics exposition body. */
Scrape parseScrape(const std::string &body);

/** The counters of @p after minus those of @p before. */
Scrape scrapeDelta(const Scrape &before, const Scrape &after);

/**
 * The server's mean wall time per request (read, handle and
 * serialize), from the /metrics deltas across a run.
 */
double handlerMsMean(const Scrape &delta);

/** Fold every SimResult field into @p d. */
void digestResult(Digest &d, const accelwall::aladdin::SimResult &r);

/** Bit-for-bit equality of every SimResult field. */
bool sameResult(const accelwall::aladdin::SimResult &a,
                const accelwall::aladdin::SimResult &b);

/** Every SimResult field within the sweep's 0.1% plateau tolerance. */
bool closeResult(const accelwall::aladdin::SimResult &a,
                 const accelwall::aladdin::SimResult &b);

/**
 * Replay the calls runSweepChecked makes internally through their
 * public functions (SweepPlan, deriveCellCosts, runPlanSchedule,
 * replayDynamicEnergy, finishPlanCell), traced, on every chain of
 * @p cfg at its first three partitions. Checks each replayed cell
 * against Simulator::run into @p report.
 */
void replaySweepInternals(const accelwall::aladdin::Simulator &sim,
                                 const accelwall::aladdin::SweepConfig &cfg,
                                 std::uint64_t op, Tracer &tracer,
                                 Report &report);

/** Add the per-layer time metric "name" = median of span durations. */
void addMedianUs(Report &r, const Tracer &t, const std::string &metric,
                 const std::string &span, double scale_from_us,
                 const std::string &unit);

/**
 * Add the sweep-path layer times (kernel build, analysis, Simulator
 * construction, sweep, and the replayed plan-engine calls) from the
 * spans recorded so far.
 */
void addSweepLayers(Report &r, const Tracer &t);

/**
 * Close a traced run: print the per-layer self-time table, report
 * every per-layer metric (a layer this workload never calls as 0,
 * marked "not exercised") and write the Chrome trace to @p path.
 */
void finishTrace(Report &r, const Tracer &t, const std::string &path);

/** Host-speed factors as "p10/p50/p90" (HostSpeed::closeUnit()). */
std::string fmtFactors(const std::vector<double> &factors);

/** Report the traced-minus-untraced difference of each end-to-end
 *  metric. */
void addOverhead(Report &r, const std::vector<Metric> &untraced,
                 const std::vector<Metric> &traced);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
