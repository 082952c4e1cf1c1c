/**
 * @file
 * Sample statistics, result digests and the run report every workload
 * fills.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock readings. */
double secondsBetween(Clock::time_point t0, Clock::time_point t1);

/** Samples a percentile needs beyond it before it is reported. */
constexpr std::size_t kMinTail = 10;

/**
 * Nearest-rank percentile @p p (0 < p < 100) of @p samples, or nullopt
 * when fewer than kMinTail samples lie beyond it: a p99 needs at least
 * 1,000 samples.
 */
std::optional<double> percentile(std::vector<double> samples, double p);

/** percentile(samples, 99) as text, or "n/a" when it is refused. */
std::string fmtP99(const std::vector<double> &samples);

/** Sample quantile q in [0, 1] (nearest rank, for display only). */
double quantile(std::vector<double> samples, double q);

/** Median (nearest rank); NaN for no samples (reported as a failure). */
double median(std::vector<double> samples);

/** Peak resident set size of this process in MB (ru_maxrss). */
double peakRssMb();

/** CPU time of this process, all threads, in seconds. */
struct CpuTime
{
    double user_s = 0.0;
    double system_s = 0.0;
};
CpuTime cpuTime();

/** FNV-1a 64 over the exact bytes of everything added. */
class Digest
{
  public:
    void add(double v);
    void add(std::uint64_t v);
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    void bytes(const void *p, std::size_t n);
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One named metric as printed in the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one workload run reports. */
struct Report
{
    /** Operations attempted / failed (a failed check is a failed op). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics (every run). */
    std::vector<Metric> end_to_end;
    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> layers;
    /** Human-readable lines printed above the result line. */
    std::vector<std::string> lines;

    /** Record one checked operation. */
    void check(bool ok, const std::string &what);
};

/** The value of @p name in @p metrics; nullopt when absent. */
std::optional<double> findMetric(const std::vector<Metric> &metrics,
                                 const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
