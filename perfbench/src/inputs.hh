/**
 * @file
 * Seeded workload inputs. Everything the benchmark feeds the library
 * is generated here from --seed with the benchmark's own generator, so
 * the same seed gives the same inputs on every commit and the library
 * receives only the generated values.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "aladdin/design_point.hh"
#include "dfg/graph.hh"

namespace perfbench
{

/** The seed whose table3_sweep inputs are the Table IV defaults. */
constexpr std::uint64_t kPinnedSeed = 0;

/** SplitMix64: small, fast, and fixed forever (inputs must not drift). */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n);
    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

  private:
    std::uint64_t state_;
};

/** One Table IV kernel at concrete generator sizes. */
struct KernelSpec
{
    std::string abbrev;
    /** Generator arguments in declaration order (kernels/kernels.hh). */
    std::vector<int> args;

    /** Call the kernels::make* generator with these sizes. */
    accelwall::dfg::Graph build() const;
    /** e.g. "RED(2048)". */
    std::string str() const;
};

/**
 * The 16 Table IV kernels, in Table IV order. At kPinnedSeed every
 * kernel takes its generator defaults; any other seed draws each
 * kernel's sizes from a few valid sizes close to the default.
 */
std::vector<KernelSpec> table3Kernels(std::uint64_t seed);

/** The Table III grid: 7 nodes x 20 partitions x 13 simplifications. */
accelwall::aladdin::SweepConfig table3Grid();

/** A seeded permutation of 0..n-1. */
std::vector<std::size_t> permutation(std::uint64_t seed, std::size_t n);

/** One serve_mix request, kept structured so replays can reuse it. */
struct ServeRequest
{
    enum class Kind
    {
        Sweep,
        Gains,
        Csr,
        Chiplet,
        Healthz,
    };
    Kind kind = Kind::Healthz;
    /** True for members of the hot set (repeated bodies). */
    bool hot = false;
    std::string target;
    std::string body;

    // Structured parameters (whichever the kind uses).
    std::string kernel;
    std::vector<double> nodes;
    std::vector<int> partitions;
    std::vector<int> simplifications;
    double node_nm = 0.0, area_mm2 = 0.0, freq_ghz = 1.0, tdp_w = 0.0;
    std::vector<int> chiplets;
    /** csr: per chip {node_nm, area_mm2, freq_ghz, gain}. */
    std::vector<std::vector<double>> chips;
    std::string metric;
};

/** Display name of a request kind ("sweep", "gains", ...). */
const char *kindName(ServeRequest::Kind kind);

/** The serve_mix traffic: a hot set plus the due-time schedule. */
struct ServeMix
{
    std::vector<ServeRequest> hot;
    /** Requests in due order; hot entries are copies of hot[]. */
    std::vector<ServeRequest> requests;
    /** Due time of requests[i], seconds after the run starts. */
    std::vector<double> due_s;
};

/**
 * Share of requests that repeat a hot-set body, and the hot-set size.
 * Both are assumptions, as are the fresh endpoint shares in inputs.cc;
 * README.md ("Serve traffic") gives the reason for each.
 */
constexpr double kHotShare = 0.5;
constexpr std::size_t kHotCount = 16;

/**
 * Poisson arrivals at @p rate_per_s for @p seconds, each a repeat of
 * the (seed-independent) hot set with probability kHotShare and
 * otherwise a body never seen before. The fresh bodies' endpoints,
 * sweep kernels and sweep grid sizes are dealt from seeded decks, so
 * every seed sends them in the same proportions.
 */
ServeMix serveMix(std::uint64_t seed, double rate_per_s, double seconds);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
