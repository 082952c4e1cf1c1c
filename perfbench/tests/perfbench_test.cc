/**
 * @file
 * The benchmark's own tests: seeded inputs, the percentile rule, the
 * output gates, open-loop latency accounting, the serve metrics read
 * from /metrics, the host-speed scaling and the repeated set-up. Run with
 * `python3 perfbench/run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "hostspeed.hh"
#include "inputs.hh"
#include "kernels/kernels.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

std::string
describe(const std::vector<KernelSpec> &specs)
{
    std::string out;
    for (const KernelSpec &s : specs)
        out += s.str() + " ";
    return out;
}

std::string
describe(const ServeMix &mix)
{
    std::string out;
    for (std::size_t i = 0; i < mix.requests.size(); ++i)
        out += std::to_string(mix.due_s[i]) + mix.requests[i].target +
               mix.requests[i].body + "\n";
    return out;
}

TEST(Inputs, SameSeedSameInputsOtherSeedDifferent)
{
    EXPECT_EQ(describe(table3Kernels(7)), describe(table3Kernels(7)));
    EXPECT_NE(describe(table3Kernels(7)), describe(table3Kernels(8)));
    EXPECT_EQ(describe(serveMix(7, 300.0, 2.0)),
              describe(serveMix(7, 300.0, 2.0)));
    EXPECT_NE(describe(serveMix(7, 300.0, 2.0)),
              describe(serveMix(8, 300.0, 2.0)));
    EXPECT_EQ(permutation(7, 10), permutation(7, 10));
    EXPECT_NE(permutation(7, 10), permutation(8, 10));
}

TEST(Inputs, PinnedSeedReproducesTableIvDefaults)
{
    std::vector<KernelSpec> specs = table3Kernels(kPinnedSeed);
    const auto &table = accelwall::kernels::kernelTable();
    ASSERT_EQ(specs.size(), table.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_EQ(specs[i].abbrev, table[i].abbrev);
        accelwall::dfg::Graph ours = specs[i].build();
        accelwall::dfg::Graph dflt =
            accelwall::kernels::makeKernel(table[i].abbrev);
        EXPECT_EQ(ours.numNodes(), dflt.numNodes()) << specs[i].str();
        EXPECT_EQ(ours.numEdges(), dflt.numEdges()) << specs[i].str();
    }
    auto grid = table3Grid();
    EXPECT_EQ(grid.nodes.size() * grid.partitions.size() *
                  grid.simplifications.size(),
              1820u);
}

TEST(Inputs, FreshServeBodiesNeverRepeat)
{
    ServeMix mix = serveMix(3, 300.0, 5.0);
    std::map<std::string, int> seen;
    for (const ServeRequest &r : mix.requests) {
        if (!r.hot && !r.body.empty()) {
            EXPECT_EQ(++seen[r.body], 1) << r.body;
        }
    }
}

TEST(Inputs, EverySeedSendsTheSameFreshShares)
{
    // Dealt in blocks of 20 (6 sweep, 5 gains, 4 csr, 3 chiplet,
    // 2 healthz) and sweep kernels in laps of 8: whatever the seed, each
    // count is its share of the fresh total within one block or lap.
    for (std::uint64_t seed : {1u, 2u, 99u}) {
        ServeMix mix = serveMix(seed, 300.0, 10.0);
        std::map<std::string, double> kinds, kernels;
        double fresh = 0, sweeps = 0;
        for (const ServeRequest &r : mix.requests) {
            if (r.hot)
                continue;
            ++fresh;
            ++kinds[kindName(r.kind)];
            if (r.kind == ServeRequest::Kind::Sweep) {
                ++sweeps;
                ++kernels[r.kernel];
            }
        }
        const std::map<std::string, double> shares = {
            {"sweep", 6}, {"gains", 5}, {"csr", 4}, {"chiplet", 3},
            {"healthz", 2}};
        for (const auto &[kind, per_block] : shares)
            EXPECT_NEAR(kinds[kind], fresh * per_block / 20, per_block)
                << kind << " seed " << seed;
        ASSERT_EQ(kernels.size(), 8u);
        for (const auto &[kernel, n] : kernels)
            EXPECT_NEAR(n, sweeps / 8, 1.0) << kernel << " seed " << seed;
    }
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond)
{
    std::vector<double> v(999);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i);
    EXPECT_FALSE(percentile(v, 99.0).has_value());
    v.push_back(999.0);
    ASSERT_TRUE(percentile(v, 99.0).has_value());
    EXPECT_EQ(*percentile(v, 99.0), 989.0);
    std::vector<double> small(19, 1.0);
    EXPECT_FALSE(percentile(small, 50.0).has_value());
    small.push_back(1.0);
    EXPECT_TRUE(percentile(small, 50.0).has_value());
}

TEST(Gate, FailsOnOneFlippedDigestBit)
{
    accelwall::aladdin::SimResult a;
    a.cycles = 100;
    a.runtime_ns = 123.456;
    a.energy_pj = 7.0;
    accelwall::aladdin::SimResult b = a;
    EXPECT_TRUE(sameResult(a, b));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &b.runtime_ns, sizeof bits);
    bits ^= 1;
    std::memcpy(&b.runtime_ns, &bits, sizeof bits);
    EXPECT_FALSE(sameResult(a, b));
    EXPECT_TRUE(closeResult(a, b));
    b.energy_pj *= 1.01;
    EXPECT_FALSE(closeResult(a, b));

    Digest da, db;
    digestResult(da, a);
    digestResult(db, b);
    EXPECT_NE(da.hex(), db.hex());
}

TEST(Gate, FailsOnOneAlteredServeBody)
{
    std::string body = "{\"kernel\": \"RED\", \"cells\": [1, 2]}";
    EXPECT_TRUE(responseMatches(200, body, body));
    std::string altered = body;
    altered[altered.size() - 3] = '3';
    EXPECT_FALSE(responseMatches(200, altered, body));
    EXPECT_FALSE(responseMatches(503, body, body));
    EXPECT_TRUE(responseMatches(
        200, "{\"status\": \"ok\", \"inflight\": 2}",
        "{\"status\": \"ok\", \"inflight\": 0}"));
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime)
{
    // Due at 0, sent 5 ms late behind a stalled request, answered 1 ms
    // after sending: the stall counts.
    EXPECT_DOUBLE_EQ(requestLatencyMs(0, 6'000'000, 200), 6.0);
    EXPECT_GT(requestLatencyMs(0, 1'000'000, 503), 1e6);
    ServeMix mix = serveMix(1, 300.0, 5.0);
    ASSERT_FALSE(mix.due_s.empty());
    for (std::size_t i = 1; i < mix.due_s.size(); ++i)
        EXPECT_LE(mix.due_s[i - 1], mix.due_s[i]);
    double rate = static_cast<double>(mix.due_s.size()) / 5.0;
    EXPECT_NEAR(rate, 300.0, 30.0);
}

TEST(OpenLoop, GeneratorLagCountsOnlyRequestsThatSlept)
{
    // -1: the sender was already late and sent without sleeping.
    EXPECT_EQ(sleptLags({0.2, -1.0, 3.0, -1.0}),
              (std::vector<double>{0.2, 3.0}));
}

TEST(Serve, ServerCountersAreDeltasAcrossTheRun)
{
    const std::string before =
        "# HELP accelwall_request_duration_seconds Request handling\n"
        "accelwall_request_duration_seconds_bucket{le=\"0.001\"} 9\n"
        "accelwall_request_duration_seconds_sum 0.5\n"
        "accelwall_request_duration_seconds_count 10\n"
        "accelwall_cache_hits_total 4\n"
        "accelwall_cache_misses_total 6\n";
    const std::string after =
        "accelwall_request_duration_seconds_sum 2.5\n"
        "accelwall_request_duration_seconds_count 1010\n"
        "accelwall_cache_hits_total 504\n"
        "accelwall_cache_misses_total 506\n"
        "accelwall_cache_evictions_total 3\n";
    Scrape d = scrapeDelta(parseScrape(before), parseScrape(after));
    EXPECT_DOUBLE_EQ(d.time_count, 1000.0);
    EXPECT_DOUBLE_EQ(handlerMsMean(d), 2.0);
    EXPECT_DOUBLE_EQ(d.hits / (d.hits + d.misses), 0.5);
    EXPECT_DOUBLE_EQ(d.evictions, 3.0);
}

TEST(HostSpeed, ScalesEachUnitByItsOwnSlices)
{
    // Twice the nominal slice time means a host at half speed: 0.3 s
    // measured there is 0.15 s at nominal speed.
    EXPECT_DOUBLE_EQ(HostSpeed::normalize(0.3, 2.0), 0.15);

    HostSpeed speed;
    EXPECT_DOUBLE_EQ(speed.closeUnit(), 1.0); // no slice yet
    speed.sample();
    speed.sample();
    const double slices_s = speed.unitSliceSeconds();
    ASSERT_GT(slices_s, 0.0);
    const double factor = speed.closeUnit();
    EXPECT_DOUBLE_EQ(factor, slices_s / 2.0 / HostSpeed::kNominalSliceS);
    EXPECT_EQ(speed.unitSliceSeconds(), 0.0);
    // A unit without a slice of its own keeps the previous factor.
    EXPECT_DOUBLE_EQ(speed.closeUnit(), factor);
    EXPECT_EQ(speed.slices(), 2u);
}

TEST(HostSpeed, TickSamplesAtMostOncePerInterval)
{
    HostSpeed speed(HostSpeed::Clock::ThreadCpu);
    speed.tick();
    speed.tick();
    EXPECT_EQ(speed.slices(), 1u);
    EXPECT_GT(speed.unitSliceSeconds(), 0.0);
}

TEST(Setup, EachRepetitionDropsThePreviousResultFirst)
{
    int live = 0, most = 0, built = 0;
    struct Counted
    {
        int &live;
        explicit Counted(int &l) : live(l) { ++live; }
        ~Counted() { --live; }
    };
    double median_s = -1.0;
    std::unique_ptr<Counted> last = repeatSetup(
        [&] {
            auto c = std::make_unique<Counted>(live);
            most = std::max(most, live);
            ++built;
            return c;
        },
        median_s);
    EXPECT_EQ(built, kSetupReps);
    EXPECT_EQ(most, 1);
    EXPECT_EQ(live, 1);
    EXPECT_GE(median_s, 0.0);
}

} // namespace
} // namespace perfbench
