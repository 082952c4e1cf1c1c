#include "inputs.hh"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "kernels/kernels.hh"

namespace perfbench
{

using accelwall::dfg::Graph;
namespace kernels = accelwall::kernels;

std::uint64_t
SeedRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::size_t
SeedRng::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

double
SeedRng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace
{

/**
 * Per kernel: the generator defaults first, then nearby valid sizes.
 * The alternatives move each kernel's node count by a few percent so a
 * seed changes the inputs without changing which kernels dominate the
 * pass. FFT and SRT take powers of two only and GMM grows as n^3, so
 * they keep the default.
 */
struct SizeChoices
{
    const char *abbrev;
    std::vector<std::vector<int>> sizes;
};

const std::vector<SizeChoices> &
sizeTable()
{
    static const std::vector<SizeChoices> table = {
        {"AES", {{10}, {9}, {11}}},
        {"BFS", {{6, 3, 4}, {6, 3, 5}}},
        {"FFT", {{64}}},
        {"GMM", {{10}}},
        {"MDY", {{16, 8}, {15, 8}, {17, 8}}},
        {"KNN", {{48, 8}, {46, 8}, {50, 8}}},
        {"NWN", {{20}, {19}, {21}}},
        {"RBM", {{24, 24}, {23, 24}, {25, 24}}},
        {"RED", {{2048}, {1984}, {2112}}},
        {"SAD", {{8, 8}, {8, 7}, {8, 9}}},
        {"SRT", {{64}}},
        {"SMV", {{48, 8}, {46, 8}, {50, 8}}},
        {"SSP", {{32, 128, 6}, {32, 120, 6}, {32, 136, 6}}},
        {"S2D", {{16, 16}, {16, 15}, {16, 17}}},
        {"S3D", {{8, 8, 8}, {8, 8, 7}, {8, 8, 9}}},
        {"TRD", {{512}, {480}, {544}}},
    };
    return table;
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

std::string
numList(const std::vector<double> &v, const char *format)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + fmt(format, v[i]);
    return out + "]";
}

std::string
intList(const std::vector<int> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + std::to_string(v[i]);
    return out + "]";
}

const std::vector<double> kTable3Nodes = {45, 32, 22, 14, 10, 7, 5};

/** A contiguous run of @p len elements of @p from, at a seeded offset. */
template <typename T>
std::vector<T>
window(SeedRng &rng, const std::vector<T> &from, std::size_t len)
{
    std::size_t start = rng.below(from.size() - len + 1);
    return std::vector<T>(from.begin() + static_cast<long>(start),
                          from.begin() + static_cast<long>(start + len));
}

std::string
specJson(double node, double area, double freq, double tdp)
{
    std::string out = "{\"node_nm\": " + fmt("%.0f", node) +
                      ", \"area_mm2\": " + fmt("%.3f", area) +
                      ", \"freq_ghz\": " + fmt("%.4f", freq);
    if (tdp > 0.0)
        out += ", \"tdp_w\": " + fmt("%.2f", tdp);
    return out + "}";
}

/**
 * Deals 0..n-1 in a seeded order, reshuffled after each full deal. A
 * run's draws then hit every choice equally often, so the work of a
 * run barely depends on the seed, which only sets the order.
 */
class Deck
{
  public:
    explicit Deck(std::size_t n) : n_(n) {}

    std::size_t
    next(SeedRng &rng)
    {
        if (pos_ == order_.size()) {
            order_.resize(n_);
            std::iota(order_.begin(), order_.end(), 0);
            for (std::size_t i = n_; i > 1; --i)
                std::swap(order_[i - 1], order_[rng.below(i)]);
            pos_ = 0;
        }
        return order_[pos_++];
    }

  private:
    std::size_t n_;
    std::vector<std::size_t> order_;
    std::size_t pos_ = 0;
};

const std::vector<std::string> kServeKernels = {"RED", "FFT", "S3D", "SMV",
                                                "NWN", "AES", "TRD", "KNN"};

/** The decks one request stream deals its sweeps from. */
struct SweepDecks
{
    Deck kernel{kServeKernels.size()};
    /** Window lengths: 3 node counts x 6 partition counts x 4 simps. */
    Deck size{3 * 6 * 4};
};

/**
 * One cacheable request. Every draw includes at least one continuous
 * value (an area, a frequency, a clock), so two draws never share a
 * body: fresh requests always miss the cache.
 */
ServeRequest
drawRequest(SeedRng &rng, SweepDecks &decks, ServeRequest::Kind kind)
{
    ServeRequest r;
    r.kind = kind;
    switch (kind) {
      case ServeRequest::Kind::Sweep: {
        static const std::vector<int> parts = {1,  2,   4,   8,   16,
                                               32, 64,  128, 256, 512};
        static const std::vector<int> simps = {1, 2, 3, 4, 5, 6, 7,
                                               8, 9, 10, 11, 12, 13};
        r.kernel = kServeKernels[decks.kernel.next(rng)];
        const std::size_t size = decks.size.next(rng);
        r.nodes = window(rng, kTable3Nodes, 1 + size % 3);
        r.partitions = window(rng, parts, 3 + size / 3 % 6);
        r.simplifications = window(rng, simps, 1 + size / 18);
        r.freq_ghz = rng.uniform(0.8, 1.25);
        r.target = "/v1/sweep";
        r.body = "{\"kernel\": \"" + r.kernel +
                 "\", \"nodes\": " + numList(r.nodes, "%.0f") +
                 ", \"partitions\": " + intList(r.partitions) +
                 ", \"simplifications\": " + intList(r.simplifications) +
                 ", \"clock_ghz\": " + fmt("%.4f", r.freq_ghz) + "}";
        break;
      }
      case ServeRequest::Kind::Gains:
        r.node_nm = kTable3Nodes[rng.below(kTable3Nodes.size())];
        r.area_mm2 = rng.uniform(20.0, 800.0);
        r.freq_ghz = rng.uniform(0.5, 3.0);
        r.tdp_w = rng.uniform(10.0, 300.0);
        r.target = "/v1/gains";
        r.body = "{\"spec\": " +
                 specJson(r.node_nm, r.area_mm2, r.freq_ghz, r.tdp_w) +
                 "}";
        break;
      case ServeRequest::Kind::Csr: {
        r.metric = rng.below(2) ? "efficiency" : "throughput";
        std::size_t n = 3 + rng.below(4);
        std::string chips = "[";
        double gain = 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            double node = kTable3Nodes[rng.below(kTable3Nodes.size())];
            double area = rng.uniform(20.0, 600.0);
            double freq = rng.uniform(0.3, 2.0);
            gain *= rng.uniform(1.1, 3.0);
            r.chips.push_back({node, area, freq, gain});
            chips += (i ? ", " : "");
            chips += "{\"name\": \"c" + std::to_string(i) + "\", " +
                     specJson(node, area, freq, 0.0).substr(1);
            chips.pop_back();
            chips += ", \"gain\": " + fmt("%.4f", gain) + "}";
        }
        r.target = "/v1/csr";
        r.body = "{\"metric\": \"" + r.metric +
                 "\", \"chips\": " + chips + "]}";
        break;
      }
      case ServeRequest::Kind::Chiplet: {
        static const std::vector<int> ks = {1, 2, 4, 8, 16};
        // The monolith must be powered: with a TDP below its leakage
        // its throughput is 0, every gain_per_usd divides by 0, and the
        // query has no defined answer (README.md, "serve_mix").
        r.node_nm = kTable3Nodes[rng.below(kTable3Nodes.size())];
        r.area_mm2 = rng.uniform(100.0, 700.0);
        r.freq_ghz = 1.0;
        r.tdp_w = r.area_mm2 * rng.uniform(0.25, 0.6);
        r.chiplets = window(rng, ks, 2 + rng.below(3));
        r.nodes = window(rng, kTable3Nodes, 2 + rng.below(3));
        r.target = "/v1/chiplet";
        r.body = "{\"spec\": " +
                 specJson(r.node_nm, r.area_mm2, r.freq_ghz, r.tdp_w) +
                 ", \"chiplets\": " + intList(r.chiplets) +
                 ", \"nodes\": " + numList(r.nodes, "%.0f") + "}";
        break;
      }
      case ServeRequest::Kind::Healthz:
        r.target = "/healthz";
        break;
    }
    return r;
}

} // namespace

Graph
KernelSpec::build() const
{
    const auto &a = args;
    if (abbrev == "AES") return kernels::makeAes(a.at(0));
    if (abbrev == "BFS") return kernels::makeBfs(a.at(0), a.at(1), a.at(2));
    if (abbrev == "FFT") return kernels::makeFft(a.at(0));
    if (abbrev == "GMM") return kernels::makeGmm(a.at(0));
    if (abbrev == "MDY") return kernels::makeMdy(a.at(0), a.at(1));
    if (abbrev == "KNN") return kernels::makeKnn(a.at(0), a.at(1));
    if (abbrev == "NWN") return kernels::makeNwn(a.at(0));
    if (abbrev == "RBM") return kernels::makeRbm(a.at(0), a.at(1));
    if (abbrev == "RED") return kernels::makeRed(a.at(0));
    if (abbrev == "SAD") return kernels::makeSad(a.at(0), a.at(1));
    if (abbrev == "SRT") return kernels::makeSrt(a.at(0));
    if (abbrev == "SMV") return kernels::makeSmv(a.at(0), a.at(1));
    if (abbrev == "SSP") return kernels::makeSsp(a.at(0), a.at(1), a.at(2));
    if (abbrev == "S2D") return kernels::makeS2d(a.at(0), a.at(1));
    if (abbrev == "S3D") return kernels::makeS3d(a.at(0), a.at(1), a.at(2));
    if (abbrev == "TRD") return kernels::makeTrd(a.at(0));
    throw std::invalid_argument("no generator for kernel " + abbrev);
}

std::string
KernelSpec::str() const
{
    std::string out = abbrev + "(";
    for (std::size_t i = 0; i < args.size(); ++i)
        out += (i ? "," : "") + std::to_string(args[i]);
    return out + ")";
}

std::vector<KernelSpec>
table3Kernels(std::uint64_t seed)
{
    SeedRng rng(seed);
    std::vector<KernelSpec> out;
    for (const SizeChoices &c : sizeTable()) {
        std::size_t pick = rng.below(c.sizes.size());
        out.push_back({c.abbrev,
                       c.sizes[seed == kPinnedSeed ? 0 : pick]});
    }
    return out;
}

accelwall::aladdin::SweepConfig
table3Grid()
{
    accelwall::aladdin::SweepConfig cfg;
    cfg.nodes = kTable3Nodes;
    for (int p = 1; p <= 524288; p *= 2)
        cfg.partitions.push_back(p);
    for (int s = 1; s <= 13; ++s)
        cfg.simplifications.push_back(s);
    return cfg;
}

std::vector<std::size_t>
permutation(std::uint64_t seed, std::size_t n)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    SeedRng rng(seed ^ 0x5eed0f0dull);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

const char *
kindName(ServeRequest::Kind kind)
{
    switch (kind) {
      case ServeRequest::Kind::Sweep: return "sweep";
      case ServeRequest::Kind::Gains: return "gains";
      case ServeRequest::Kind::Csr: return "csr";
      case ServeRequest::Kind::Chiplet: return "chiplet";
      case ServeRequest::Kind::Healthz: return "healthz";
    }
    return "?";
}

ServeMix
serveMix(std::uint64_t seed, double rate_per_s, double seconds)
{
    using Kind = ServeRequest::Kind;
    // The hot set is the same for every seed, so set-up (which fills
    // it) and hit latency do not move with the seed.
    SeedRng hot_rng(0x407);
    SweepDecks hot_decks;
    ServeMix mix;
    const Kind cached[] = {Kind::Sweep, Kind::Gains, Kind::Csr,
                           Kind::Chiplet};
    for (std::size_t i = 0; i < kHotCount; ++i) {
        mix.hot.push_back(drawRequest(hot_rng, hot_decks, cached[i % 4]));
        mix.hot.back().hot = true;
    }
    SeedRng rng(seed * 0x2545f4914f6cdd1dull + 0x5e7e);
    SweepDecks decks;
    // Fresh traffic shares, dealt in blocks of 20: sweep 30%,
    // gains 25%, csr 20%, chiplet 15%, healthz 10% (README.md).
    const Kind fresh[20] = {
        Kind::Sweep,   Kind::Sweep,   Kind::Sweep,   Kind::Sweep,
        Kind::Sweep,   Kind::Sweep,   Kind::Gains,   Kind::Gains,
        Kind::Gains,   Kind::Gains,   Kind::Gains,   Kind::Csr,
        Kind::Csr,     Kind::Csr,     Kind::Csr,     Kind::Chiplet,
        Kind::Chiplet, Kind::Chiplet, Kind::Healthz, Kind::Healthz};
    Deck kinds(20);
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate_per_s;
        if (t >= seconds)
            break;
        mix.due_s.push_back(t);
        if (rng.uniform(0.0, 1.0) < kHotShare) {
            mix.requests.push_back(mix.hot[rng.below(mix.hot.size())]);
            continue;
        }
        mix.requests.push_back(
            drawRequest(rng, decks, fresh[kinds.next(rng)]));
    }
    return mix;
}

} // namespace perfbench
