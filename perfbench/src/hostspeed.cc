#include "hostspeed.hh"

#include <chrono>
#include <cstdint>
#include <ctime>

namespace perfbench
{

namespace
{

/** Iterations of the eight chains in one slice (~0.5 ms). */
constexpr int kSliceIters = 50'000;

/** Keeps the loop's result alive so the compiler cannot drop it. */
volatile std::uint64_t g_sink = 0;

/**
 * Eight independent 64-bit multiply-xorshift chains. Each chain is a
 * dependency chain, but the eight interleave, so the loop issues as
 * many multiplies as the core lets it: it slows when another thread
 * competes for the core, as the library's code does. A single chain
 * would not (it waits on its own multiply latency).
 */
std::uint64_t
referenceLoop(std::uint64_t seed)
{
    std::uint64_t x[8];
    for (int k = 0; k < 8; ++k)
        x[k] = seed + static_cast<std::uint64_t>(k);
    for (int i = 0; i < kSliceIters; ++i) {
        for (std::uint64_t &v : x) {
            v = v * 6364136223846793005ull + 1442695040888963407ull;
            v ^= v >> 29;
        }
    }
    std::uint64_t out = 0;
    for (std::uint64_t v : x)
        out ^= v;
    return out;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

} // namespace

double
HostSpeed::now() const
{
    return clock_ == Clock::Wall ? wallSeconds() : threadCpuSeconds();
}

void
HostSpeed::sample()
{
    const double t0 = now();
    g_sink = referenceLoop(g_sink + slices_);
    unit_s_ += now() - t0;
    ++unit_n_;
    ++slices_;
    last_end_ = wallSeconds();
}

void
HostSpeed::tick()
{
    if (last_end_ < 0.0 || wallSeconds() - last_end_ >= kTickS)
        sample();
}

double
HostSpeed::closeUnit()
{
    if (unit_n_ > 0)
        last_factor_ =
            unit_s_ / static_cast<double>(unit_n_) / kNominalSliceS;
    unit_s_ = 0.0;
    unit_n_ = 0;
    return last_factor_;
}

} // namespace perfbench
