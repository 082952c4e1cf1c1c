#include "stats.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench
{

double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    std::size_t n = samples.size();
    if (n == 0 || !(p > 0.0 && p < 100.0))
        return std::nullopt;
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::max<std::size_t>(rank, 1);
    if (n - rank < kMinTail)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<long>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::string
fmtP99(const std::vector<double> &samples)
{
    auto p99 = percentile(samples, 99.0);
    return p99 ? std::to_string(*p99) : std::string("n/a");
}

double
quantile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    return samples[static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1))];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return std::nan("");
    std::size_t mid = (samples.size() - 1) / 2;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<long>(mid),
                     samples.end());
    return samples[mid];
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

CpuTime
cpuTime()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return {s(ru.ru_utime), s(ru.ru_stime)};
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(std::uint64_t v)
{
    bytes(&v, sizeof v);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failed <= 20)
            lines.push_back("MISMATCH: " + what);
    }
}

std::optional<double>
findMetric(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    return std::nullopt;
}

} // namespace perfbench
