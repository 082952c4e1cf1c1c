/**
 * @file
 * Spans around the library calls the benchmark makes. Each span has a
 * name, start, end, parent and an op id shared by every span of one
 * kernel sweep, regeneration or request. Spans stay in memory and are
 * written at exit as Chrome trace-event JSON (Perfetto and
 * chrome://tracing open it). A disabled tracer records nothing.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench
{

struct SpanRecord
{
    std::string name;
    /** steady_clock nanoseconds (system-wide, so shareable across
     *  processes on one host). */
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    std::uint64_t op = 0;
    int tid = 0;
};

/** Per-name totals over every recorded span. */
struct LayerTotals
{
    std::size_t calls = 0;
    double total_ms = 0.0;
    /** Duration minus the time covered by child spans. */
    double self_ms = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Closes its span on destruction (single-threaded use). */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name, std::uint64_t op);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    /** Add a span measured elsewhere (e.g. by the load generator). */
    void record(const std::string &name, std::int64_t start_ns,
                std::int64_t end_ns, std::uint64_t op, int tid,
                int parent = -1);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Durations in microseconds of every span called @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    std::map<std::string, LayerTotals> totals() const;

    /** Write Chrome trace-event JSON; false on an I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

    static std::int64_t nowNs();

  private:
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
