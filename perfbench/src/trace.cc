#include "trace.hh"

#include <algorithm>
#include <fstream>

#include "util/json.hh"

namespace perfbench
{

std::int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

Tracer::Span::Span(Tracer &tracer, const char *name, std::uint64_t op)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    SpanRecord rec;
    rec.name = name;
    rec.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    rec.op = op;
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back(std::move(rec));
    tracer_.open_.push_back(index_);
    tracer_.spans_.back().start_ns = nowNs();
}

Tracer::Span::~Span()
{
    if (index_ < 0)
        return;
    tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = nowNs();
    tracer_.open_.pop_back();
}

void
Tracer::record(const std::string &name, std::int64_t start_ns,
               std::int64_t end_ns, std::uint64_t op, int tid, int parent)
{
    if (!enabled_)
        return;
    spans_.push_back({name, start_ns, end_ns, parent, op, tid});
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRecord &s : spans_) {
        if (s.name == name)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                          1e3);
    }
    return out;
}

std::map<std::string, LayerTotals>
Tracer::totals() const
{
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const SpanRecord &s : spans_) {
        if (s.parent >= 0) {
            child_ms[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        }
    }
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        LayerTotals &t = out[s.name];
        ++t.calls;
        t.total_ms += ms;
        t.self_ms += ms - child_ms[i];
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const SpanRecord &s : spans_)
        origin = std::min(origin, s.start_ns);
    accelwall::JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        w.beginObject();
        w.key("name").value(s.name);
        w.key("cat").value(s.name.substr(0, s.name.find('.')));
        w.key("ph").value("X");
        w.key("ts").value(static_cast<double>(s.start_ns - origin) / 1e3);
        w.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) /
                           1e3);
        w.key("pid").value(1);
        w.key("tid").value(s.tid);
        w.key("args").beginObject();
        w.key("id").value(static_cast<unsigned long long>(i));
        w.key("parent").value(s.parent);
        w.key("op").value(static_cast<unsigned long long>(s.op));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::ofstream out(path);
    out << w.str() << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
