/**
 * @file
 * serve_mix: the in-process serve::Server on loopback, driven open-loop
 * by a separate load-generator process (this binary, --generator) at a
 * fixed Poisson rate. Client latency is timed from each request's due
 * time; the gated time per request is the server's user CPU time.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>

#include "aladdin/sweep.hh"
#include "chiplet/sweep.hh"
#include "csr/csr.hh"
#include "dfg/analysis.hh"
#include "inputs.hh"
#include "kernels/kernels.hh"
#include "potential/model.hh"
#include "serve/client.hh"
#include "serve/http.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "util/json.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{

namespace serve = accelwall::serve;
namespace aladdin = accelwall::aladdin;
namespace units = accelwall::units;
using accelwall::JsonValue;
using accelwall::JsonWriter;

namespace
{

constexpr const char *kHost = "127.0.0.1";
constexpr int kRequestDeadlineMs = 10000;
/** The generator spins for the last stretch before a due time. */
constexpr std::int64_t kSpinNs = 1'000'000;
/**
 * The client latencies are void when the generator's lag p99 is not
 * under this share of their p50: then the generator's own lateness,
 * not the server, set them.
 */
constexpr double kVoidLagShare = 0.5;

/**
 * Pin the calling thread, and so every thread it starts later (the
 * server's acceptor and handlers, the host-speed sampler), to the first
 * CPU this process may use. Returns the other usable CPUs, where the
 * generator runs; empty when there is only one. The sampler then times
 * its slices on the core the handlers use, so the host-speed factor
 * sees their state, and the handlers stop migrating between vCPUs.
 */
std::vector<int>
pinToFirstCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return {};
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    }
    if (cpus.size() < 2)
        return {};
    cpu_set_t first;
    CPU_ZERO(&first);
    CPU_SET(cpus[0], &first);
    if (sched_setaffinity(0, sizeof first, &first) != 0)
        return {};
    return std::vector<int>(cpus.begin() + 1, cpus.end());
}

/** Restrict this thread to @p cpus (no-op for an empty list). */
void
pinTo(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) {
        if (c >= 0 && c < CPU_SETSIZE)
            CPU_SET(c, &set);
    }
    if (CPU_COUNT(&set) > 0)
        sched_setaffinity(0, sizeof set, &set);
}

std::string
cpuList(const std::vector<int> &cpus)
{
    std::string out;
    for (int c : cpus)
        out += (out.empty() ? "" : ",") + std::to_string(c);
    return out;
}

serve::ServerOptions
serverOptions()
{
    serve::ServerOptions o;
    o.host = kHost;
    o.port = 0;
    o.workers = kServeWorkers;
    o.service.sweep_jobs = kServeSweepJobs;
    return o;
}

serve::ServiceOptions
oracleOptions()
{
    serve::ServiceOptions o = serverOptions().service;
    o.cache_entries = 0;
    return o;
}

const char *
methodOf(const ServeRequest &r)
{
    return r.kind == ServeRequest::Kind::Healthz ? "GET" : "POST";
}

serve::HttpRequest
toHttp(const ServeRequest &r)
{
    serve::HttpRequest h;
    h.method = methodOf(r);
    h.target = r.target;
    h.version = "HTTP/1.1";
    h.body = r.body;
    return h;
}

/** The head exactly as serve::httpRequest() sends it. */
std::string
wireHead(const ServeRequest &r)
{
    std::string head = std::string(methodOf(r)) + " " + r.target +
                       " HTTP/1.1\r\nHost: " + kHost + "\r\n";
    if (!r.body.empty())
        head += "Content-Type: application/json\r\n";
    head += "Content-Length: " + std::to_string(r.body.size()) +
            "\r\nConnection: close\r\n\r\n";
    return head;
}

/**
 * Start a server and fill its cache with the hot set. The fill calls
 * the server's own Service, which shares its cache, so set-up time is
 * the server's work and not loopback wake-ups.
 */
std::unique_ptr<serve::Server>
startServer(const ServeMix &mix, Tracer &tracer, Report &report)
{
    auto server = std::make_unique<serve::Server>(serverOptions());
    {
        Tracer::Span s(tracer, "serve.start", 0);
        auto started = server->start();
        report.check(started.ok(), "server start");
        if (!started.ok())
            return nullptr;
    }
    for (std::size_t i = 0; i < mix.hot.size(); ++i) {
        Tracer::Span s(tracer, "serve.fill", i);
        serve::HttpResponse res = server->service().handle(toHttp(mix.hot[i]));
        report.check(res.status == 200, "hot-set fill " + mix.hot[i].target);
    }
    return server;
}

Scrape
scrape(int port, Report &report)
{
    auto res = serve::httpRequest(kHost, port, "GET", "/metrics", "",
                                  kRequestDeadlineMs);
    report.check(res.ok() && res.value().status == 200, "GET /metrics");
    return res.ok() ? parseScrape(res.value().body) : Scrape{};
}

/** What the generator reported for one run. */
struct GenResult
{
    bool ok = false;
    std::uint64_t attempted = 0, failed = 0;
    double elapsed_s = 0;
    std::vector<double> latency_ms;
    /** Per request; -1 when its sender was already late (no sleep). */
    std::vector<double> lag_ms;
    std::vector<std::int64_t> start_ns, end_ns;
    std::vector<int> sender;
    std::vector<std::string> lines;
};

/**
 * Run the generator process against @p port, on @p cpus when not empty,
 * and collect its report.
 */
GenResult
runGenerator(int port, const Options &opts, const std::vector<int> &cpus)
{
    GenResult g;
    int fds[2];
    if (pipe(fds) != 0)
        return g;
    std::vector<std::string> args = {
        opts.self,    "--generator",
        "--port",     std::to_string(port),
        "--seed",     std::to_string(opts.seed),
        "--seconds",  std::to_string(opts.seconds),
        "--rate",     std::to_string(kServeRate)};
    if (!cpus.empty()) {
        args.push_back("--cpus");
        args.push_back(cpuList(cpus));
    }
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    int rc = posix_spawn(&pid, opts.self.c_str(), &actions, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    if (rc == 0) {
        char buf[65536];
        ssize_t n = 0;
        while ((n = read(fds[0], buf, sizeof buf)) > 0)
            out.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return g;

    auto parsed = accelwall::parseJson(out);
    if (!parsed.ok() || !parsed.value().isObject())
        return g;
    const JsonValue &root = parsed.value();
    auto num = [&](const char *k) { return root.find(k)->asNumber(); };
    auto nums = [&](const char *k) {
        std::vector<double> v;
        for (const JsonValue &x : root.find(k)->asArray())
            v.push_back(x.asNumber());
        return v;
    };
    g.attempted = static_cast<std::uint64_t>(num("attempted"));
    g.failed = static_cast<std::uint64_t>(num("failed"));
    g.elapsed_s = num("elapsed_s");
    g.latency_ms = nums("latency_ms");
    g.lag_ms = nums("lag_ms");
    for (double v : nums("start_ns"))
        g.start_ns.push_back(static_cast<std::int64_t>(v));
    for (double v : nums("end_ns"))
        g.end_ns.push_back(static_cast<std::int64_t>(v));
    for (double v : nums("sender"))
        g.sender.push_back(static_cast<int>(v));
    for (const JsonValue &x : root.find("lines")->asArray())
        g.lines.push_back(x.asString());
    g.ok = true;
    return g;
}

/** The server process's CPU time across a run, without the sampler's. */
struct ServerCpu
{
    CpuTime cpu;
    /** Host-speed factor over the run (HostSpeed::closeUnit()). */
    double factor = 1.0;
    std::size_t slices = 0;
};

/**
 * The wall rate is the open-loop schedule's rate unless requests fail
 * or the server falls behind it. The time per request is the server's
 * user-space CPU time at nominal host speed: what its code costs,
 * without the waits and the kernel time that a busy host stretches
 * (README.md).
 */
std::vector<Metric>
endToEnd(const GenResult &g, const Scrape &delta, const ServerCpu &server,
         double setup_s)
{
    return {
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"throughput_per_s", "1/s",
         static_cast<double>(g.attempted - g.failed) / g.elapsed_s},
        {"op_time_ms", "ms",
         1e3 * HostSpeed::normalize(server.cpu.user_s, server.factor) /
             delta.time_count},
    };
}

/**
 * Run @p work while a thread of this process times a host-speed slice
 * every tick, in its own CPU time (the server's metric is CPU time).
 * @p server gets the run's factor and the sampler thread's user CPU
 * time, which the caller takes out of the process's.
 */
template <typename Work>
void
sampleHostSpeedDuring(Work work, ServerCpu &server, double &sampler_user_s)
{
    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        HostSpeed speed(HostSpeed::Clock::ThreadCpu);
        while (!stop.load()) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(HostSpeed::kTickS));
            speed.sample();
        }
        server.factor = speed.closeUnit();
        server.slices = speed.slices();
        struct rusage ru{};
        getrusage(RUSAGE_THREAD, &ru);
        sampler_user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                         static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    });
    try {
        work();
    } catch (...) {
        stop = true;
        sampler.join();
        throw;
    }
    stop = true;
    sampler.join();
}

/**
 * One timed section: the generator run, the /metrics deltas across it
 * and the CPU time this (the server's) process spent during it.
 */
GenResult
timedSection(serve::Server &server, const Options &opts,
             const std::vector<int> &generator_cpus, Scrape &delta,
             ServerCpu &server_cpu, Report &report)
{
    Scrape before = scrape(server.port(), report);
    GenResult g;
    double sampler_user_s = 0.0;
    const CpuTime cpu0 = cpuTime();
    sampleHostSpeedDuring(
        [&] { g = runGenerator(server.port(), opts, generator_cpus); },
        server_cpu, sampler_user_s);
    const CpuTime cpu1 = cpuTime();
    server_cpu.cpu.user_s = cpu1.user_s - cpu0.user_s - sampler_user_s;
    server_cpu.cpu.system_s = cpu1.system_s - cpu0.system_s;
    Scrape after = scrape(server.port(), report);
    report.check(g.ok, "load generator run");
    if (g.ok) {
        report.attempted += g.attempted;
        report.failed += g.failed;
        for (const std::string &line : g.lines)
            report.lines.push_back(line);
    }
    delta = scrapeDelta(before, after);
    return g;
}

/**
 * The calls the server makes, replayed through their public functions
 * on the run's own requests.
 */
void
replay(const ServeMix &mix, Tracer &tracer, Report &r)
{
    serve::Service cached(serverOptions().service);
    serve::Service uncached(oracleOptions());
    accelwall::potential::PotentialModel model;
    for (const ServeRequest &h : mix.hot)
        cached.handle(toHttp(h));

    std::uint64_t cells = 0, ops = 0, nodes = 0;
    for (std::size_t i = 0; i < mix.requests.size(); ++i) {
        const ServeRequest &q = mix.requests[i];
        const std::string head = wireHead(q);
        const serve::HttpRequest http = toHttp(q);
        {
            Tracer::Span s(tracer, "serve.parse_head", i);
            (void)serve::parseRequestHead(head);
        }
        if (!q.body.empty()) {
            Tracer::Span s(tracer, "util.json_parse", i);
            (void)accelwall::parseJson(q.body);
        }
        if (q.hot) {
            {
                Tracer::Span s(tracer, "serve.cache_lookup", i);
                cached.cache().lookup(q.target, q.body);
            }
            serve::HttpResponse res;
            {
                Tracer::Span s(tracer, "serve.handle_hit", i);
                res = cached.handle(http);
            }
            Tracer::Span s(tracer, "serve.serialize", i);
            serve::serializeResponse(res);
            continue;
        }
        if (q.kind == ServeRequest::Kind::Healthz)
            continue;
        std::string span = std::string("serve.handle_miss.") + kindName(q.kind);
        {
            Tracer::Span s(tracer, span.c_str(), i);
            uncached.handle(http);
        }
        switch (q.kind) {
          case ServeRequest::Kind::Sweep: {
            auto g = [&] {
                Tracer::Span s(tracer, "kernels.build", i);
                return accelwall::kernels::makeKernel(q.kernel);
            }();
            nodes += g.numNodes();
            {
                Tracer::Span s(tracer, "dfg.analyze", i);
                accelwall::dfg::analyze(g);
            }
            auto sim = [&] {
                Tracer::Span s(tracer, "aladdin.sim_init", i);
                return std::make_unique<aladdin::Simulator>(std::move(g));
            }();
            aladdin::SweepConfig cfg;
            cfg.nodes = q.nodes;
            cfg.partitions = q.partitions;
            cfg.simplifications = q.simplifications;
            cfg.clock_ghz = q.freq_ghz;
            aladdin::SweepOptions so;
            so.on_error = aladdin::OnError::Skip;
            so.jobs = kServeSweepJobs;
            auto out = [&] {
                Tracer::Span s(tracer, "aladdin.sweep", i);
                return aladdin::runSweepChecked(*sim, cfg, so);
            }();
            if (out.ok()) {
                cells += out.value().points.size();
                for (const auto &pt : out.value().points)
                    ops += pt.res.ops;
            }
            replaySweepInternals(*sim, cfg, i, tracer, r);
            break;
          }
          case ServeRequest::Kind::Csr: {
            std::vector<accelwall::csr::ChipGain> chips;
            for (std::size_t c = 0; c < q.chips.size(); ++c) {
                accelwall::csr::ChipGain g;
                g.name = "c" + std::to_string(c);
                g.spec.node_nm = units::Nanometers{q.chips[c][0]};
                g.spec.area_mm2 = units::SquareMillimeters{q.chips[c][1]};
                g.spec.freq_ghz = units::Gigahertz{q.chips[c][2]};
                g.gain = q.chips[c][3];
                chips.push_back(g);
            }
            Tracer::Span s(tracer, "csr.series", i);
            accelwall::csr::csrSeries(
                chips, model,
                q.metric == "efficiency"
                    ? accelwall::csr::Metric::EnergyEfficiency
                    : accelwall::csr::Metric::Throughput);
            break;
          }
          case ServeRequest::Kind::Chiplet: {
            accelwall::chiplet::SweepConfig cfg;
            cfg.base.node_nm = units::Nanometers{q.node_nm};
            cfg.base.area_mm2 = units::SquareMillimeters{q.area_mm2};
            cfg.base.freq_ghz = units::Gigahertz{q.freq_ghz};
            cfg.base.tdp_w = units::Watts{q.tdp_w};
            cfg.chiplets = q.chiplets;
            for (double n : q.nodes)
                cfg.nodes.push_back(units::Nanometers{n});
            cfg.jobs = kServeSweepJobs;
            Tracer::Span s(tracer, "chiplet.sweep", i);
            (void)accelwall::chiplet::runSweep(
                model, accelwall::chiplet::shippedCostTable(), cfg);
            break;
          }
          default:
            break;
        }
    }
    addSweepLayers(r, tracer);
    r.layers.push_back(
        {"kernels.dfg_nodes", "count", static_cast<double>(nodes)});
    r.layers.push_back({"aladdin.cells", "count", static_cast<double>(cells)});
    r.layers.push_back(
        {"aladdin.simulated_ops", "count", static_cast<double>(ops)});
    addMedianUs(r, tracer, "csr.series_ms", "csr.series", 1e-3, "ms");
    addMedianUs(r, tracer, "chiplet.sweep_ms", "chiplet.sweep", 1e-3, "ms");
    addMedianUs(r, tracer, "util.json_parse_us", "util.json_parse", 1, "us");
    addMedianUs(r, tracer, "serve.parse_head_us", "serve.parse_head", 1, "us");
    addMedianUs(r, tracer, "serve.handle_hit_us", "serve.handle_hit", 1, "us");
    addMedianUs(r, tracer, "serve.cache_lookup_us", "serve.cache_lookup", 1,
                "us");
    addMedianUs(r, tracer, "serve.serialize_us", "serve.serialize", 1, "us");
    for (const char *k : {"sweep", "gains", "csr", "chiplet"}) {
        addMedianUs(r, tracer, std::string("serve.handle_miss_us.") + k,
                    std::string("serve.handle_miss.") + k, 1, "us");
    }
}

} // namespace

bool
responseMatches(int status, const std::string &body,
                const std::string &expected)
{
    // /healthz reports the live in-flight gauge; compare all else.
    auto mask = [](const std::string &b) {
        auto at = b.find("\"inflight\": ");
        if (at == std::string::npos)
            return b;
        auto end = b.find_first_of(",}", at);
        return b.substr(0, at) + "\"inflight\": N" + b.substr(end);
    };
    return status == 200 && mask(body) == mask(expected);
}

double
requestLatencyMs(std::int64_t due_ns, std::int64_t end_ns, int status)
{
    return status == 200 ? static_cast<double>(end_ns - due_ns) / 1e6 : 1e9;
}

std::vector<double>
sleptLags(const std::vector<double> &lag_ms)
{
    std::vector<double> out;
    for (double lag : lag_ms) {
        if (lag >= 0.0)
            out.push_back(lag);
    }
    return out;
}

Scrape
parseScrape(const std::string &body)
{
    Scrape s;
    const std::map<std::string, double *> wanted = {
        {"accelwall_cache_hits_total", &s.hits},
        {"accelwall_cache_misses_total", &s.misses},
        {"accelwall_cache_evictions_total", &s.evictions},
        {"accelwall_requests_shed_total", &s.shed},
        {"accelwall_request_duration_seconds_sum", &s.time_sum_s},
        {"accelwall_request_duration_seconds_count", &s.time_count},
    };
    std::istringstream in(body);
    std::string line, name;
    double value = 0;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        if (!(ls >> name >> value))
            continue;
        if (auto it = wanted.find(name); it != wanted.end())
            *it->second = value;
    }
    return s;
}

Scrape
scrapeDelta(const Scrape &before, const Scrape &after)
{
    Scrape d;
    d.hits = after.hits - before.hits;
    d.misses = after.misses - before.misses;
    d.evictions = after.evictions - before.evictions;
    d.shed = after.shed - before.shed;
    d.time_sum_s = after.time_sum_s - before.time_sum_s;
    d.time_count = after.time_count - before.time_count;
    return d;
}

double
handlerMsMean(const Scrape &delta)
{
    return 1e3 * delta.time_sum_s / delta.time_count;
}

Report
runServeMix(const Options &opts)
{
    Report report;
    const ServeMix mix = serveMix(opts.seed, kServeRate, opts.seconds);
    report.lines.push_back("requests scheduled: " +
                           std::to_string(mix.requests.size()) +
                           " hot set: " + std::to_string(mix.hot.size()));
    const std::vector<int> generator_cpus = pinToFirstCpu();
    report.lines.push_back(
        "cpus: server and host-speed sampler on the first usable CPU, "
        "generator on " +
        (generator_cpus.empty() ? std::string("the same CPU")
                                : cpuList(generator_cpus)));

    Tracer off(false);
    double setup_s = 0.0;
    std::unique_ptr<serve::Server> server = repeatSetup(
        [&] { return startServer(mix, off, report); }, setup_s);
    if (!server)
        return report;

    Scrape delta;
    ServerCpu server_cpu;
    GenResult g = timedSection(*server, opts, generator_cpus, delta,
                               server_cpu, report);
    server.reset();
    if (!g.ok)
        return report;
    report.end_to_end = endToEnd(g, delta, server_cpu, setup_s);

    // The client view, printed but not gated: on a virtual machine its
    // median is mostly the time idle vCPUs take to wake (README.md).
    const double client_p50 = median(g.latency_ms);
    const auto lag_p99 = percentile(sleptLags(g.lag_ms), 99.0);
    std::string lag = "n/a";
    if (lag_p99) {
        lag = std::to_string(*lag_p99) +
              (*lag_p99 < kVoidLagShare * client_p50
                   ? " (valid)"
                   : " (void: the generator lagged)");
    }
    report.lines.push_back(
        "client latency, due time to full response (not gated): "
        "serve_latency_ms_p50=" + std::to_string(client_p50) +
        " serve_latency_ms_p99=" + fmtP99(g.latency_ms) +
        " requests=" + std::to_string(g.latency_ms.size()) +
        " gen_lag_ms_p99=" + lag);
    report.lines.push_back(
        "server, as measured: cpu_ms_per_request user=" +
        std::to_string(1e3 * server_cpu.cpu.user_s / delta.time_count) +
        " system=" +
        std::to_string(1e3 * server_cpu.cpu.system_s / delta.time_count) +
        " host_factor=" + std::to_string(server_cpu.factor) + " (" +
        std::to_string(server_cpu.slices) + " slices)" +
        " handler_ms_mean=" + std::to_string(handlerMsMean(delta)) +
        " handled=" + std::to_string(delta.time_count) +
        " cache_hit_ratio=" +
        std::to_string(delta.hits / (delta.hits + delta.misses)) +
        " evictions=" + std::to_string(delta.evictions) +
        " shed=" + std::to_string(delta.shed));
    if (!opts.trace)
        return report;

    // The timed section ran untraced and no span runs inside the
    // server, so only the set-up is repeated with spans on. The request
    // spans come from the generator's own timestamps.
    Tracer tracer(true);
    double traced_setup_s = 0.0;
    repeatSetup([&] { return startServer(mix, tracer, report); },
                traced_setup_s);
    addOverhead(report, report.end_to_end,
                endToEnd(g, delta, server_cpu, traced_setup_s));
    for (std::size_t i = 0; i < g.start_ns.size(); ++i) {
        tracer.record("serve.request", g.start_ns[i], g.end_ns[i], i,
                      1 + g.sender[i]);
    }
    replay(mix, tracer, report);

    Report &r = report;
    r.layers.push_back({"serve.cache_hit_ratio", "ratio",
                        delta.hits / (delta.hits + delta.misses)});
    r.layers.push_back({"serve.cache_evictions", "count", delta.evictions});
    r.layers.push_back({"serve.shed", "count", delta.shed});
    r.layers.push_back(
        {"serve.server_time_ms_mean", "ms", handlerMsMean(delta)});
    if (lag_p99)
        r.layers.push_back({"serve.gen_lag_ms_p99", "ms", *lag_p99});
    finishTrace(r, tracer, opts.trace_path);
    return report;
}

namespace
{

/** Per-request record of the generator. */
struct Sent
{
    std::int64_t due_ns = 0, start_ns = 0, end_ns = 0;
    double lag_ms = -1.0;
    int sender = 0;
    int status = 0;
    std::string body;
};

} // namespace

int
generatorMain(int argc, char **argv)
{
    int port = 0;
    std::uint64_t seed = 0;
    double seconds = 0, rate = 0;
    std::vector<int> cpus;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        if (flag == "--cpus") {
            std::istringstream in(argv[i + 1]);
            std::string c;
            while (std::getline(in, c, ','))
                cpus.push_back(std::atoi(c.c_str()));
        } else if (flag == "--port")
            port = std::atoi(argv[i + 1]);
        else if (flag == "--seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::atof(argv[i + 1]);
        else if (flag == "--rate")
            rate = std::atof(argv[i + 1]);
    }
    if (port <= 0 || seconds <= 0 || rate <= 0)
        return 2;
    // Before any sender thread starts, so they all inherit it.
    pinTo(cpus);
    const ServeMix mix = serveMix(seed, rate, seconds);
    const std::size_t n = mix.requests.size();
    std::vector<Sent> sent(n);
    std::atomic<std::size_t> next{0};
    const std::int64_t t0 = Tracer::nowNs() + 50'000'000;

    auto sender = [&](int id) {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            const ServeRequest &q = mix.requests[i];
            Sent &s = sent[i];
            s.sender = id;
            s.due_ns = t0 + static_cast<std::int64_t>(mix.due_s[i] * 1e9);
            if (Tracer::nowNs() < s.due_ns) {
                // Sleep to just short of the due time, then spin: the
                // scheduler's wake-up delay would otherwise be charged
                // to the server as latency.
                std::this_thread::sleep_until(Clock::time_point(
                    std::chrono::nanoseconds(s.due_ns - kSpinNs)));
                while (Tracer::nowNs() < s.due_ns) {
                }
                s.lag_ms = static_cast<double>(Tracer::nowNs() - s.due_ns) /
                           1e6;
            }
            s.start_ns = Tracer::nowNs();
            auto res = serve::httpRequest(kHost, port, methodOf(q), q.target,
                                          q.body, kRequestDeadlineMs);
            s.end_ns = Tracer::nowNs();
            if (res.ok()) {
                s.status = res.value().status;
                s.body = std::move(res.value().body);
            }
        }
    };
    std::vector<std::thread> threads;
    for (int id = 0; id < kServeSenders; ++id)
        threads.emplace_back(sender, id);
    for (std::thread &t : threads)
        t.join();
    std::int64_t last_end = t0;
    for (const Sent &s : sent)
        last_end = std::max(last_end, s.end_ns);

    // Oracle: every response must be a 200 whose body is byte-identical
    // to an uncached in-process Service::handle of the same request.
    serve::Service oracle(oracleOptions());
    std::map<std::string, std::string> expected;
    std::uint64_t failed = 0;
    std::vector<std::string> lines;
    std::map<std::string, std::pair<std::size_t, std::size_t>> by_kind;
    std::size_t hot = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const ServeRequest &q = mix.requests[i];
        auto &[hot_n, fresh_n] = by_kind[kindName(q.kind)];
        ++(q.hot ? hot_n : fresh_n);
        hot += q.hot ? 1 : 0;
        std::string key = q.target + '\n' + q.body;
        auto it = expected.find(key);
        if (it == expected.end())
            it = expected.emplace(key, oracle.handle(toHttp(q)).body).first;
        bool ok = responseMatches(sent[i].status, sent[i].body, it->second);
        if (!ok && ++failed <= 20) {
            lines.push_back("MISMATCH: request " + std::to_string(i) + " " +
                            q.target + " status " +
                            std::to_string(sent[i].status));
        }
    }
    // The measured share of each endpoint, hot repeats and fresh bodies.
    auto pct = [&](std::size_t c) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%.1f%%",
                      100.0 * static_cast<double>(c) /
                          static_cast<double>(n));
        return std::string(buf);
    };
    std::string mix_line = "mix: hot " + pct(hot) + ";";
    for (const auto &[kind, c] : by_kind) {
        mix_line += " " + kind + " " + pct(c.first + c.second) + " (hot " +
                    pct(c.first) + ", fresh " + pct(c.second) + ")";
    }
    lines.push_back(mix_line);

    JsonWriter w;
    w.beginObject();
    w.key("attempted").value(static_cast<unsigned long long>(n));
    w.key("failed").value(static_cast<unsigned long long>(failed));
    w.key("elapsed_s").value(static_cast<double>(last_end - t0) / 1e9);
    auto array = [&](const char *key, auto get) {
        w.key(key).beginArray();
        for (const Sent &s : sent)
            get(s);
        w.endArray();
    };
    array("latency_ms", [&](const Sent &s) {
        w.value(requestLatencyMs(s.due_ns, s.end_ns, s.status));
    });
    array("lag_ms", [&](const Sent &s) { w.value(s.lag_ms); });
    array("start_ns", [&](const Sent &s) {
        w.value(static_cast<double>(s.start_ns));
    });
    array("end_ns",
          [&](const Sent &s) { w.value(static_cast<double>(s.end_ns)); });
    array("sender", [&](const Sent &s) { w.value(s.sender); });
    w.key("lines").beginArray();
    for (const std::string &l : lines)
        w.value(l);
    w.endArray();
    w.endObject();
    std::fwrite(w.str().data(), 1, w.str().size(), stdout);
    return 0;
}

} // namespace perfbench
