/**
 * @file
 * prudbench: one workload of the end-to-end benchmark in one process.
 *
 *   prudbench --workload churn_defer|churn_nodefer|server_burst
 *             --seed N --seconds S [--trace-every N --spans FILE]
 *             [--corrupt-expected-fingerprint]
 *
 * Runs the workload against a default-configured Prudence allocator,
 * then checks the outputs and the allocator's state after teardown.
 * The last stdout line is one JSON object: setup_s, attempted/failed
 * counts, the end-to-end metrics ("e2e"), the per-layer metrics
 * ("layer") and the failed checks. Exit status 1 when any check
 * failed, 2 on bad usage. perfbench/run.py drives it.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>

#include "bench.h"
#include "page/page_types.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

double
mean(const std::vector<double>& v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

/// Median over 100-ms windows of each window's highest sampled
/// pages_in_use: the footprint a burst of deferrals typically reaches,
/// without letting one scheduling stall set the whole run's figure.
double
median_window_peak(const Sampler& s)
{
    constexpr std::uint64_t kWindowNs = 100'000'000;
    std::vector<double> peaks;
    for (std::size_t i = 0; i < s.pages_in_use.size(); ++i) {
        std::uint64_t w = (s.sample_ns[i] - s.sample_ns[0]) / kWindowNs;
        if (w >= peaks.size())
            peaks.resize(w + 1, 0.0);
        peaks[w] = std::max(peaks[w], s.pages_in_use[i]);
    }
    return median(std::move(peaks));
}

double
ratio(double num, double den, double scale)
{
    return den > 0.0 ? scale * num / den : 0.0;
}

void
add_into(prudence::CacheStatsSnapshot& a, const prudence::CacheStatsSnapshot& b)
{
    a.alloc_calls += b.alloc_calls;
    a.cache_hits += b.cache_hits;
    a.latent_merge_hits += b.latent_merge_hits;
    a.free_calls += b.free_calls;
    a.deferred_free_calls += b.deferred_free_calls;
    a.refills += b.refills;
    a.flushes += b.flushes;
    a.grows += b.grows;
    a.shrinks += b.shrinks;
    a.premoves += b.premoves;
    a.oom_waits += b.oom_waits;
    a.pcpu_lock_acquisitions += b.pcpu_lock_acquisitions;
    a.depot_exchanges += b.depot_exchanges;
    a.depot_miss_cold += b.depot_miss_cold;
    a.depot_miss_gp_pending += b.depot_miss_gp_pending;
    a.peak_slabs += b.peak_slabs;
    a.peak_deferred_outstanding += b.peak_deferred_outstanding;
}

/// Span-derived core/rcu/workload metrics of the traced run.
void
span_metrics(RunResult& r, double wall_s, std::uint64_t serving_ns)
{
    Histogram allocs, frees, defers, reads, self;
    double gen_ns = 0.0, call_ns = 0.0, request_ns = 0.0;
    std::uint64_t gens = 0;
    // Spans of one request are contiguous in a worker's log and end
    // with the request span itself.
    double child_ns = 0.0;
    for (const Span& s : r.spans) {
        std::uint64_t d = s.end_ns - s.start_ns;
        switch (s.kind) {
          case SpanKind::kAlloc: allocs.record(d); break;
          case SpanKind::kFree: frees.record(d); break;
          case SpanKind::kDefer: defers.record(d); break;
          case SpanKind::kReadSection: reads.record(d); break;
          case SpanKind::kGenerate:
            gen_ns += static_cast<double>(d);
            ++gens;
            continue;
          case SpanKind::kRequest:
            self.record(static_cast<std::uint64_t>(
                std::max(0.0, static_cast<double>(d) - child_ns)));
            child_ns = 0.0;
            request_ns += static_cast<double>(d);
            continue;
        }
        if (s.kind != SpanKind::kReadSection)
            call_ns += static_cast<double>(d);
        child_ns += static_cast<double>(d);
    }
    r.layer["core.alloc_p50_ns"] = allocs.quantile(0.50);
    r.layer["core.alloc_p99_ns"] = allocs.quantile(0.99);
    r.layer["core.free_p99_ns"] = frees.quantile(0.99);
    r.layer["core.defer_p99_ns"] = defers.quantile(0.99);
    // Share of traced request time spent inside allocator calls (the
    // clock reads inflate both sides alike), times the share of
    // worker wall time spent serving requests.
    r.layer["core.busy_pct"] =
        ratio(call_ns, request_ns, 1.0) *
        ratio(static_cast<double>(serving_ns), wall_s * 1e9 * r.workers, 100.0);
    r.layer["bench.req_self_ns_p50"] = self.quantile(0.50);
    r.layer["rcu.read_section_p99_ns"] = reads.quantile(0.99);
    r.layer["workload.gen_ns_per_req"] = ratio(gen_ns, gens, 1.0);
}

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
json_metrics(const std::map<std::string, double>& m)
{
    std::ostringstream o;
    o.precision(17);
    o << "{";
    const char* sep = "";
    for (const auto& [k, v] : m) {
        o << sep << "\"" << k << "\": " << v;
        sep = ", ";
    }
    o << "}";
    return o.str();
}

void
write_spans(const std::vector<Span>& spans, const std::string& path)
{
    std::ofstream out(path);
    out << "id\tparent\tname\tstart_ns\tend_ns\n";
    for (const Span& s : spans) {
        bool child = s.kind != SpanKind::kRequest &&
                     s.kind != SpanKind::kGenerate;
        out << s.id << '\t' << (child ? s.id : 0) << '\t' << span_name(s.kind)
            << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "prudbench: %s\nusage: prudbench --workload "
                 "churn_defer|churn_nodefer|server_burst --seed N "
                 "--seconds S [--trace-every N --spans FILE] "
                 "[--corrupt-expected-fingerprint]\n",
                 msg);
    return 2;
}

}  // namespace

LayerCounters
read_counters(prudence::Allocator& alloc, prudence::RcuDomain& rcu,
              const std::vector<prudence::CacheId>& caches)
{
    LayerCounters c;
    for (prudence::CacheId id : caches)
        add_into(c.slab, alloc.cache_snapshot(id));
    c.page = alloc.page_allocator().stats();
    c.rcu = rcu.stats();
    return c;
}

double
vm_hwm_mib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void
finish_common(RunResult& r, Sampler& sampler,
              const LayerCounters& before, const LayerCounters& after,
              double wall_s, std::uint64_t calls, std::uint64_t serving_ns)
{
    constexpr double kPageMiB = prudence::kPageSize / kMiB;
    r.e2e["throughput_mops"] = ratio(static_cast<double>(calls), wall_s, 1e-6);
    r.e2e["footprint_peak_mib"] = median_window_peak(sampler) * kPageMiB;
    r.e2e["footprint_mean_mib"] = mean(sampler.pages_in_use) * kPageMiB;
    r.layer["page.footprint_max_mib"] =
        static_cast<double>(after.page.peak_pages_in_use) * kPageMiB;

    const prudence::CacheStatsSnapshot& s0 = before.slab;
    const prudence::CacheStatsSnapshot& s1 = after.slab;
    double allocs = static_cast<double>(s1.alloc_calls - s0.alloc_calls);
    double kcalls = static_cast<double>(calls) / 1000.0;
    auto per_kop = [&](std::uint64_t a, std::uint64_t b) {
        return ratio(static_cast<double>(b - a), kcalls, 1.0);
    };
    r.layer["slab.hit_pct"] =
        ratio(static_cast<double>(s1.cache_hits - s0.cache_hits), allocs, 100.0);
    r.layer["slab.latent_merge_pct"] = ratio(
        static_cast<double>(s1.latent_merge_hits - s0.latent_merge_hits),
        allocs, 100.0);
    r.layer["slab.refills_per_kop"] = per_kop(s0.refills, s1.refills);
    r.layer["slab.flushes_per_kop"] = per_kop(s0.flushes, s1.flushes);
    r.layer["slab.depot_exchanges_per_kop"] =
        per_kop(s0.depot_exchanges, s1.depot_exchanges);
    r.layer["slab.depot_miss_cold_per_kop"] =
        per_kop(s0.depot_miss_cold, s1.depot_miss_cold);
    r.layer["slab.depot_miss_gp_pending_per_kop"] =
        per_kop(s0.depot_miss_gp_pending, s1.depot_miss_gp_pending);
    r.layer["slab.pcpu_lock_per_kop"] =
        per_kop(s0.pcpu_lock_acquisitions, s1.pcpu_lock_acquisitions);
    r.layer["slab.grows_per_kop"] = per_kop(s0.grows, s1.grows);
    r.layer["slab.shrinks_per_kop"] = per_kop(s0.shrinks, s1.shrinks);
    r.layer["slab.premoves_per_kop"] = per_kop(s0.premoves, s1.premoves);
    r.layer["slab.slabs_peak"] = static_cast<double>(s1.peak_slabs);
    r.layer["slab.oom_waits"] = static_cast<double>(s1.oom_waits - s0.oom_waits);
    r.layer["slab.deferred_peak"] =
        static_cast<double>(s1.peak_deferred_outstanding);

    const prudence::BuddyStatsSnapshot& p0 = before.page;
    const prudence::BuddyStatsSnapshot& p1 = after.page;
    r.layer["page.lock_acq_per_kop"] =
        per_kop(p0.lock_acquisitions, p1.lock_acquisitions);
    r.layer["page.pcp_hit_pct"] = ratio(
        static_cast<double>(p1.pcp_hits - p0.pcp_hits),
        static_cast<double>(p1.pcp_hits - p0.pcp_hits + p1.pcp_misses -
                            p0.pcp_misses),
        100.0);
    r.layer["page.splits_per_kop"] = per_kop(p0.split_ops, p1.split_ops);
    r.layer["page.merges_per_kop"] = per_kop(p0.merge_ops, p1.merge_ops);

    r.layer["rcu.gp_per_s"] = ratio(
        static_cast<double>(after.rcu.grace_periods - before.rcu.grace_periods),
        wall_s, 1.0);
    r.layer["rcu.gp_ms_p50"] = median(sampler.last_gp_ns) * 1e-6;
    // Little's law: mean deferred backlog over the deferral rate.
    double defer_rate = ratio(
        static_cast<double>(s1.deferred_free_calls - s0.deferred_free_calls),
        wall_s, 1.0);
    r.layer["rcu.deferred_age_ms"] =
        ratio(mean(sampler.deferred_outstanding), defer_rate, 1e3);

    span_metrics(r, wall_s, serving_ns);
}

void
check_teardown(RunResult& r, prudence::Allocator& alloc,
               const std::vector<prudence::CacheId>& caches)
{
    alloc.quiesce();
    std::string problem = alloc.validate();
    if (!problem.empty())
        r.failed_checks.push_back("validate: " + problem);
    for (prudence::CacheId id : caches) {
        prudence::CacheStatsSnapshot s = alloc.cache_snapshot(id);
        if (s.live_objects != 0)
            r.failed_checks.push_back("live_objects: cache " + s.cache_name +
                                      " holds " +
                                      std::to_string(s.live_objects) +
                                      " objects after teardown");
    }
    if (!alloc.page_allocator().check_integrity())
        r.failed_checks.push_back("page_integrity: buddy check_integrity "
                                  "failed");
}

}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options opt;
    opt.process_start_ns = now_ns();
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* v = nullptr;
        if (a == "--corrupt-expected-fingerprint") {
            opt.corrupt_expected_fingerprint = true;
        } else if ((v = value()) == nullptr) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace-every") {
            opt.trace_every = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (a == "--spans") {
            opt.spans_path = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
        return usage("--seconds must be in (0, 600]");

    RunResult r;
    if (opt.workload == "churn_defer")
        r = run_churn(opt, /*defer=*/true);
    else if (opt.workload == "churn_nodefer")
        r = run_churn(opt, /*defer=*/false);
    else if (opt.workload == "server_burst")
        r = run_server(opt);
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    if (!opt.spans_path.empty())
        write_spans(r.spans, opt.spans_path);

    std::ostringstream checks;
    const char* sep = "";
    for (const std::string& c : r.failed_checks) {
        std::cerr << "prudbench: check failed: " << c << "\n";
        checks << sep << "\"" << json_escape(c) << "\"";
        sep = ", ";
    }
    std::cout.precision(17);
    std::cout << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
              << opt.seed << ", \"workers\": " << r.workers
              << ", \"setup_s\": " << r.setup_s
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"failed_checks\": ["
              << checks.str() << "], \"e2e\": " << json_metrics(r.e2e)
              << ", \"layer\": " << json_metrics(r.layer) << "}" << std::endl;
    return r.failed_checks.empty() ? 0 : 1;
}
