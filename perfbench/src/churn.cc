/**
 * @file
 * churn_defer / churn_nodefer: closed-loop object churn on one 128-B
 * cache. nproc-1 workers each repeat a burst of 48 cache_alloc calls
 * followed by 48 frees; on churn_defer 1 free in 4 is deferred (the
 * fig15 mix). A burst is the closed-loop client's request: it is
 * issued when the previous one completes.
 *
 * Output check: every allocated object is stamped with a token unique
 * to (worker, burst, slot) and the token is re-read before the free,
 * so an object handed out twice while live is caught.
 */
#include <barrier>
#include <cstring>

#include "api/allocator_factory.h"
#include "bench.h"

namespace perfbench {

namespace {

constexpr std::size_t kBurst = 48;
constexpr std::size_t kObjectBytes = 128;

struct ChurnWorker
{
    prudence::Allocator* alloc = nullptr;
    prudence::CacheId cache;
    bool defer = false;
    std::uint64_t rng = 0;
    unsigned index = 0;
    unsigned trace_every = 0;

    Histogram burst_ns;
    SpanLog log;
    std::uint64_t bursts = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t alloc_calls = 0;
    std::uint64_t free_calls = 0;
    std::uint64_t failed_allocs = 0;
    std::uint64_t corrupt = 0;

    /// 1 free in 4 is deferred, drawn from the seeded stream.
    bool
    next_defer()
    {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return defer && ((rng >> 33) & 3) == 0;
    }

    std::uint64_t
    token(std::size_t slot) const
    {
        return (std::uint64_t{index} << 56) ^ (bursts << 8) ^ slot;
    }

    template <bool kTraced>
    void
    burst()
    {
        void* held[kBurst];
        std::uint64_t id = (std::uint64_t{index + 1} << 48) | bursts;
        std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < kBurst; ++i) {
            std::uint64_t c0 = kTraced ? now_ns() : 0;
            void* p = alloc->cache_alloc(cache);
            if constexpr (kTraced)
                log.add(id, SpanKind::kAlloc, c0, now_ns());
            held[i] = p;
            if (p == nullptr) {
                ++failed_allocs;
                continue;
            }
            std::uint64_t tok = token(i);
            std::memcpy(p, &tok, sizeof tok);
        }
        for (std::size_t i = 0; i < kBurst; ++i) {
            void* p = held[i];
            if (p == nullptr)
                continue;
            std::uint64_t tok = 0;
            std::memcpy(&tok, p, sizeof tok);
            if (tok != token(i))
                ++corrupt;
            bool deferred = next_defer();
            std::uint64_t c0 = kTraced ? now_ns() : 0;
            if (deferred)
                alloc->cache_free_deferred(cache, p);
            else
                alloc->cache_free(cache, p);
            if constexpr (kTraced)
                log.add(id, deferred ? SpanKind::kDefer : SpanKind::kFree,
                        c0, now_ns());
            ++free_calls;
        }
        std::uint64_t t1 = now_ns();
        if constexpr (kTraced)
            log.add(id, SpanKind::kRequest, t0, t1);
        burst_ns.record(t1 - t0);
        busy_ns += t1 - t0;
        alloc_calls += kBurst;
        ++bursts;
    }

    void
    run(const std::atomic<bool>& stop)
    {
        while (!stop.load(std::memory_order_relaxed)) {
            if (trace_every != 0 && (bursts + index) % trace_every == 0)
                burst<true>();
            else
                burst<false>();
        }
    }
};

}  // namespace

RunResult
run_churn(const Options& opt, bool defer)
{
    RunResult r;
    unsigned hw = std::thread::hardware_concurrency();
    unsigned nworkers = hw > 1 ? hw - 1 : 1;
    r.workers = nworkers;

    prudence::RcuDomain rcu;
    std::unique_ptr<prudence::Allocator> alloc =
        prudence::make_prudence_allocator(rcu);
    prudence::CacheId cache = alloc->create_cache("perfbench.obj",
                                                  kObjectBytes);
    std::vector<prudence::CacheId> caches{cache};

    std::vector<ChurnWorker> workers(nworkers);
    for (unsigned t = 0; t < nworkers; ++t) {
        ChurnWorker& w = workers[t];
        w.alloc = alloc.get();
        w.cache = cache;
        w.defer = defer;
        w.index = t;
        w.rng = mix_seed(opt.seed * 1000003 + t);
        w.trace_every = opt.trace_every;
        if (opt.trace_every != 0)
            w.log.spans.reserve(static_cast<std::size_t>(
                opt.seconds * 5e5 / opt.trace_every * (2 * kBurst + 1)));
    }

    std::atomic<bool> stop{false};
    std::barrier start_line(nworkers + 1);
    std::barrier finish_line(nworkers + 1);
    std::vector<std::thread> threads;
    threads.reserve(nworkers);
    for (unsigned t = 0; t < nworkers; ++t) {
        threads.emplace_back([&, t] {
            start_line.arrive_and_wait();
            workers[t].run(stop);
            alloc->drain_thread();
            finish_line.arrive_and_wait();
        });
    }

    Sampler sampler(*alloc, rcu, caches);
    LayerCounters before = read_counters(*alloc, rcu, caches);
    sampler.start();
    std::uint64_t t0 = now_ns();
    r.setup_s = static_cast<double>(t0 - opt.process_start_ns) * 1e-9;
    start_line.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
    stop.store(true, std::memory_order_relaxed);
    finish_line.arrive_and_wait();
    std::uint64_t t1 = now_ns();
    sampler.stop();
    for (std::thread& th : threads)
        th.join();
    LayerCounters after = read_counters(*alloc, rcu, caches);
    r.e2e["rss_peak_mib"] = vm_hwm_mib();

    Histogram bursts;
    std::uint64_t calls = 0, busy_ns = 0, corrupt = 0;
    for (ChurnWorker& w : workers) {
        bursts.merge(w.burst_ns);
        calls += w.alloc_calls + w.free_calls;
        busy_ns += w.busy_ns;
        corrupt += w.corrupt;
        r.attempted += w.alloc_calls;
        r.failed += w.failed_allocs;
        r.spans.insert(r.spans.end(), w.log.spans.begin(),
                       w.log.spans.end());
    }
    double wall_s = static_cast<double>(t1 - t0) * 1e-9;
    finish_common(r, sampler, before, after, wall_s, calls, busy_ns);

    // A burst is the closed-loop client's request: it arrives when
    // the previous one completes, so its latency is its service time.
    r.e2e["burst_p50_us"] = bursts.quantile(0.50) * 1e-3;
    r.e2e["burst_p99_us"] = bursts.quantile(0.99) * 1e-3;
    r.e2e["req_p50_us"] = r.e2e["burst_p50_us"];
    r.e2e["svc_p99_us"] = r.e2e["burst_p99_us"];
    for (const char* name : {"workload.late_p99_us", "workload.req_p99_us",
                             "workload.req_p999_us"})
        r.layer[name] = 0.0;

    if (corrupt != 0)
        r.failed_checks.push_back("object_tokens: " +
                                  std::to_string(corrupt) +
                                  " objects changed while held");
    check_teardown(r, *alloc, caches);
    return r;
}

}  // namespace perfbench
