/**
 * @file
 * server_burst: open-loop traffic over the stock "burst" scenario's
 * seed-pure ShardScript streams, 4 shards multiplexed onto 2 worker
 * threads. The request body is the scenario engine's: 70% RCU-read
 * lookups that race another shard's publish and deferred free, 20%
 * updates (alloc + publish + defer-free the old object) and scratch
 * churn, each inside a transient request buffer. Workers spin until
 * a request is due, so pacing adds no sleep wake-up to latency.
 *
 * Output checks: a lookup must read back the key its object was
 * published under (a deferred object reused inside a grace period
 * would not), and after the run every shard's request count and
 * fingerprint must equal ShardScript::replay.
 */
#include <barrier>
#include <memory>

#include "api/allocator_factory.h"
#include "bench.h"
#include "workload/loadgen.h"
#include "workload/scenario.h"

namespace perfbench {

namespace {

constexpr unsigned kWorkers = 2;

/// One shard's server state, owned by exactly one worker. Other
/// workers only read its key slots, under the RCU read lock.
struct Shard
{
    std::unique_ptr<prudence::ShardScript> script;
    std::vector<void*> conns;
    std::unique_ptr<std::atomic<void*>[]> slots;
    unsigned scratch_pairs = 0;
    prudence::ScenarioRequest pending{};
    bool has_pending = false;
    std::uint64_t executed = 0;
};

struct Server
{
    prudence::Allocator* alloc = nullptr;
    prudence::RcuDomain* rcu = nullptr;
    const prudence::ScenarioSpec* spec = nullptr;
    prudence::CacheId conn_cache, obj_cache, req_cache;
    std::vector<Shard> shards;
    std::uint64_t base_ns = 0;
};

struct ServerWorker
{
    std::vector<std::size_t> owned;
    unsigned index = 0;
    unsigned trace_every = 0;

    Histogram req_ns;        ///< scheduled arrival -> completion
    Histogram svc_ns;        ///< start of service -> completion
    Histogram late_ns;       ///< scheduled arrival -> start of service
    Histogram burst_svc_ns;  ///< service, arrivals inside burst windows
    SpanLog log;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t calls = 0;
    std::uint64_t busy_ns = 0;  ///< summed service time
    std::uint64_t stale_reads = 0;
    std::uint64_t conn_failures = 0;
};

void
touch_word(void* p)
{
    auto* w = static_cast<volatile std::uint64_t*>(p);
    *w = *w + 1;
}

/// A clock pair around one layer call when the request is traced.
template <bool kTraced, typename F>
auto
timed_call(ServerWorker& w, std::uint64_t id, SpanKind kind, F&& f)
{
    std::uint64_t c0 = kTraced ? now_ns() : 0;
    auto out = f();
    if constexpr (kTraced)
        w.log.add(id, kind, c0, now_ns());
    return out;
}

/// Serve one request on its owning shard (the engine's body).
template <bool kTraced>
bool
execute(Server& sv, ServerWorker& w, std::size_t shard_index,
        const prudence::ScenarioRequest& req, std::uint64_t id)
{
    using Kind = prudence::ScenarioRequest::Kind;
    prudence::Allocator& alloc = *sv.alloc;
    Shard& st = sv.shards[shard_index];
    bool ok = true;

    if (void* conn = st.conns[req.conn])
        touch_word(conn);

    void* rbuf = timed_call<kTraced>(w, id, SpanKind::kAlloc, [&] {
        return alloc.cache_alloc(sv.req_cache);
    });
    ++w.calls;
    if (rbuf == nullptr)
        ok = false;
    else
        touch_word(rbuf);

    switch (req.kind) {
      case Kind::kLookup: {
        // Key k of shard s resolves to shard (s + k) mod N, so the
        // read races another shard's publish and deferred free.
        Shard& target = sv.shards[(shard_index + req.key) % sv.shards.size()];
        std::uint64_t c0 = kTraced ? now_ns() : 0;
        sv.rcu->read_lock();
        void* obj = target.slots[req.key].load(std::memory_order_acquire);
        if (obj != nullptr &&
            *static_cast<volatile std::uint64_t*>(obj) != req.key)
            ++w.stale_reads;
        sv.rcu->read_unlock();
        if constexpr (kTraced)
            w.log.add(id, SpanKind::kReadSection, c0, now_ns());
        break;
      }
      case Kind::kUpdate: {
        void* obj = timed_call<kTraced>(w, id, SpanKind::kAlloc, [&] {
            return alloc.cache_alloc(sv.obj_cache);
        });
        ++w.calls;
        if (obj == nullptr) {
            ok = false;
            break;
        }
        *static_cast<std::uint64_t*>(obj) = req.key;
        void* old = st.slots[req.key].exchange(obj,
                                               std::memory_order_acq_rel);
        if (old != nullptr) {
            timed_call<kTraced>(w, id, SpanKind::kDefer, [&] {
                alloc.cache_free_deferred(sv.obj_cache, old);
                return 0;
            });
            ++w.calls;
        }
        break;
      }
      case Kind::kScratch:
        for (unsigned i = 0; i < st.scratch_pairs; ++i) {
            void* p = timed_call<kTraced>(w, id, SpanKind::kAlloc, [&] {
                return alloc.cache_alloc(sv.req_cache);
            });
            ++w.calls;
            if (p == nullptr) {
                ok = false;
                continue;
            }
            touch_word(p);
            timed_call<kTraced>(w, id, SpanKind::kFree, [&] {
                alloc.cache_free(sv.req_cache, p);
                return 0;
            });
            ++w.calls;
        }
        break;
    }

    if (rbuf != nullptr) {
        timed_call<kTraced>(w, id, SpanKind::kFree, [&] {
            alloc.cache_free(sv.req_cache, rbuf);
            return 0;
        });
        ++w.calls;
    }
    ++st.executed;
    return ok;
}

/// Serve every owned shard's schedule, merged by arrival time.
void
serve(Server& sv, ServerWorker& w)
{
    for (;;) {
        std::size_t best = static_cast<std::size_t>(-1);
        for (std::size_t s : w.owned) {
            const Shard& st = sv.shards[s];
            if (st.has_pending &&
                (best == static_cast<std::size_t>(-1) ||
                 st.pending.arrival_ns < sv.shards[best].pending.arrival_ns))
                best = s;
        }
        if (best == static_cast<std::size_t>(-1))
            return;

        Shard& st = sv.shards[best];
        prudence::ScenarioRequest req = st.pending;
        bool in_burst = prudence::offered_rate_rps(*sv.spec, req.arrival_ns) >
                        sv.spec->rate_rps;
        std::uint64_t due = sv.base_ns + req.arrival_ns;
        std::uint64_t start = now_ns();
        while (start < due)
            start = now_ns();

        std::uint64_t id = (std::uint64_t{w.index + 1} << 48) | w.requests;
        bool traced = w.trace_every != 0 && w.requests % w.trace_every == 0;
        bool ok = traced ? execute<true>(sv, w, best, req, id)
                         : execute<false>(sv, w, best, req, id);
        std::uint64_t end = now_ns();
        if (traced)
            w.log.add(id, SpanKind::kRequest, start, end);
        if (!ok)
            ++w.failed;
        ++w.requests;
        w.req_ns.record(end - due);
        w.svc_ns.record(end - start);
        w.busy_ns += end - start;
        w.late_ns.record(start - due);
        if (in_burst)
            w.burst_svc_ns.record(end - start);

        std::uint64_t g0 = traced ? now_ns() : 0;
        st.has_pending = st.script->next(st.pending);
        if (traced)
            w.log.add(id, SpanKind::kGenerate, g0, now_ns());
    }
}

}  // namespace

RunResult
run_server(const Options& opt)
{
    RunResult r;
    r.workers = kWorkers;

    prudence::ScenarioSpec spec;
    prudence::stock_scenario("burst", spec);
    spec.seed = opt.seed;
    spec.duration_ms = static_cast<std::uint32_t>(opt.seconds * 1000.0);
    prudence::clamp_scenario(spec);

    prudence::RcuDomain rcu;
    std::unique_ptr<prudence::Allocator> alloc =
        prudence::make_prudence_allocator(rcu);
    Server sv;
    sv.alloc = alloc.get();
    sv.rcu = &rcu;
    sv.spec = &spec;
    sv.conn_cache = alloc->create_cache("perfbench.conn", 128);
    sv.obj_cache = alloc->create_cache("perfbench.obj", spec.object_bytes);
    sv.req_cache = alloc->create_cache("perfbench.req", spec.request_bytes);
    std::vector<prudence::CacheId> caches{sv.conn_cache, sv.obj_cache,
                                          sv.req_cache};
    sv.shards.resize(spec.shards);
    auto zipf = std::make_shared<const prudence::ZipfSampler>(spec.keys,
                                                              spec.zipf_s);

    std::vector<ServerWorker> workers(kWorkers);
    for (unsigned s = 0; s < spec.shards; ++s)
        workers[s % kWorkers].owned.push_back(s);
    for (unsigned t = 0; t < kWorkers; ++t) {
        workers[t].index = t;
        workers[t].trace_every = opt.trace_every;
        if (opt.trace_every != 0)
            workers[t].log.spans.reserve(static_cast<std::size_t>(
                opt.seconds * 1e5 / opt.trace_every * 8));
    }

    std::uint64_t conn_failures = 0;
    std::barrier ready_line(kWorkers + 1);
    std::barrier start_line(kWorkers + 1);
    std::barrier finish_line(kWorkers + 1);
    std::barrier teardown_line(kWorkers + 1);
    std::vector<std::thread> threads;
    threads.reserve(kWorkers);
    for (unsigned t = 0; t < kWorkers; ++t) {
        threads.emplace_back([&, t] {
            ServerWorker& w = workers[t];
            // Standing state: connections, key table, script.
            for (std::size_t s : w.owned) {
                Shard& st = sv.shards[s];
                st.script = std::make_unique<prudence::ShardScript>(
                    spec, static_cast<unsigned>(s), spec.seed, zipf);
                st.scratch_pairs =
                    prudence::shard_mix(spec, st.script->shard_class())
                        .scratch_pairs;
                st.slots = std::make_unique<std::atomic<void*>[]>(spec.keys);
                st.conns.assign(spec.connections, nullptr);
                for (void*& c : st.conns) {
                    c = alloc->cache_alloc(sv.conn_cache);
                    if (c != nullptr)
                        touch_word(c);
                    else
                        ++w.conn_failures;
                }
                st.has_pending = st.script->next(st.pending);
            }
            alloc->drain_thread();
            ready_line.arrive_and_wait();
            start_line.arrive_and_wait();
            serve(sv, w);
            alloc->drain_thread();
            finish_line.arrive_and_wait();
            // Teardown: every reader is past the finish barrier, so
            // unpublished objects are freed immediately.
            teardown_line.arrive_and_wait();
            for (std::size_t s : w.owned) {
                Shard& st = sv.shards[s];
                for (std::uint32_t k = 0; k < spec.keys; ++k) {
                    void* obj = st.slots[k].exchange(
                        nullptr, std::memory_order_acq_rel);
                    if (obj != nullptr)
                        alloc->cache_free(sv.obj_cache, obj);
                }
                for (void* c : st.conns)
                    if (c != nullptr)
                        alloc->cache_free(sv.conn_cache, c);
                st.conns.clear();
            }
            alloc->drain_thread();
        });
    }

    ready_line.arrive_and_wait();
    for (const ServerWorker& w : workers)
        conn_failures += w.conn_failures;
    Sampler sampler(*alloc, rcu, caches);
    LayerCounters before = read_counters(*alloc, rcu, caches);
    sampler.start();
    // The schedule starts at the first timed op.
    sv.base_ns = now_ns();
    r.setup_s = static_cast<double>(sv.base_ns - opt.process_start_ns) * 1e-9;
    start_line.arrive_and_wait();
    finish_line.arrive_and_wait();
    std::uint64_t t1 = now_ns();
    sampler.stop();
    LayerCounters after = read_counters(*alloc, rcu, caches);
    r.e2e["rss_peak_mib"] = vm_hwm_mib();
    teardown_line.arrive_and_wait();
    for (std::thread& th : threads)
        th.join();

    Histogram req, svc, late, burst_svc;
    std::uint64_t calls = 0, busy_ns = 0, stale = 0;
    for (ServerWorker& w : workers) {
        req.merge(w.req_ns);
        svc.merge(w.svc_ns);
        late.merge(w.late_ns);
        burst_svc.merge(w.burst_svc_ns);
        calls += w.calls;
        busy_ns += w.busy_ns;
        stale += w.stale_reads;
        r.attempted += w.requests;
        r.failed += w.failed;
        r.spans.insert(r.spans.end(), w.log.spans.begin(),
                       w.log.spans.end());
    }
    double wall_s = static_cast<double>(t1 - sv.base_ns) * 1e-9;
    finish_common(r, sampler, before, after, wall_s, calls, busy_ns);

    r.e2e["req_p50_us"] = req.quantile(0.50) * 1e-3;
    r.e2e["svc_p99_us"] = svc.quantile(0.99) * 1e-3;
    r.e2e["burst_p50_us"] = burst_svc.quantile(0.50) * 1e-3;
    r.e2e["burst_p99_us"] = burst_svc.quantile(0.99) * 1e-3;
    r.layer["workload.late_p99_us"] = late.quantile(0.99) * 1e-3;
    r.layer["workload.req_p99_us"] = req.quantile(0.99) * 1e-3;
    r.layer["workload.req_p999_us"] = req.quantile(0.999) * 1e-3;

    if (conn_failures != 0)
        r.failed_checks.push_back("standing_connections: " +
                                  std::to_string(conn_failures) +
                                  " connection allocations failed");
    if (stale != 0)
        r.failed_checks.push_back("rcu_lookup: " + std::to_string(stale) +
                                  " lookups read an object reused inside "
                                  "its grace period");
    for (unsigned s = 0; s < spec.shards; ++s) {
        std::uint64_t count = 0, fingerprint = 0;
        prudence::ShardScript::replay(spec, s, spec.seed, count, fingerprint);
        if (opt.corrupt_expected_fingerprint && s == 0)
            fingerprint ^= 1;
        const Shard& st = sv.shards[s];
        if (st.executed != count || st.script->fingerprint() != fingerprint)
            r.failed_checks.push_back(
                "shard_replay: shard " + std::to_string(s) + " served " +
                std::to_string(st.executed) + " requests with fingerprint " +
                std::to_string(st.script->fingerprint()) + ", replay has " +
                std::to_string(count) + " and " + std::to_string(fingerprint));
    }
    check_teardown(r, *alloc, caches);
    return r;
}

}  // namespace perfbench
