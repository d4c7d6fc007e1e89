/**
 * @file
 * Shared pieces of the end-to-end benchmark program: the run options,
 * the per-run result record, a log-linear latency histogram, the
 * span log of the traced run, and the footprint/grace-period sampler.
 *
 * Every number the benchmark reports is measured from outside the
 * allocator: clock pairs around calls into the public API of each
 * layer (core, rcu, workload) and deltas of the counters each layer
 * exports (slab cache_snapshot(), BuddyAllocator::stats(),
 * RcuDomain::stats()).
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/allocator.h"
#include "page/buddy_allocator.h"
#include "rcu/rcu_domain.h"

namespace perfbench {

inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// splitmix64: derives independent per-thread streams from the seed.
inline std::uint64_t
mix_seed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Command-line options of one benchmark process.
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    /// Trace 1 in trace_every bursts/requests; 0 = tracing off.
    unsigned trace_every = 0;
    /// Where the traced run writes its spans (empty = nowhere).
    std::string spans_path;
    /// Self-test hook: perturb the expected shard fingerprint so the
    /// replay check must fail.
    bool corrupt_expected_fingerprint = false;
    /// steady_clock at main() entry, the origin of setup_s.
    std::uint64_t process_start_ns = 0;
};

/**
 * Single-writer log-linear histogram of nanosecond values: 64 octaves
 * of 128 linear sub-buckets each (< 0.8% relative error), percentiles
 * interpolated by rank inside a bucket. Merged after the run.
 */
class Histogram
{
  public:
    static constexpr int kSubBits = 7;
    static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

    void
    record(std::uint64_t v)
    {
        ++counts_[index(v)];
        ++total_;
    }

    void
    merge(const Histogram& o)
    {
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += o.counts_[i];
        total_ += o.total_;
    }

    /// Value at quantile @p q in [0, 1]; 0 when empty.
    double
    quantile(double q) const
    {
        if (total_ == 0)
            return 0.0;
        double rank = q * static_cast<double>(total_ - 1);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            std::uint64_t c = counts_[i];
            if (c == 0)
                continue;
            if (static_cast<double>(seen + c) > rank) {
                double lo = static_cast<double>(lower(i));
                double width = static_cast<double>(lower(i + 1)) - lo;
                double frac = (rank - static_cast<double>(seen) + 0.5) /
                              static_cast<double>(c);
                return lo + width * std::min(frac, 1.0);
            }
            seen += c;
        }
        return static_cast<double>(lower(counts_.size() - 1));
    }

  private:
    static std::size_t
    index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        int octave = std::bit_width(v) - 1 - kSubBits;  // >= 0
        std::uint64_t sub = (v >> octave) - kSub;         // [0, kSub)
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(octave) + 1) * kSub + sub);
    }

    static std::uint64_t
    lower(std::size_t i)
    {
        if (i < kSub)
            return i;
        std::uint64_t octave = i / kSub - 1;
        return (kSub + i % kSub) << octave;
    }

    std::array<std::uint64_t, (64 - kSubBits + 1) * kSub> counts_{};
    std::uint64_t total_ = 0;
};

/// What a span measured: a request (or churn burst) and the calls
/// the benchmark made into each layer while serving it.
enum class SpanKind : std::uint8_t
{
    kRequest,      ///< one churn burst or one server request (parent)
    kAlloc,        ///< Allocator::cache_alloc           (core)
    kFree,         ///< Allocator::cache_free            (core)
    kDefer,        ///< Allocator::cache_free_deferred   (core)
    kReadSection,  ///< RcuDomain::read_lock .. read_unlock (rcu)
    kGenerate,     ///< ShardScript::next                (workload)
};

inline const char*
span_name(SpanKind k)
{
    switch (k) {
      case SpanKind::kRequest: return "request";
      case SpanKind::kAlloc: return "core.cache_alloc";
      case SpanKind::kFree: return "core.cache_free";
      case SpanKind::kDefer: return "core.cache_free_deferred";
      case SpanKind::kReadSection: return "rcu.read_section";
      case SpanKind::kGenerate: return "workload.next";
    }
    return "?";
}

/// One recorded interval. Call spans share their request's id; the
/// request span (kind kRequest) is their parent.
struct Span
{
    std::uint64_t id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    SpanKind kind;
};

/// One worker's spans, kept in memory until the run ends.
struct SpanLog
{
    std::vector<Span> spans;

    void
    add(std::uint64_t id, SpanKind kind, std::uint64_t t0, std::uint64_t t1)
    {
        spans.push_back(Span{id, t0, t1, kind});
    }
};

/**
 * Background sampler: every millisecond it reads the buddy allocator's
 * pages_in_use, the RCU domain's last grace-period duration and the
 * deferred-object gauge of the benchmark caches. pages_in_use feeds
 * the footprint metrics; the others feed rcu.*.
 */
class Sampler
{
  public:
    Sampler(prudence::Allocator& alloc, prudence::RcuDomain& rcu,
            std::vector<prudence::CacheId> caches)
        : alloc_(alloc), rcu_(rcu), caches_(std::move(caches))
    {
    }
    ~Sampler() { stop(); }
    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;

    void
    start()
    {
        running_.store(true, std::memory_order_release);
        thread_ = std::thread([this] { loop(); });
    }

    void
    stop()
    {
        running_.store(false, std::memory_order_release);
        if (thread_.joinable())
            thread_.join();
    }

    std::vector<std::uint64_t> sample_ns;
    std::vector<double> pages_in_use;
    std::vector<double> last_gp_ns;
    std::vector<double> deferred_outstanding;

  private:
    void
    loop()
    {
        while (running_.load(std::memory_order_acquire)) {
            sample_ns.push_back(now_ns());
            pages_in_use.push_back(static_cast<double>(
                alloc_.page_allocator().stats().pages_in_use));
            last_gp_ns.push_back(
                static_cast<double>(rcu_.stats().last_gp_ns));
            std::int64_t deferred = 0;
            for (prudence::CacheId c : caches_)
                deferred += alloc_.cache_snapshot(c).deferred_outstanding;
            deferred_outstanding.push_back(static_cast<double>(deferred));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    prudence::Allocator& alloc_;
    prudence::RcuDomain& rcu_;
    std::vector<prudence::CacheId> caches_;
    std::atomic<bool> running_{false};
    std::thread thread_;
};

/// Counter readings of every layer at one instant.
struct LayerCounters
{
    prudence::CacheStatsSnapshot slab;  ///< summed over benchmark caches
    prudence::BuddyStatsSnapshot page;
    prudence::RcuStatsSnapshot rcu;
};

/// Read every layer's counters; the caller has drained thread caches.
LayerCounters read_counters(prudence::Allocator& alloc,
                            prudence::RcuDomain& rcu,
                            const std::vector<prudence::CacheId>& caches);

/// Everything one process measured, checked and traced.
struct RunResult
{
    double setup_s = 0.0;
    /// End-to-end metrics by name (no setup_s; see setup_s above).
    std::map<std::string, double> e2e;
    /// Per-layer metrics by name (counter deltas, histograms, spans).
    std::map<std::string, double> layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    unsigned workers = 0;
    /// Names of failed correctness checks, each with a detail.
    std::vector<std::string> failed_checks;
    /// All workers' spans (traced run only).
    std::vector<Span> spans;
};

/// Fill the metrics every workload shares: footprint, RSS, the
/// counter-delta per-layer metrics and the span-derived core metrics.
/// @p calls is the number of allocator calls in the timed phase and
/// @p serving_ns the workers' summed time serving bursts/requests.
void finish_common(RunResult& r, Sampler& sampler,
                   const LayerCounters& before, const LayerCounters& after,
                   double wall_s, std::uint64_t calls,
                   std::uint64_t serving_ns);

/// Post-teardown checks shared by every workload: quiesce, then
/// validate(), live_objects == 0 on each cache, buddy integrity.
void check_teardown(RunResult& r, prudence::Allocator& alloc,
                    const std::vector<prudence::CacheId>& caches);

/// Peak resident set (VmHWM) of this process, MiB.
double vm_hwm_mib();

RunResult run_churn(const Options& opt, bool defer);
RunResult run_server(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
