/**
 * @file
 * The two closed-loop workloads, cold-logic and sweep-chip, and the
 * closed-loop client and post-run checks they share.
 */

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>

#include "backend/backend.hh"
#include "oracle.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace reqisc;

namespace
{

/** Rounds (cold-logic) / requests (sweep-chip) every run completes;
 *  the quality metrics and the determinism digest cover exactly
 *  these, so they are a pure function of the seed. */
constexpr int kColdQualityRounds = 12;
constexpr int kColdRoundSize = 12;  //!< one program per category
constexpr int kSweepQualityRequests = 64;
/** Tail percentiles: ~600 cold-logic and ~6000 sweep-chip latency
 *  samples per 25 s run leave ~30 beyond p95 and ~60 beyond p99. */
constexpr double kColdTail = 0.95;
constexpr double kSweepTail = 0.99;

} // namespace

service::ServiceOptions
Target::serviceOptions(int workers) const
{
    service::ServiceOptions o;
    o.threads = workers;
    o.blockWorkers = 1;
    o.coupling = uarch::Coupling::xy(1.0);
    o.backend = chip;
    return o;
}

service::CompileRequest
Target::request(const Request &r) const
{
    service::CompileRequest req;
    req.name = r.name;
    req.input = r.circuit;
    req.pipelineSpec = "full";
    req.calibrate = true;
    req.schedule = true;
    req.scheduleOptions.strategy = isa::Strategy::Asap;
    return req;
}

Target
sweepChipTarget(const Config &cfg)
{
    Target t;
    t.chip = std::make_shared<const backend::Backend>(
        backend::Backend::fromJsonFile(cfg.root +
                                       "/examples/chips/chain8_xy.json"));
    return t;
}

std::vector<JobRecord>
runClosedLoop(const Target &target, int concurrency,
              const std::function<bool(Feed &)> &next,
              const std::function<bool(const JobRecord &)> &finished)
{
    struct Slot
    {
        JobRecord rec;
        std::uint64_t span = 0;
        bool done = false;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::unique_ptr<Slot>> inFlight;
    std::vector<JobRecord> out;
    int running = 0;
    bool exhausted = false;

    auto submitOne = [&]() {
        Feed feed;
        if (!next(feed)) {
            exhausted = true;
            return;
        }
        const std::int64_t index = feed.index;
        auto slot = std::make_unique<Slot>();
        Slot *s = slot.get();
        s->rec.index = index;
        s->span = trace::reserveId();
        service::CompileRequest req = target.request(feed.request);
        s->rec.request = std::move(feed.request);
        req.onPass = [s, &mu](const compiler::PassTrace &t) {
            const Clock::time_point now = Clock::now();
            std::lock_guard<std::mutex> lk(mu);
            if (s->rec.passes++ == 0)
                s->rec.firstPass =
                    now - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(t.seconds));
            s->rec.lastPass = now;
            if (s->span)
                trace::record(
                    "compiler.pass." + t.pass,
                    now - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(t.seconds)),
                    now, s->span,
                    static_cast<std::uint64_t>(s->rec.index) + 1);
        };
        req.onDone = [s, &mu, &cv](service::JobResult res) {
            const Clock::time_point now = Clock::now();
            std::lock_guard<std::mutex> lk(mu);
            s->rec.result = std::move(res);
            s->rec.doneAt = now;
            s->done = true;
            cv.notify_all();
        };
        {
            std::lock_guard<std::mutex> lk(mu);
            inFlight.push_back(std::move(slot));
            ++running;
        }
        s->rec.submitAt = Clock::now();
        {
            trace::Scope sub("service.submit",
                             static_cast<std::uint64_t>(index) + 1);
            feed.service->submit(std::move(req));
        }
        const Clock::time_point submitted = Clock::now();
        std::lock_guard<std::mutex> lk(mu);
        s->rec.submitted = submitted;
    };

    for (int i = 0; i < concurrency && !exhausted; ++i)
        submitOne();
    while (running > 0) {
        std::vector<std::unique_ptr<Slot>> completed;
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] {
                for (const auto &s : inFlight)
                    if (s->done)
                        return true;
                return false;
            });
            for (auto it = inFlight.begin(); it != inFlight.end();) {
                if ((*it)->done) {
                    completed.push_back(std::move(*it));
                    it = inFlight.erase(it);
                    --running;
                } else {
                    ++it;
                }
            }
        }
        for (auto &s : completed) {
            JobRecord &r = s->rec;
            if (s->span) {
                const std::uint64_t req =
                    static_cast<std::uint64_t>(r.index) + 1;
                trace::recordAs(s->span, "service.job", r.submitAt,
                                r.doneAt, 0, req);
                if (r.passes)
                    trace::record("service.post_pass", r.lastPass,
                                  r.doneAt, s->span, req);
            }
            if (!finished || finished(r))
                out.push_back(std::move(r));
            if (!exhausted)
                submitOne();
        }
    }
    return out;
}

namespace
{

/**
 * Post-run checks and tallies, fed one finished request at a time:
 * the oracle (plus its self-check on the first good artifact), the
 * per-request digest file, latency samples and failure counts.
 */
class Checks
{
  public:
    explicit Checks(const Config &cfg)
        : cfg_(cfg),
          digests_(cfg.outDir + "/digests-" + cfg.workload + "-" +
                   std::to_string(cfg.seed) + ".txt")
    {
    }

    void add(const JobRecord &r, Report &rep)
    {
        ++attempted;
        latMs.push_back(msBetween(r.submitAt, r.doneAt));
        const service::JobResult &res = r.result;
        std::string why;
        if (!res.ok) {
            why = "job failed: " + res.error;
        } else {
            const std::uint64_t seed =
                fnv1a(r.request.name, cfg_.seed * 0x9e3779b97f4a7c15ull);
            why = oracle::checkLogical(r.request.circuit,
                                       res.compiled.circuit,
                                       res.compiled.finalPermutation,
                                       seed);
            if (why.empty() && !res.finalLayout.empty())
                why = oracle::checkRouted(r.request.circuit, res.routed,
                                          res.finalLayout, seed);
            if (why.empty() && !selfChecked_) {
                selfChecked_ = true;
                if (std::string e = oracle::selfCheck(
                        r.request.circuit, res.compiled.circuit,
                        res.compiled.finalPermutation, seed);
                    !e.empty())
                    rep.fail("oracle self-check: " + e);
            }
        }
        digests_ << r.request.name << " "
                 << (res.ok ? hex64(jobDigest(res)) : "failed") << "\n";
        if (!why.empty()) {
            ++bad;
            std::printf("wrong: %s: %s\n", r.request.name.c_str(),
                        why.c_str());
        }
    }

    /** Every check ran at least once. */
    void finish(Report &rep) const
    {
        if (!selfChecked_)
            rep.fail("oracle self-check never ran (no good artifact)");
    }

    std::int64_t attempted = 0, bad = 0;
    std::vector<double> latMs;

  private:
    const Config &cfg_;
    std::ofstream digests_;
    bool selfChecked_ = false;
};

/**
 * Re-compile the quality set at another worker count (two job
 * workers, two block workers) within the workload's own cache scope
 * and demand bit-identical artifacts. `scope` is the number of
 * consecutive request indices one service compiled in the timed loop
 * (cold-logic: a round); 0 means one service compiled them all. Each
 * scope gets a fresh service, because an artifact may depend on what
 * its service compiled before (README.md, "Findings"), and that is
 * not what this check is about. Prints the quality-set digest.
 */
void
checkDeterminism(const Target &target,
                 const std::vector<const JobRecord *> &qset,
                 std::int64_t scope, Report &rep)
{
    service::ServiceOptions o = target.serviceOptions(2);
    o.blockWorkers = 2;
    std::vector<service::JobResult> again;
    for (std::size_t first = 0; first < qset.size();) {
        std::size_t last = first + 1;
        while (last < qset.size() &&
               (scope == 0 || qset[last]->index / scope ==
                                  qset[first]->index / scope))
            ++last;
        service::CompileService svc(o);
        std::vector<service::CompileRequest> reqs;
        for (std::size_t i = first; i < last; ++i)
            reqs.push_back(target.request(qset[i]->request));
        svc.submitBatch(std::move(reqs));
        for (service::JobResult &r : svc.waitAll())
            again.push_back(std::move(r));
        first = last;
    }
    std::uint64_t digest = 1469598103934665603ull;
    for (std::size_t i = 0; i < qset.size(); ++i) {
        const std::uint64_t d = jobDigest(qset[i]->result);
        digest = fnv1a(hex64(d), digest);
        if (i >= again.size() || jobDigest(again[i]) != d)
            rep.fail("nondeterministic artifact: " +
                     qset[i]->request.name);
    }
    std::printf("artifact digest (quality set, %zu artifacts): %s\n",
                qset.size(), hex64(digest).c_str());
}

/** End-to-end and correctness reporting shared by both workloads. */
void
finishClosedLoop(const Target &target, Checks &checks,
                 std::vector<const JobRecord *> qset, double seconds,
                 double tailQ, std::int64_t scope, Report &rep)
{
    checks.finish(rep);
    rep.attempted = checks.attempted;
    rep.failed = checks.bad;
    const double okPerSec =
        static_cast<double>(checks.attempted - checks.bad) / seconds;
    rep.e2e("throughput_cps", okPerSec, "circuits/s");
    // Closed loop at full concurrency: the sustained completion rate
    // is the capacity.
    rep.e2e("capacity_jps", okPerSec, "jobs/s");
    const std::vector<double> &lat = checks.latMs;
    std::size_t beyond = 0;
    const double tail = tailLatency(lat, tailQ, beyond);
    rep.e2e("latency_p50_ms", median(lat), "ms");
    rep.e2e("latency_tail_ms", tail, "ms");
    std::printf("latency: %zu samples, p50 %.3f ms, tail p%.0f %.3f ms "
                "(%zu samples beyond)\n",
                lat.size(), median(lat), 100.0 * tailQ, tail, beyond);
    std::sort(qset.begin(), qset.end(),
              [](const JobRecord *a, const JobRecord *b) {
                  return a->index < b->index;
              });
    std::vector<Quality> q;
    for (const JobRecord *r : qset)
        if (r->result.ok)
            q.push_back(qualityOf(r->result));
    reportQuality(rep, q);
    checkDeterminism(target, qset, scope, rep);
}

} // namespace

std::unique_ptr<service::CompileService>
makeWarmService(const Target &target, int workers)
{
    auto svc = std::make_unique<service::CompileService>(
        target.serviceOptions(workers));
    svc->wait(svc->submit(target.request({"warmup", warmupCircuit()})));
    return svc;
}

double
setupOnce(const Config &cfg)
{
    if (cfg.workload == "daemon-warm")
        return daemonWarmSetupOnce(cfg);
    const Clock::time_point t0 = Clock::now();
    const bool chip = cfg.workload == "sweep-chip";
    const Target target = chip ? sweepChipTarget(cfg) : Target{};
    const auto svc = makeWarmService(target, chip ? 1 : serviceWorkers());
    return secondsSince(t0);
}

void
runColdLogic(const Config &cfg, Report &rep)
{
    const Target target;  // device-agnostic
    const int workers = serviceWorkers();
    // Set-up (lazy template tables) is setup_s's, not the loop's.
    makeWarmService(target, workers);

    // Round r compiles on its own fresh service (empty SU(4) caches).
    // The client keeps `workers` jobs in flight across round
    // boundaries: the next round's service takes new submissions while
    // the last jobs of the previous one finish, and a service is
    // retired once its round is done. At most `workers` jobs run at any
    // time, so at most `workers` service threads are busy.
    struct Round
    {
        std::unique_ptr<service::CompileService> svc;
        std::size_t remaining = 0;
    };
    std::map<int, Round> live;
    compiler::CacheCounters synthTotal, pulseTotal;
    int round = -1;
    std::vector<Request> reqs;
    std::size_t pos = 0;
    resetPeakRss();
    const Clock::time_point t0 = Clock::now();
    std::vector<JobRecord> all = runClosedLoop(
        target, workers,
        [&](Feed &f) {
            if (pos >= reqs.size()) {
                if (round + 1 >= kColdQualityRounds &&
                    secondsSince(t0) >= cfg.seconds)
                    return false;
                reqs = coldLogicRound(cfg.seed, ++round);
                pos = 0;
                live[round] = {std::make_unique<service::CompileService>(
                                   target.serviceOptions(workers)),
                               reqs.size()};
            }
            f.index = static_cast<std::int64_t>(round) * kColdRoundSize +
                      static_cast<std::int64_t>(pos);
            f.request = std::move(reqs[pos++]);
            f.service = live[round].svc.get();
            return true;
        },
        [&](const JobRecord &r) {
            const auto it =
                live.find(static_cast<int>(r.index / kColdRoundSize));
            if (--it->second.remaining > 0)
                return true;
            const compiler::CacheCounters s =
                                              it->second.svc->synthCacheStats(),
                                          p =
                                              it->second.svc->pulseCacheStats();
            synthTotal.hits += s.hits;
            synthTotal.misses += s.misses;
            pulseTotal.hits += p.hits;
            pulseTotal.misses += p.misses;
            live.erase(it);
            return true;
        });
    const double wall = secondsSince(t0);
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
    std::printf("cold-logic: %d rounds, %zu circuits in %.3f s, "
                "%d service workers\n",
                round + 1, all.size(), wall, workers);
    Checks checks(cfg);
    ServiceSamples samples;
    std::vector<const JobRecord *> qset;
    for (const JobRecord &r : all) {
        checks.add(r, rep);
        samples.add(r);
        if (r.index < kColdQualityRounds * kColdRoundSize)
            qset.push_back(&r);
    }
    if (cfg.trace)
        reportServiceLayer(rep, samples, synthTotal, pulseTotal);
    finishClosedLoop(target, checks, qset, wall, kColdTail,
                     kColdRoundSize, rep);
    if (cfg.trace) {
        LayerInputs in;
        in.target = target;
        for (const JobRecord *r : qset)
            in.requests.push_back(r->request);
        in.haveServiceLayer = true;
        probeLayers(cfg, in, rep);
    }
}

void
runSweepChip(const Config &cfg, Report &rep)
{
    const Clock::time_point setupStart = Clock::now();
    const Target target = sweepChipTarget(cfg);
    const std::unique_ptr<service::CompileService> svc =
        makeWarmService(target, 1);
    std::printf("sweep-chip: in-process setup %.4f s\n",
                secondsSince(setupStart));
    const compiler::CacheCounters s0 = svc->synthCacheStats(),
                                  p0 = svc->pulseCacheStats();
    // Each request is checked as it completes, with the clock paused:
    // the client is sequential, so nothing is in flight meanwhile, and
    // only the quality set is kept (thousands of full results would
    // otherwise dominate the process's memory).
    Checks checks(cfg);
    ServiceSamples samples;
    std::int64_t nextIndex = 0;
    double paused = 0.0;
    resetPeakRss();
    const Clock::time_point t0 = Clock::now();
    std::vector<JobRecord> kept = runClosedLoop(
        target, 1,
        [&](Feed &f) {
            if (nextIndex >= kSweepQualityRequests &&
                secondsSince(t0) - paused >= cfg.seconds)
                return false;
            f.index = nextIndex++;
            f.request = sweepRequest(cfg.seed, f.index);
            f.service = svc.get();
            return true;
        },
        [&](const JobRecord &r) {
            const Clock::time_point p0 = Clock::now();
            checks.add(r, rep);
            samples.add(r);
            paused += secondsSince(p0);
            return r.index < kSweepQualityRequests;
        });
    const double active = secondsSince(t0) - paused;
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
    std::printf("sweep-chip: %lld circuits in %.3f s on %s\n",
                static_cast<long long>(checks.attempted), active,
                target.chip->name().c_str());
    std::vector<const JobRecord *> qset;
    for (const JobRecord &r : kept)
        qset.push_back(&r);
    if (cfg.trace) {
        compiler::CacheCounters s = svc->synthCacheStats(),
                                p = svc->pulseCacheStats();
        s.hits -= s0.hits;
        s.misses -= s0.misses;
        p.hits -= p0.hits;
        p.misses -= p0.misses;
        reportServiceLayer(rep, samples, s, p);
    }
    finishClosedLoop(target, checks, qset, active, kSweepTail, 0, rep);
    if (cfg.trace) {
        LayerInputs in;
        in.target = target;
        for (const JobRecord *r : qset)
            in.requests.push_back(r->request);
        in.haveServiceLayer = true;
        probeLayers(cfg, in, rep);
    }
}

void
ServiceSamples::add(const JobRecord &r)
{
    if (!r.passes)
        return;
    startDelayMs.push_back(msBetween(r.submitted, r.firstPass));
    postPassMs.push_back(msBetween(r.lastPass, r.doneAt));
}

void
reportServiceLayer(Report &rep, const ServiceSamples &s,
                   const compiler::CacheCounters &synth,
                   const compiler::CacheCounters &pulse)
{
    rep.layer("service.start_delay_ms_p50", median(s.startDelayMs), "ms");
    rep.layer("service.start_delay_ms_p99", quantile(s.startDelayMs, 0.99),
              "ms");
    rep.layer("service.post_pass_ms_p50", median(s.postPassMs), "ms");
    rep.layer("service.synth_hit_ratio", synth.hitRate(), "fraction");
    rep.layer("service.pulse_hit_ratio", pulse.hitRate(), "fraction");
}

} // namespace perfbench
