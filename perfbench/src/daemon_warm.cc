/**
 * @file
 * daemon-warm: open-loop Poisson load at fixed absolute rates into an
 * in-process reqisc-compiled (CompileDaemon over loopback HTTP) that
 * warm-starts from SU(4) caches persisted during preparation.
 *
 * Separate submitter and poller threads: the submitter sends each
 * request at its due time whether or not earlier ones finished, the
 * poller polls status and fetches result documents. Latency runs
 * from a request's due time to the moment its result document is in
 * hand, so a stall also charges the requests queued behind it.
 */

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <random>
#include <thread>
#include <unistd.h>

#include "backend/json.hh"
#include "circuit/qasm.hh"
#include "daemon/daemon.hh"
#include "isa/assembly.hh"
#include "isa/fidelity.hh"
#include "oracle.hh"
#include "service/api.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace reqisc;

namespace
{

/**
 * Fixed absolute offered rates, jobs/s. The first is the rate the
 * latency metrics are read at; the ladder stops at the first rate
 * that misses the limit.
 */
constexpr double kRates[] = {20, 50, 80, 110, 140, 170, 200, 240, 280, 320};
/**
 * Tail-latency limit a rate must meet to count toward capacity. It
 * sits well above the unloaded tail (~40 ms: the pool's slowest entry
 * compiles in ~33 ms), so it bites where the queue starts to grow and
 * not on the noise of a lightly loaded tail.
 */
constexpr double kLimitMs = 250.0;
/** A rate is sustained when completions keep up with this share of it. */
constexpr double kKeepUp = 0.93;
/** Share of the run spent at the lowest rate. */
constexpr double kBaseShare = 0.5;
constexpr double kStepSeconds = 1.5;
constexpr double kBaseTail = 0.95;
constexpr std::size_t kMaxQueue = 64;
/** Outstanding jobs the poller asks about per sweep (1 ms apart), oldest
 *  first: a fixed, bounded status-poll load on the daemon. */
constexpr std::size_t kPollWindow = 1;

struct Endpoint
{
    int port = 0;
};

struct Call
{
    int status = 0;
    std::string body;
    double ms = 0.0;
};

Call
call(const Endpoint &ep, const char *method, const std::string &target,
     const std::string &body, const char *span, std::uint64_t request)
{
    Call c;
    daemon::HttpClientResponse res;
    std::string error;
    trace::Scope s(span, request);
    if (daemon::httpRequest("127.0.0.1", ep.port, method, target, body,
                            {}, res, error)) {
        c.status = res.status;
        c.body = std::move(res.body);
    }
    c.ms = s.stop() * 1e3;
    return c;
}

/** The client-side tallies daemon.* metrics are made from. */
struct DaemonStats
{
    std::mutex mu;
    std::vector<double> submitMs, statusMs, resultMs, lagMs;
    std::int64_t polls = 0, jobs = 0, refused = 0, backlogEnd = 0;
};

/** One fetched result document, reduced to what the checks need. */
struct Fetched
{
    std::size_t pool = 0;  //!< pool index of the request
    std::int64_t seq = 0;  //!< request sequence number
    double latencyMs = 0.0;
    bool ok = false;
    std::string error;
    std::string circuitQasm, isaText;
    std::vector<int> perm;
    Quality quality;
};

Fetched
parseResult(const std::string &body)
{
    Fetched f;
    try {
        const backend::JsonValue doc = backend::parseJson(body, "result");
        const backend::JsonValue *ok = doc.find("ok");
        f.ok = ok && ok->boolean;
        if (!f.ok) {
            const backend::JsonValue *e = doc.find("error");
            f.error = e ? backend::dumpJson(*e) : "not ok";
            return f;
        }
        auto num = [&](const char *key) {
            const backend::JsonValue *v = doc.find(key);
            return v && v->isNumber() ? v->number : 0.0;
        };
        f.quality.count2Q = num("count2Q");
        f.quality.depth2Q = num("depth2Q");
        f.quality.duration = num("duration");
        f.quality.distinctSU4 = num("distinctSU4");
        if (const backend::JsonValue *s = doc.find("schedule")) {
            if (const backend::JsonValue *m = s->find("makespan"))
                f.quality.makespan = m->number;
            if (const backend::JsonValue *isa = s->find("isa"))
                f.isaText = isa->str;
        }
        if (const backend::JsonValue *c = doc.find("circuit"))
            f.circuitQasm = c->str;
        if (const backend::JsonValue *p = doc.find("finalPermutation"))
            for (const backend::JsonValue &x : p->array)
                f.perm.push_back(static_cast<int>(x.number));
    } catch (const std::exception &e) {
        f.ok = false;
        f.error = std::string("unparsable result: ") + e.what();
    }
    return f;
}

std::string
statusOf(const std::string &body)
{
    try {
        const backend::JsonValue doc = backend::parseJson(body, "status");
        if (const backend::JsonValue *s = doc.find("status"))
            return s->str;
    } catch (const std::exception &) {
    }
    return "";
}

std::uint64_t
idOf(const std::string &body)
{
    try {
        const backend::JsonValue doc = backend::parseJson(body, "submit");
        if (const backend::JsonValue *id = doc.find("id"))
            return static_cast<std::uint64_t>(id->number);
    } catch (const std::exception &) {
    }
    return 0;
}

std::string
jobBody(const Target &target, const Request &r)
{
    return backend::dumpJson(
        service::api::compileRequestToJson(target.request(r)));
}

daemon::DaemonOptions
daemonOptions(const Target &target, const std::string &cacheDir)
{
    daemon::DaemonOptions o;
    o.service = target.serviceOptions(1);
    o.service.cacheDir = cacheDir;
    o.http.handlerThreads = 1;
    o.maxQueue = kMaxQueue;
    return o;
}

/**
 * Serve one job through the daemon, closed loop: submit, poll its
 * status until it finishes, fetch the result document.
 */
Fetched
serveOne(const Endpoint &ep, const std::string &body, std::int64_t seq,
         DaemonStats &st)
{
    // Closed loop: each request is due when the previous one is in
    // hand, so the generator lag is the client's own turnaround.
    const Clock::time_point due = Clock::now();
    const std::uint64_t req = static_cast<std::uint64_t>(seq) + 1;
    const double lag = msBetween(due, Clock::now());
    const Call sub = call(ep, "POST", "/v1/jobs", body,
                          "daemon.submit", req);
    Fetched f;
    f.seq = seq;
    std::lock_guard<std::mutex> lk(st.mu);
    st.submitMs.push_back(sub.ms);
    st.lagMs.push_back(lag);
    const std::uint64_t id = sub.status == 202 ? idOf(sub.body) : 0;
    if (!id) {
        ++st.refused;
        f.error = "refused with HTTP " + std::to_string(sub.status);
        return f;
    }
    const std::string path = "/v1/jobs/" + std::to_string(id);
    for (;;) {
        const Call s = call(ep, "GET", path, "", "daemon.status", req);
        st.statusMs.push_back(s.ms);
        ++st.polls;
        const std::string state = statusOf(s.body);
        if (state == "done" || state == "failed")
            break;
        if (s.status != 200) {
            f.error = "status HTTP " + std::to_string(s.status);
            return f;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Call r =
        call(ep, "GET", path + "/result", "", "daemon.result", req);
    st.resultMs.push_back(r.ms);
    ++st.jobs;
    Fetched parsed = parseResult(r.body);
    parsed.seq = seq;
    parsed.latencyMs = msBetween(due, Clock::now());
    return parsed;
}

void
reportDaemonLayer(Report &rep, DaemonStats &st, const Endpoint &ep)
{
    std::vector<double> healthz;
    for (int i = 0; i < 50; ++i)
        healthz.push_back(
            call(ep, "GET", "/healthz", "", "daemon.healthz", 0).ms);
    rep.layer("daemon.healthz_ms_p50", median(healthz), "ms");
    rep.layer("daemon.submit_ms_p50", median(st.submitMs), "ms");
    rep.layer("daemon.submit_ms_p99", quantile(st.submitMs, 0.99), "ms");
    rep.layer("daemon.status_ms_p50", median(st.statusMs), "ms");
    rep.layer("daemon.result_ms_p50", median(st.resultMs), "ms");
    rep.layer("daemon.polls_per_job",
              st.jobs ? static_cast<double>(st.polls) /
                            static_cast<double>(st.jobs)
                      : 0.0,
              "count");
    rep.layer("daemon.refused", static_cast<double>(st.refused), "count");
    rep.layer("daemon.generator_lag_ms_p99", quantile(st.lagMs, 0.99),
              "ms");
    rep.layer("daemon.backlog_end", static_cast<double>(st.backlogEnd),
              "count");
}

/** One fixed-rate step of the open-loop generator. */
struct Step
{
    double rate = 0.0;
    std::vector<double> latMs;
    std::vector<Fetched> fetched;
    std::int64_t attempted = 0, refused = 0, failed = 0, unfinished = 0;
    std::int64_t backlogEnd = 0;
    double lagP99 = 0.0, tailMs = 0.0, wallSeconds = 0.0;
    /** Jobs completed per second while arrivals lasted. */
    double completionRate = 0.0;
    std::size_t tailBeyond = 0;
    bool pass = false;
};

/**
 * Poisson arrivals at `rate` for `seconds`. Requests walk the pool in
 * shuffled passes (each consecutive pool.size() requests cover every
 * entry once), so the mix of cheap and expensive circuits, which sets
 * the latency percentiles, is the same at every seed.
 */
Step
runStep(const Endpoint &ep, const std::vector<std::string> &bodies,
        double rate, double seconds, qmath::Rng &rng, std::int64_t &seq,
        std::vector<std::size_t> &order, DaemonStats &st)
{
    Step step;
    step.rate = rate;
    struct Pending
    {
        std::uint64_t id;
        std::size_t pool;
        std::int64_t seq;
        Clock::time_point due;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Pending> queue;
    bool submitterDone = false;
    std::int64_t accepted = 0, finished = 0, inWindow = 0;

    // Arrival schedule and pool draws, fixed before the clock starts.
    // A Poisson process conditioned on its count: exactly
    // rate * seconds arrivals at sorted uniform times, so every seed
    // offers the same load and only the arrival pattern varies.
    std::uniform_real_distribution<double> when(0.0, seconds);
    std::vector<double> times(static_cast<std::size_t>(rate * seconds));
    for (double &t : times)
        t = when(rng);
    std::sort(times.begin(), times.end());
    std::vector<std::pair<double, std::size_t>> plan;
    for (double t : times) {
        if (order.empty()) {
            for (std::size_t i = 0; i < bodies.size(); ++i)
                order.push_back(i);
            std::shuffle(order.begin(), order.end(), rng);
        }
        plan.emplace_back(t, order.back());
        order.pop_back();
    }
    const std::int64_t seq0 = seq;
    seq += static_cast<std::int64_t>(plan.size());
    const Clock::time_point start = Clock::now();
    const auto at = [&](double t) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(t));
    };

    std::thread submitter([&] {
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const Clock::time_point due = at(plan[i].first);
            std::this_thread::sleep_until(due);
            const double lag = msBetween(due, Clock::now());
            const std::int64_t s = seq0 + static_cast<std::int64_t>(i);
            const Call c = call(ep, "POST", "/v1/jobs",
                                bodies[plan[i].second], "daemon.submit",
                                static_cast<std::uint64_t>(s) + 1);
            const std::uint64_t id = c.status == 202 ? idOf(c.body) : 0;
            std::lock_guard<std::mutex> lk(mu);
            {
                std::lock_guard<std::mutex> sl(st.mu);
                st.submitMs.push_back(c.ms);
                st.lagMs.push_back(lag);
            }
            step.lagP99 = std::max(step.lagP99, lag);
            ++step.attempted;
            if (!id) {
                // 429 queue-full / 503 draining / transport error.
                ++step.refused;
                continue;
            }
            ++accepted;
            queue.push_back({id, plan[i].second, s, due});
            cv.notify_all();
        }
        std::lock_guard<std::mutex> lk(mu);
        step.backlogEnd = accepted - finished;
        submitterDone = true;
        cv.notify_all();
    });

    // Jobs still unfinished this long after the last arrival count as
    // missing the limit (the step is then over capacity anyway).
    const Clock::time_point hardStop = at(seconds + 3.0);
    std::thread poller([&] {
        std::vector<Pending> outstanding;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(mu);
                if (outstanding.empty())
                    cv.wait_for(lk, std::chrono::milliseconds(5), [&] {
                        return !queue.empty() || submitterDone;
                    });
                outstanding.insert(outstanding.end(), queue.begin(),
                                   queue.end());
                queue.clear();
                if (submitterDone && outstanding.empty())
                    return;
            }
            if (Clock::now() > hardStop) {
                std::lock_guard<std::mutex> lk(mu);
                step.unfinished += static_cast<std::int64_t>(
                    outstanding.size());
                return;
            }
            // The daemon runs jobs in arrival order, so the oldest
            // outstanding jobs finish first; polling only those keeps
            // the client from flooding the daemon with status requests
            // as its backlog grows.
            std::size_t polled = 0;
            for (auto it = outstanding.begin();
                 it != outstanding.end() && polled < kPollWindow;
                 ++polled) {
                const std::uint64_t req =
                    static_cast<std::uint64_t>(it->seq) + 1;
                const std::string path = "/v1/jobs/" + std::to_string(it->id);
                const Call s =
                    call(ep, "GET", path, "", "daemon.status", req);
                const std::string state = statusOf(s.body);
                {
                    std::lock_guard<std::mutex> sl(st.mu);
                    st.statusMs.push_back(s.ms);
                    ++st.polls;
                }
                if (state != "done" && state != "failed" &&
                    s.status == 200) {
                    ++it;
                    continue;
                }
                const Call r = call(ep, "GET", path + "/result", "",
                                    "daemon.result", req);
                Fetched f = parseResult(r.body);
                f.pool = it->pool;
                f.seq = it->seq;
                f.latencyMs = msBetween(it->due, Clock::now());
                {
                    std::lock_guard<std::mutex> sl(st.mu);
                    st.resultMs.push_back(r.ms);
                    ++st.jobs;
                }
                std::lock_guard<std::mutex> lk(mu);
                ++finished;
                if (!submitterDone)
                    ++inWindow;
                step.latMs.push_back(f.latencyMs);
                if (!f.ok)
                    ++step.failed;
                step.fetched.push_back(std::move(f));
                it = outstanding.erase(it);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    submitter.join();
    poller.join();
    step.wallSeconds = secondsSince(start);
    step.completionRate = static_cast<double>(inWindow) / seconds;
    // 250 samples at the base rate (p95, 12 beyond), fewer at each
    // ladder step (p90).
    step.tailMs = tailLatency(step.latMs, rate == kRates[0] ? kBaseTail
                                                            : 0.90,
                              step.tailBeyond);
    // No growing backlog: while arrivals last, jobs complete at (nearly)
    // the offered rate. The shortfall allowed covers the first jobs'
    // own latency at the start of the step.
    step.pass = step.refused == 0 && step.failed == 0 &&
                step.unfinished == 0 && step.tailMs <= kLimitMs &&
                step.completionRate >= kKeepUp * rate;
    return step;
}

/**
 * The highest fixed rate that meets the limit, refined by the first
 * rate that misses it: past capacity the daemon completes jobs at its
 * capacity while the backlog grows, so the completion rate measured
 * during that step, clamped between the two rates, places capacity
 * inside the gap instead of on its lower edge.
 */
double
capacityOf(const std::vector<Step> &steps)
{
    double capacity = 0.0;
    for (const Step &s : steps) {
        if (s.pass) {
            capacity = s.rate;
            continue;
        }
        capacity = std::clamp(s.completionRate, capacity, s.rate);
        break;
    }
    return capacity;
}

std::uint64_t
fetchedDigest(const Fetched &f)
{
    return artifactDigest(f.circuitQasm, f.perm, "", {}, f.isaText);
}

} // namespace

void
prepareDaemonCache(Config &cfg)
{
    cfg.cacheDir = cfg.outDir + "/cache-" + std::to_string(::getpid());
    std::filesystem::remove_all(cfg.cacheDir);
    std::filesystem::create_directories(cfg.cacheDir);
    const Target target;  // device-agnostic
    service::ServiceOptions o = target.serviceOptions(serviceWorkers());
    o.cacheDir = cfg.cacheDir;
    service::CompileService svc(o);
    std::vector<service::CompileRequest> reqs;
    for (const Request &r : daemonPool())
        reqs.push_back(target.request(r));
    svc.submitBatch(std::move(reqs));
    svc.waitAll();
    if (!svc.saveCaches())
        throw std::runtime_error("cannot persist caches to " +
                                 cfg.cacheDir);
}

double
daemonWarmSetupOnce(const Config &cfg)
{
    const Clock::time_point t0 = Clock::now();
    const Target target;  // device-agnostic
    daemon::CompileDaemon d(daemonOptions(target, cfg.cacheDir));
    std::string error;
    if (!d.start(error))
        throw std::runtime_error("daemon start: " + error);
    DaemonStats st;
    const Fetched f = serveOne({d.port()},
                               jobBody(target, {"warmup", warmupCircuit()}),
                               0, st);
    if (!f.ok)
        throw std::runtime_error("warm-up request failed: " + f.error);
    const double s = secondsSince(t0);
    d.stop();
    return s;
}

void
daemonProbe(const Target &target, const std::vector<Request> &reqs,
            Report &rep)
{
    daemon::CompileDaemon d(daemonOptions(target, ""));
    std::string error;
    if (!d.start(error))
        throw std::runtime_error("daemon start: " + error);
    DaemonStats st;
    std::int64_t seq = 0;
    for (const Request &r : reqs) {
        const Fetched f = serveOne({d.port()}, jobBody(target, r), seq++, st);
        if (!f.ok)
            rep.fail("daemon probe: " + r.name + ": " + f.error);
    }
    reportDaemonLayer(rep, st, {d.port()});
    d.stop();
}

void
runDaemonWarm(const Config &cfg, Report &rep)
{
    const Target target;  // device-agnostic
    const std::vector<Request> pool = daemonPool();
    std::vector<std::string> bodies;
    for (const Request &r : pool)
        bodies.push_back(jobBody(target, r));

    const Clock::time_point setupStart = Clock::now();
    daemon::CompileDaemon d(daemonOptions(target, cfg.cacheDir));
    std::string error;
    if (!d.start(error))
        throw std::runtime_error("daemon start: " + error);
    const Endpoint ep{d.port()};
    {
        DaemonStats warm;
        const Fetched f = serveOne(
            ep, jobBody(target, {"warmup", warmupCircuit()}), -1, warm);
        if (!f.ok)
            throw std::runtime_error("warm-up request failed: " + f.error);
    }
    std::printf("daemon-warm: in-process setup %.4f s (synth cache %s, "
                "pulse cache %s)\n",
                secondsSince(setupStart),
                d.service().synthCacheWarmStarted() ? "loaded" : "cold",
                d.service().pulseCacheWarmStarted() ? "loaded" : "cold");
    if (!d.service().synthCacheWarmStarted() ||
        !d.service().pulseCacheWarmStarted())
        rep.fail("daemon did not warm-start from the prepared caches");

    const compiler::CacheCounters s0 = d.service().synthCacheStats(),
                                  p0 = d.service().pulseCacheStats();
    qmath::Rng rng = streamRng(cfg.seed, 4, 0);
    std::vector<std::size_t> order;
    DaemonStats st;
    std::vector<Step> steps;
    std::int64_t seq = 0;
    resetPeakRss();
    const Clock::time_point t0 = Clock::now();
    steps.push_back(runStep(ep, bodies, kRates[0],
                            cfg.seconds * kBaseShare, rng, seq,
                            order, st));
    // Memory is read at the base rate, before the ladder: the ladder's
    // length (and the result documents it retains) follows capacity.
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
    std::int64_t capacityBacklog = steps.back().backlogEnd;
    for (std::size_t i = 1; i < std::size(kRates) && steps.back().pass &&
                            secondsSince(t0) + kStepSeconds <= cfg.seconds;
         ++i) {
        steps.push_back(runStep(ep, bodies, kRates[i], kStepSeconds, rng,
                                seq, order, st));
        if (steps.back().pass)
            capacityBacklog = steps.back().backlogEnd;
    }
    const double capacity = capacityOf(steps);
    for (const Step &s : steps)
        std::printf("step %6.1f jobs/s: %lld sent, %lld refused, %lld "
                    "failed, %lld unfinished, tail %.3f ms (%zu beyond), "
                    "backlog at end %lld, generator lag max %.3f ms, "
                    "%.1f completions/s -> %s\n",
                    s.rate, static_cast<long long>(s.attempted),
                    static_cast<long long>(s.refused),
                    static_cast<long long>(s.failed),
                    static_cast<long long>(s.unfinished), s.tailMs,
                    s.tailBeyond,
                    static_cast<long long>(s.backlogEnd), s.lagP99,
                    s.completionRate,
                    s.pass ? "meets limit" : "misses limit");

    // ---- outside the timed region: oracle + determinism -------------
    std::int64_t attempted = 0, bad = 0;
    std::vector<std::uint64_t> poolDigest(pool.size(), 0);
    std::vector<const Fetched *> poolDoc(pool.size(), nullptr);
    bool selfChecked = false;
    for (std::size_t si = 0; si < steps.size(); ++si) {
        const Step &s = steps[si];
        attempted += s.attempted;
        // Refusals and leftovers at the rate that ended the ladder are
        // the capacity probe doing its job; everywhere else they are
        // errors.
        const bool overloadStep = si + 1 == steps.size() && !s.pass;
        if (!overloadStep)
            bad += s.refused + s.unfinished;
        for (const Fetched &f : s.fetched) {
            std::string why = f.ok ? "" : "job failed: " + f.error;
            if (why.empty()) {
                try {
                    const circuit::Circuit art =
                        circuit::fromQasm(f.circuitQasm);
                    const std::uint64_t seed =
                        fnv1a(pool[f.pool].name, cfg.seed);
                    why = oracle::checkLogical(pool[f.pool].circuit, art,
                                               f.perm, seed);
                    if (why.empty() && !selfChecked) {
                        selfChecked = true;
                        if (std::string e = oracle::selfCheck(
                                pool[f.pool].circuit, art, f.perm, seed);
                            !e.empty())
                            rep.fail("oracle self-check: " + e);
                    }
                } catch (const std::exception &e) {
                    why = std::string("artifact does not parse: ") +
                          e.what();
                }
            }
            if (why.empty()) {
                const std::uint64_t dg = fetchedDigest(f);
                if (!poolDigest[f.pool]) {
                    poolDigest[f.pool] = dg;
                    poolDoc[f.pool] = &f;
                } else if (poolDigest[f.pool] != dg) {
                    rep.fail("nondeterministic artifact across requests: " +
                             pool[f.pool].name);
                }
            } else {
                ++bad;
                std::printf("wrong: %s (request %lld): %s\n",
                            pool[f.pool].name.c_str(),
                            static_cast<long long>(f.seq), why.c_str());
            }
        }
    }
    if (!selfChecked)
        rep.fail("oracle self-check never ran (no good artifact)");
    rep.attempted = attempted;
    rep.failed = bad;

    // Determinism across surfaces and worker counts: the pool compiled
    // in-process on a fresh service (two job workers, two block
    // workers) must digest exactly like the daemon's documents.
    {
        service::ServiceOptions o = target.serviceOptions(2);
        o.blockWorkers = 2;
        service::CompileService svc(o);
        std::vector<service::CompileRequest> reqs;
        for (const Request &r : pool)
            reqs.push_back(target.request(r));
        svc.submitBatch(std::move(reqs));
        const std::vector<service::JobResult> again = svc.waitAll();
        std::uint64_t digest = 1469598103934665603ull;
        std::vector<Quality> q;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            digest = fnv1a(hex64(poolDigest[i]), digest);
            if (!poolDoc[i]) {
                rep.fail("pool entry never served: " + pool[i].name);
                continue;
            }
            if (jobDigest(again[i]) != poolDigest[i])
                rep.fail("daemon artifact differs from in-process "
                         "compile: " + pool[i].name);
            Quality qi = poolDoc[i]->quality;
            qi.fidelity = isa::analyticFidelity(
                isa::fromAssembly(poolDoc[i]->isaText), isa::NoiseModel{});
            q.push_back(qi);
        }
        std::printf("artifact digest (pool, %zu artifacts): %s\n",
                    pool.size(), hex64(digest).c_str());
        reportQuality(rep, q);
    }

    const Step &base = steps.front();
    std::printf("latency at %.0f jobs/s: %zu samples, p50 %.3f ms, tail "
                "p%.0f %.3f ms, %zu beyond (limit %.0f ms)\n",
                base.rate, base.latMs.size(), median(base.latMs),
                100.0 * kBaseTail, base.tailMs, base.tailBeyond, kLimitMs);
    rep.e2e("latency_p50_ms", median(base.latMs), "ms");
    rep.e2e("latency_tail_ms", base.tailMs, "ms");
    rep.e2e("capacity_jps", capacity, "jobs/s");
    // Open loop: completions follow the offered rate, so throughput is
    // read at the base rate, where every request should complete.
    rep.e2e("throughput_cps",
            static_cast<double>(base.fetched.size() - base.failed) /
                base.wallSeconds,
            "circuits/s");

    if (cfg.trace) {
        st.backlogEnd = capacityBacklog;
        reportDaemonLayer(rep, st, ep);
        compiler::CacheCounters s = d.service().synthCacheStats(),
                                p = d.service().pulseCacheStats();
        s.hits -= s0.hits;
        s.misses -= s0.misses;
        p.hits -= p0.hits;
        p.misses -= p0.misses;
        rep.layer("service.synth_hit_ratio", s.hitRate(), "fraction");
        rep.layer("service.pulse_hit_ratio", p.hitRate(), "fraction");
    }
    d.beginDrain();
    d.waitDrained();
    d.stop();

    if (cfg.trace) {
        LayerInputs in;
        in.target = target;
        in.requests = pool;
        in.haveDaemonLayer = true;
        probeLayers(cfg, in, rep);
    }
}

} // namespace perfbench
