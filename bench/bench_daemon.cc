/**
 * @file
 * Daemon benchmark: load against an in-process reqisc-compiled (real
 * HTTP over loopback — the socket loop, the parser and the registry
 * are all on the measured path).
 *
 * Two phases:
 *  1. A back-to-back batch — every job is submitted first, then
 *     each is awaited, so the queue is as deep as the batch. Reports
 *     submit-to-done p50/p99 latency; every accepted job must
 *     complete (daemonCompletedOk). Open-loop throughput against a
 *     Poisson generator is perfbench's daemon-warm workload
 *     (capacity_jps), not this bench's.
 *  2. Overload — a daemon with --max-queue 1 and a deliberately
 *     slowed full pipeline (REQISC_PASS_DELAY_MS on hier-synth, so
 *     phase 1's eff jobs are unaffected) takes a back-to-back
 *     burst; the surplus must come back as immediate structured
 *     429s (daemonOverloadRejects), never blocking or crashing.
 *
 * --json emits the perf-guard summary for bench/baselines.json; the
 * guarded keys are ratio/count-stable on any runner speed.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "backend/json.hh"
#include "circuit/qasm.hh"
#include "common.hh"
#include "daemon/daemon.hh"
#include "suite/suite.hh"

using namespace reqisc;
using namespace reqisc::benchtool;

namespace
{

using Clock = std::chrono::steady_clock;

struct Endpoint
{
    std::string host = "127.0.0.1";
    int port = 0;
};

/** POST a job; returns the id (0 on any rejection). */
std::uint64_t
submitJob(const Endpoint &ep, const std::string &body, int &status)
{
    daemon::HttpClientResponse res;
    std::string error;
    if (!daemon::httpRequest(ep.host, ep.port, "POST", "/v1/jobs",
                             body, {}, res, error)) {
        status = 0;
        return 0;
    }
    status = res.status;
    if (res.status != 202)
        return 0;
    try {
        const backend::JsonValue doc =
            backend::parseJson(res.body, "response");
        if (const backend::JsonValue *id = doc.find("id"))
            return static_cast<std::uint64_t>(id->number);
    } catch (const backend::JsonError &) {
    }
    return 0;
}

/** Poll /v1/jobs/{id} until done/failed; true iff it ended ok. */
bool
awaitJob(const Endpoint &ep, std::uint64_t id)
{
    const std::string target = "/v1/jobs/" + std::to_string(id);
    for (;;) {
        daemon::HttpClientResponse res;
        std::string error;
        if (!daemon::httpRequest(ep.host, ep.port, "GET", target,
                                 "", {}, res, error) ||
            res.status != 200)
            return false;
        try {
            const backend::JsonValue doc =
                backend::parseJson(res.body, "status");
            const backend::JsonValue *st = doc.find("status");
            if (st && st->isString()) {
                if (st->str == "done")
                    return true;
                if (st->str == "failed" || st->str == "canceled")
                    return false;
            }
        } catch (const backend::JsonError &) {
            return false;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2));
    }
}

std::string
jobBody(const std::string &qasm, const std::string &pipeline,
        int index)
{
    backend::JsonValue doc = backend::JsonValue::makeObject();
    doc.set("apiVersion", backend::JsonValue::makeNumber(1));
    doc.set("name", backend::JsonValue::makeString(
                        "load-" + std::to_string(index)));
    doc.set("qasm", backend::JsonValue::makeString(qasm));
    doc.set("pipeline", backend::JsonValue::makeString(pipeline));
    return backend::dumpJson(doc);
}

double
quantile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    // Slow only the full pipeline (hier-synth does not run under
    // eff), making the overload phase deterministic on any machine
    // while leaving the latency phase unaffected. Must be set
    // before the first compile (the delay map is read once).
    setenv("REQISC_PASS_DELAY_MS", "hier-synth=150", 0);

    const Options opt = parseOptions(argc, argv);
    const int jobsTotal = opt.full ? 60 : 16;
    const std::string qasm =
        circuit::toQasm(suite::smallSuite().front().circuit);

    // ---- Phase 1: a back-to-back batch --------------------------------
    daemon::DaemonOptions dopts;
    dopts.service.threads = 1;
    dopts.http.port = 0;
    dopts.maxQueue = 0;  // unbounded; overload is phase 2's job
    daemon::CompileDaemon d(dopts);
    std::string error;
    if (!d.start(error)) {
        std::fprintf(stderr, "bench_daemon: %s\n", error.c_str());
        return 1;
    }
    Endpoint ep;
    ep.port = d.port();

    struct Submitted
    {
        std::uint64_t id;
        Clock::time_point at;
    };
    std::vector<Submitted> submitted;
    for (int i = 0; i < jobsTotal; ++i) {
        int status = 0;
        const auto at = Clock::now();
        const std::uint64_t id =
            submitJob(ep, jobBody(qasm, "eff", i), status);
        if (id != 0)
            submitted.push_back({id, at});
    }
    // FIFO service at 1 worker: awaiting in submission order
    // observes each completion promptly.
    std::vector<double> latencies;
    int completed = 0;
    for (const Submitted &job : submitted) {
        if (!awaitJob(ep, job.id))
            continue;
        ++completed;
        latencies.push_back(
            std::chrono::duration<double>(Clock::now() - job.at)
                .count());
    }
    const int accepted = static_cast<int>(submitted.size());
    d.beginDrain();
    d.waitDrained();
    d.stop();

    const double completedOk =
        accepted ? static_cast<double>(completed) / accepted : 0.0;
    const double p50 = quantile(latencies, 0.50);
    const double p99 = quantile(latencies, 0.99);

    // ---- Phase 2: overload against a bounded queue --------------------
    int overloadAccepted = 0, overloadRejects = 0, overloadOther = 0;
    {
        daemon::DaemonOptions oopts;
        oopts.service.threads = 1;
        oopts.http.port = 0;
        oopts.maxQueue = 1;
        daemon::CompileDaemon od(oopts);
        if (!od.start(error)) {
            std::fprintf(stderr, "bench_daemon: %s\n",
                         error.c_str());
            return 1;
        }
        Endpoint oep;
        oep.port = od.port();
        const int burst = 10;
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < burst; ++i) {
            int status = 0;
            const std::uint64_t id = submitJob(
                oep, jobBody(qasm, "full", i), status);
            if (status == 202) {
                ++overloadAccepted;
                ids.push_back(id);
            } else if (status == 429) {
                ++overloadRejects;
            } else {
                ++overloadOther;
            }
        }
        // Every accepted job still completes; drain proves it.
        od.beginDrain();
        od.waitDrained();
        od.stop();
    }

    if (opt.json) {
        backend::JsonValue doc = backend::JsonValue::makeObject();
        doc.set("jobs", backend::JsonValue::makeNumber(jobsTotal));
        doc.set("accepted",
                backend::JsonValue::makeNumber(accepted));
        doc.set("completed",
                backend::JsonValue::makeNumber(completed));
        doc.set("daemonCompletedOk",
                backend::JsonValue::makeNumber(completedOk));
        doc.set("p50LatencySeconds",
                backend::JsonValue::makeNumber(p50));
        doc.set("p99LatencySeconds",
                backend::JsonValue::makeNumber(p99));
        doc.set("overloadAccepted",
                backend::JsonValue::makeNumber(overloadAccepted));
        doc.set("daemonOverloadRejects",
                backend::JsonValue::makeNumber(overloadRejects));
        doc.set("overloadOther",
                backend::JsonValue::makeNumber(overloadOther));
        std::fputs(backend::dumpJson(doc, true).c_str(), stdout);
        return 0;
    }

    Table tbl("Daemon: back-to-back batch (eff pipeline, 1 worker, "
              "loopback HTTP)",
              {"jobs", "completed", "p50 ms", "p99 ms"});
    tbl.addRow({std::to_string(jobsTotal), std::to_string(completed),
                fmt(1e3 * p50, 2), fmt(1e3 * p99, 2)});
    tbl.print(opt.csv);

    Table otbl("Daemon: burst vs --max-queue 1 (slowed full "
               "pipeline)",
               {"burst", "accepted", "429s", "other"});
    otbl.addRow({"10", std::to_string(overloadAccepted),
                 std::to_string(overloadRejects),
                 std::to_string(overloadOther)});
    otbl.print(opt.csv);
    return 0;
}
