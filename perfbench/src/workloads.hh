/**
 * @file
 * The three workloads and the per-layer probe. Each workload sets
 * itself up (timed as setup_s), runs its timed loop for
 * Config::seconds, then — outside the timed region — checks every
 * artifact with the oracle, re-compiles its quality set at another
 * worker count for the determinism check, and fills the Report.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "inputs.hh"
#include "service/service.hh"

namespace perfbench
{

/**
 * How a workload compiles: what its service and requests look like.
 * The default compiles device-agnostically (cold-logic, daemon-warm).
 */
struct Target
{
    /** Chip to compile to; nullptr compiles device-agnostically. */
    std::shared_ptr<const reqisc::backend::Backend> chip;
    reqisc::service::ServiceOptions serviceOptions(int workers) const;
    reqisc::service::CompileRequest request(const Request &r) const;
};

/** sweep-chip's target: examples/chips/chain8_xy.json. */
Target sweepChipTarget(const Config &cfg);

/**
 * Set-up of one workload: construction of its service or daemon
 * (chip load and reconfigure, persisted-cache load, HTTP start) until
 * the first warm-up request is served. Run in a fresh process, so it
 * includes the lazy template tables. Returns seconds.
 */
double setupOnce(const Config &cfg);
double daemonWarmSetupOnce(const Config &cfg);

/** A service for `target` that has served one warm-up request. */
std::unique_ptr<reqisc::service::CompileService>
makeWarmService(const Target &target, int workers);

/**
 * daemon-warm preparation: compile the pool once and persist its
 * SU(4) classes to a fresh cache directory (Config::cacheDir).
 */
void prepareDaemonCache(Config &cfg);

void runColdLogic(const Config &cfg, Report &rep);
void runSweepChip(const Config &cfg, Report &rep);
void runDaemonWarm(const Config &cfg, Report &rep);

/** One finished request of a closed-loop or probe run. */
struct JobRecord
{
    std::int64_t index = 0;
    Request request;
    reqisc::service::JobResult result;
    Clock::time_point submitAt, submitted, firstPass, lastPass, doneAt;
    int passes = 0;
};

/** The next request of a closed loop and the service it goes to. */
struct Feed
{
    Request request;
    std::int64_t index = 0;
    reqisc::service::CompileService *service = nullptr;
};

/**
 * Closed-loop client: keeps `concurrency` requests in flight,
 * submitting the next as each completes, until `next` has no more.
 * Results arrive through onDone; latency is doneAt - submitAt.
 * `finished` (optional) sees each record as it completes and says
 * whether to keep it in the returned list. With
 * tracing on, records a service.job span per request with its passes
 * (compiler.pass.*) and the post-pass tail (service.post_pass:
 * calibration + copy-out) as children.
 */
std::vector<JobRecord>
runClosedLoop(const Target &target, int concurrency,
              const std::function<bool(Feed &)> &next,
              const std::function<bool(const JobRecord &)> &finished = {});

/** Inputs the per-layer probe runs on: the workload's quality set. */
struct LayerInputs
{
    Target target;
    std::vector<Request> requests;
    /** The workload's own service loop fed service.* already. */
    bool haveServiceLayer = false;
    /** The workload's own daemon loop fed daemon.* already. */
    bool haveDaemonLayer = false;
};

/**
 * The traced run's per-layer section: times each layer's public
 * functions on the workload's own requests (and, where the workload
 * does not exercise the service or daemon loop itself, a short
 * closed-loop session through it) and stores every per-layer metric.
 */
void probeLayers(const Config &cfg, const LayerInputs &in, Report &rep);

/**
 * daemon.* for workloads that do not drive the daemon themselves: the
 * requests served one at a time through an in-process daemon.
 */
void daemonProbe(const Target &target, const std::vector<Request> &reqs,
                 Report &rep);

/** Per-request service timings: submit -> first pass, last pass -> done. */
struct ServiceSamples
{
    std::vector<double> startDelayMs, postPassMs;
    void add(const JobRecord &r);
};

/** service.* metrics from closed-loop samples and cache deltas. */
void reportServiceLayer(Report &rep, const ServiceSamples &s,
                        const reqisc::compiler::CacheCounters &synth,
                        const reqisc::compiler::CacheCounters &pulse);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
