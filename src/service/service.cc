#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "circuit/lower.hh"
#include "circuit/qasm.hh"
#include "compiler/pass_manager.hh"
#include "obs/obs.hh"

namespace reqisc::service
{

namespace
{

/** Service-level metrics, registered lazily on first service use. */
struct ServiceMetrics
{
    obs::Gauge *jobsInflight;
    obs::Counter *jobsCompleted;
    obs::Counter *jobsFailed;
    obs::Histogram *queueWaitSeconds;
    obs::Histogram *jobSeconds;
};

ServiceMetrics &serviceMetrics()
{
    static ServiceMetrics m = [] {
        auto &r = obs::Registry::global();
        return ServiceMetrics{
            r.gauge("reqisc_jobs_inflight",
                    "Jobs queued or running in the service"),
            r.counter("reqisc_jobs_completed_total",
                      "Jobs finished successfully"),
            r.counter("reqisc_jobs_failed_total",
                      "Jobs finished with a captured error"),
            r.histogram("reqisc_job_queue_wait_seconds",
                        "Time from submit() to a worker picking the "
                        "job up"),
            r.histogram("reqisc_job_seconds",
                        "Wall time of one job in its worker"),
        };
    }();
    return m;
}

/**
 * Per-job counting adapters: forward to the shared cache while
 * attributing this job's hits/misses/solve time to its Metrics. The
 * hit/miss *split* depends on what other jobs populated first; the
 * compiled artifacts do not (see the determinism contract).
 *
 * The block memo is consulted from block-pool threads when intra-job
 * parallel resynthesis is on, so its counters take a (cheap) lock.
 */
class CountingBlockMemo final : public synth::BlockMemo
{
  public:
    explicit CountingBlockMemo(synth::BlockMemo *inner)
        : inner_(inner)
    {
    }

    bool lookup(const qmath::Matrix &target,
                const synth::SynthesisOptions &opts,
                synth::SynthesisResult &out) override
    {
        const bool hit = inner_->lookup(target, opts, out);
        std::lock_guard<std::mutex> lk(mu_);
        if (hit)
            ++counters_.hits;
        else
            ++counters_.misses;
        return hit;
    }

    void store(const qmath::Matrix &target,
               const synth::SynthesisOptions &opts,
               const synth::SynthesisResult &result,
               double solve_seconds) override
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            counters_.solveSeconds += solve_seconds;
        }
        inner_->store(target, opts, result, solve_seconds);
    }

    CacheCounters counters() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return counters_;
    }

  private:
    synth::BlockMemo *inner_;
    mutable std::mutex mu_;
    CacheCounters counters_;
};

class CountingPulseMemo final : public uarch::PulseMemo
{
  public:
    explicit CountingPulseMemo(uarch::PulseMemo *inner)
        : inner_(inner)
    {
    }

    bool lookup(const weyl::WeylCoord &coord,
                uarch::PulseSolution &sol) override
    {
        const bool hit = inner_->lookup(coord, sol);
        if (hit)
            ++counters_.hits;
        else
            ++counters_.misses;
        return hit;
    }

    void store(const weyl::WeylCoord &coord,
               const uarch::PulseSolution &sol,
               double solve_seconds) override
    {
        counters_.solveSeconds += solve_seconds;
        inner_->store(coord, sol, solve_seconds);
    }

    const CacheCounters &counters() const { return counters_; }

  private:
    uarch::PulseMemo *inner_;
    CacheCounters counters_;
};

/** Cache file names inside ServiceOptions::cacheDir. */
constexpr const char *kSynthCacheFile = "synth.cache";
constexpr const char *kPulseCacheFile = "pulse.cache";

std::string
joinPath(const std::string &dir, const char *file)
{
    return (std::filesystem::path(dir) / file).string();
}

} // namespace

CompileService::CompileService(ServiceOptions opts)
    : opts_(opts)
{
    int threads = opts_.threads;
    if (threads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw ? static_cast<int>(hw) : 1;
    }
    bool pulse_cache = opts_.enableCaches;
    if (opts_.backend) {
        // The gate-set selection loop runs once per service; jobs
        // only read the tables.
        reconfig_ = backend::reconfigure(*opts_.backend);
        if (opts_.backend->isHomogeneous() &&
            !opts_.backend->edges().empty()) {
            // One coupling chip-wide: the shared pulse cache can
            // serve it directly. (Backend::uniform can produce an
            // edge-less single-qubit chip; keep the default
            // coupling there.)
            opts_.coupling = opts_.backend->edges().front().coupling;
        } else {
            // The pulse cache is bound to a single coupling, which
            // heterogeneous chips do not have.
            pulse_cache = false;
        }
    }
    // Both caches keep their default capacity (1 << 14 entries).
    if (opts_.enableCaches)
        synthCache_ = std::make_unique<SynthCache>();
    if (pulse_cache)
        pulseCache_ = std::make_unique<PulseCache>(
            opts_.coupling, kPulseClusterTol);
    if (!opts_.cacheDir.empty()) {
        if (synthCache_)
            synthLoaded_ = synthCache_->load(
                joinPath(opts_.cacheDir, kSynthCacheFile));
        if (pulseCache_)
            pulseLoaded_ = pulseCache_->load(
                joinPath(opts_.cacheDir, kPulseCacheFile));
    }
    // One pool shared by every job keeps the total thread count at
    // threads + helpers regardless of how many jobs are in flight.
    int block_workers = opts_.blockWorkers;
    if (block_workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        block_workers = std::max(
            1, static_cast<int>(hw ? hw : 1) - threads + 1);
    }
    if (block_workers > 1) {
        blockPool_ =
            std::make_unique<util::WorkerPool>(block_workers - 1);
        obs::Registry::global()
            .gauge("reqisc_blockpool_workers",
                   "Executors a batch can use at once (helper "
                   "threads + the joining caller)")
            ->set(blockPool_->workers());
        obs::log(obs::LogLevel::Info, "blockpool", "pool started",
                 {{"helpers", std::to_string(blockPool_->threads())}});
    }
    obs::log(obs::LogLevel::Info, "service", "service started",
             {{"threads", std::to_string(threads)},
              {"blockWorkers", std::to_string(block_workers)},
              {"synthCache", synthCache_ ? "on" : "off"},
              {"pulseCache", pulseCache_ ? "on" : "off"},
              {"cacheDir", opts_.cacheDir}});
    jobPool_ = std::make_unique<util::WorkerPool>(threads);
}

CompileService::~CompileService()
{
    jobPool_.reset();  // runs every queued job, then joins
    if (!opts_.cacheDir.empty())
        saveCaches();  // best effort; failure leaves old files intact
}

int
CompileService::blockWorkers() const
{
    return blockPool_ ? blockPool_->workers() : 1;
}

bool
CompileService::saveCaches() const
{
    if (opts_.cacheDir.empty())
        return false;
    std::error_code ec;
    std::filesystem::create_directories(opts_.cacheDir, ec);
    bool ok = true;
    if (synthCache_)
        ok &= synthCache_->save(
            joinPath(opts_.cacheDir, kSynthCacheFile));
    if (pulseCache_)
        ok &= pulseCache_->save(
            joinPath(opts_.cacheDir, kPulseCacheFile));
    return ok;
}

std::uint64_t
CompileService::submit(CompileRequest req)
{
    std::vector<CompileRequest> one;
    one.push_back(std::move(req));
    return submitBatch(std::move(one)).front();
}

std::vector<std::uint64_t>
CompileService::submitBatch(std::vector<CompileRequest> reqs)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(reqs.size());
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto now = std::chrono::steady_clock::now();
        for (CompileRequest &r : reqs) {
            const std::uint64_t id = nextId_++;
            queued_.emplace(id, Job{id, std::move(r), now});
            pending_.insert(id);
            ++inFlight_;
            ids.push_back(id);
        }
        serviceMetrics().jobsInflight->set(
            static_cast<double>(inFlight_));
    }
    // One task per job; each runs the oldest queued job, so jobs
    // start in id order even when submitters race to post.
    for (std::size_t i = 0; i < ids.size(); ++i)
        jobPool_->post([this] { runQueued(); });
    return ids;
}

JobResult
CompileService::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (id == 0 || id >= nextId_)
        throw std::invalid_argument("unknown job id");
    for (;;) {
        auto it = results_.find(id);
        if (it != results_.end()) {
            JobResult res = std::move(it->second);
            results_.erase(it);
            return res;
        }
        if (pending_.find(id) == pending_.end())
            throw std::invalid_argument(
                "job result already taken");
        doneCv_.wait(lk);
    }
}

std::vector<JobResult>
CompileService::waitAll()
{
    std::unique_lock<std::mutex> lk(mu_);
    doneCv_.wait(lk, [this] { return inFlight_ == 0; });
    std::vector<JobResult> out;
    out.reserve(results_.size());
    for (auto &[id, res] : results_) {
        (void)id;
        out.push_back(std::move(res));
    }
    results_.clear();
    return out;
}

CompileService::CancelOutcome
CompileService::cancel(std::uint64_t id)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (id == 0 || id >= nextId_)
            return CancelOutcome::Unknown;
        if (queued_.erase(id)) {
            pending_.erase(id);
            --inFlight_;
            serviceMetrics().jobsInflight->set(
                static_cast<double>(inFlight_));
        } else if (pending_.count(id)) {
            return CancelOutcome::Running;
        } else {
            return CancelOutcome::Finished;
        }
    }
    // The canceled job may have been the last in-flight one.
    doneCv_.notify_all();
    obs::log(obs::LogLevel::Info, "service", "job canceled",
             {{"id", std::to_string(id)}});
    return CancelOutcome::Canceled;
}

void
CompileService::runQueued()
{
    Job job;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (queued_.empty())
            return;  // cancel() removed this task's job
        auto it = queued_.begin();
        job = std::move(it->second);
        queued_.erase(it);
    }
    JobResult res = runJob(job);
    // A request with onDone owns result delivery (the daemon's job
    // registry): hand the result over outside the lock and skip the
    // results_ store so it is never double-delivered.
    const bool deliver = static_cast<bool>(job.req.onDone);
    {
        std::lock_guard<std::mutex> lk(mu_);
        pending_.erase(job.id);
        if (!deliver)
            results_.emplace(job.id, std::move(res));
        --inFlight_;
        serviceMetrics().jobsInflight->set(
            static_cast<double>(inFlight_));
    }
    if (deliver)
        job.req.onDone(std::move(res));
    doneCv_.notify_all();
}

JobResult
CompileService::runJob(const Job &job)
{
    JobResult res;
    res.id = job.id;
    res.name = job.req.name;
    const std::string jobName = job.req.name.empty()
                                    ? std::to_string(job.id)
                                    : job.req.name;
    // Everything recorded under this scope — spans, log records,
    // flight events, even block tasks fanned out to pool threads —
    // carries job=<name> for cross-artifact correlation.
    obs::JobScope jobScope(jobName);
    obs::log(obs::LogLevel::Debug, "service", "job started",
             {{"id", std::to_string(job.id)}, {"name", jobName}});
    obs::Span jobSpan("job:" + jobName);
    jobSpan.annotate("id", std::to_string(job.id));
    obs::recordSpan("queue-wait", job.enqueuedAt,
                    std::chrono::steady_clock::now(),
                    jobSpan.context());
    serviceMetrics().queueWaitSeconds->observe(
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - job.enqueuedAt)
            .count());
    try {
        circuit::Circuit input;
        if (job.req.qasm.empty()) {
            input = job.req.input;
        } else {
            obs::Span parseSpan("parse");
            try {
                input = circuit::fromQasm(job.req.qasm);
            } catch (const std::exception &e) {
                throw ApiException(
                    makeError(errc::kParseError, e.what()));
            }
        }
        // A NaN or infinite angle has no meaning: reject it as this
        // job's error instead of compiling it into a finite-looking
        // artifact.
        for (std::size_t i = 0; i < input.size(); ++i)
            for (const double p : input[i].params)
                if (!std::isfinite(p))
                    throw ApiException(makeError(
                        errc::kBadRequest,
                        "gate " + std::to_string(i) + " (" +
                            input[i].toString() +
                            ") has a non-finite parameter"));
        // The MCX lowering borrows wires the gate does not touch: a
        // register too narrow for that is this job's error too.
        if (const std::string mcx = circuit::mcxAncillaError(input);
            !mcx.empty())
            throw ApiException(makeError(errc::kBadRequest, mcx));
        // Routing assumes the circuit fits the chip: reject a wider
        // one as this job's error instead.
        if (opts_.backend &&
            input.numQubits() > opts_.backend->numQubits())
            throw ApiException(makeError(
                errc::kBadRequest,
                "circuit has " + std::to_string(input.numQubits()) +
                    " qubits but the backend has " +
                    std::to_string(opts_.backend->numQubits())));
        compiler::CompileOptions copts = job.req.options;
        CountingBlockMemo synthMemo(synthCache_.get());
        if (synthCache_)
            copts.synthMemo = &synthMemo;
        copts.synthPool = blockPool_.get();

        compiler::PipelineSpec spec;
        std::string error;
        if (!compiler::parsePipelineSpec(job.req.pipelineSpec, spec,
                                         error))
            throw ApiException(makeError(errc::kBadPipelineSpec, error,
                                         job.req.pipelineSpec));

        // Build unit, assemble the pipeline, run it, copy out.
        compiler::CompilationUnit unit =
            compiler::CompilationUnit::forInput(std::move(input),
                                                copts);
        unit.backend = opts_.backend.get();
        unit.reconfig = opts_.backend ? &reconfig_ : nullptr;
        unit.coupling = opts_.coupling;
        unit.scheduleOptions = job.req.scheduleOptions;
        unit.onPass = job.req.onPass;

        compiler::PassManager pm;
        if (spec.kind == compiler::PipelineSpec::Kind::Custom) {
            // Custom lists run literally, except that requested
            // stages missing from the list are appended: `estimate`
            // always (so JobResult metrics are filled), `schedule`
            // when the request asked for a program.
            compiler::PipelineSpec literal = spec;
            bool has_estimate = false, has_schedule = false;
            for (const std::string &tok : literal.passes) {
                has_estimate |= tok == "estimate";
                has_schedule |= tok == "schedule" ||
                                tok.rfind("schedule:", 0) == 0;
            }
            if (!has_estimate)
                literal.passes.push_back("estimate");
            if (job.req.schedule && !has_schedule)
                literal.passes.push_back("schedule");
            if (!compiler::buildPipeline(literal, copts, pm, error))
                throw ApiException(
                    makeError(errc::kBadPipelineSpec, error));
        } else {
            // Named pipelines: compile stage + the service stages
            // (the former hand-sequenced route -> estimate ->
            // reconfigure -> schedule tail of this function).
            compiler::PipelineSpec staged = spec;
            staged.kind = compiler::PipelineSpec::Kind::Custom;
            staged.passes = compiler::compilePassList(
                spec.kind, copts);
            if (opts_.backend)
                staged.passes.push_back("route");
            staged.passes.push_back("estimate");
            if (opts_.backend)
                staged.passes.push_back("reconfigure");
            if (job.req.schedule)
                staged.passes.push_back("schedule");
            if (!compiler::buildPipeline(staged, copts, pm, error))
                throw ApiException(
                    makeError(errc::kBadPipelineSpec, error));
        }
        pm.run(unit);

        {
            obs::Span copyOut("copy-out");
            res.metrics = std::move(unit.metrics);
            if (unit.hasRouted) {
                res.routed = std::move(unit.routed);
                res.finalLayout = std::move(unit.finalLayout);
            }
            if (unit.hasProgram)
                res.program = std::move(unit.program);
            res.compiled.circuit = std::move(unit.circuit);
            res.compiled.finalPermutation =
                std::move(unit.finalPermutation);
            // Finished results are retained (the daemon's history, a
            // CLI batch, bench clients), so hand them back without
            // the passes' growth slack.
            res.compiled.circuit.gates().shrink_to_fit();
            res.routed.gates().shrink_to_fit();
            res.program.shrinkToFit();
        }

        if (synthCache_)
            res.metrics.synthCache = synthMemo.counters();
        // On a heterogeneous chip the reconfigured table *is* the
        // calibration set (one native instruction per edge), so the
        // per-circuit pulse-solve pass is skipped.
        const bool heterogeneousChip =
            opts_.backend && !opts_.backend->isHomogeneous();
        if (job.req.calibrate && !heterogeneousChip) {
            obs::Span calibrate("calibrate");
            CountingPulseMemo pulseMemo(pulseCache_.get());
            try {
                const uarch::CalibrationPlan plan =
                    uarch::planCalibration(
                        res.compiled.circuit, opts_.coupling,
                        kPulseClusterTol,
                        pulseCache_ ? &pulseMemo : nullptr);
                res.unsolvedClasses = plan.unsolved;
            } catch (const std::exception &e) {
                throw ApiException(
                    makeError(errc::kCalibrateFailed, e.what()));
            }
            if (pulseCache_)
                res.metrics.pulseCache = pulseMemo.counters();
        }
        res.ok = true;
    } catch (const ApiException &e) {
        res.ok = false;
        res.errorInfo = e.error();
        res.error = res.errorInfo.message;
    } catch (const std::exception &e) {
        res.ok = false;
        res.errorInfo = makeError(errc::kInternal, e.what());
        res.error = res.errorInfo.message;
    } catch (...) {
        res.ok = false;
        res.errorInfo = makeError(errc::kInternal, "unknown error");
        res.error = res.errorInfo.message;
    }
    res.seconds = jobSpan.stop();
    ServiceMetrics &m = serviceMetrics();
    m.jobSeconds->observe(res.seconds);
    (res.ok ? m.jobsCompleted : m.jobsFailed)->inc();
    if (res.ok) {
        obs::log(obs::LogLevel::Info, "service", "job completed",
                 {{"id", std::to_string(job.id)},
                  {"name", jobName},
                  {"seconds", std::to_string(res.seconds)},
                  {"passes",
                   std::to_string(res.metrics.passes.size())}});
    } else {
        obs::log(obs::LogLevel::Error, "service", "job failed",
                 {{"id", std::to_string(job.id)},
                  {"name", jobName},
                  {"seconds", std::to_string(res.seconds)},
                  {"error", res.error}});
        // Black-box dump: the final spans + error record of the
        // failing job are still in the rings right now.
        obs::flight::dumpNow("job-failure");
    }
    return res;
}

CacheCounters
CompileService::synthCacheStats() const
{
    return synthCache_ ? synthCache_->stats() : CacheCounters{};
}

CacheCounters
CompileService::pulseCacheStats() const
{
    return pulseCache_ ? pulseCache_->stats() : CacheCounters{};
}

std::size_t
CompileService::synthCacheSize() const
{
    return synthCache_ ? synthCache_->size() : 0;
}

std::size_t
CompileService::pulseCacheSize() const
{
    return pulseCache_ ? pulseCache_->size() : 0;
}

std::vector<ClassStats>
CompileService::synthCachePerClass() const
{
    return synthCache_ ? synthCache_->perClass()
                       : std::vector<ClassStats>{};
}

std::vector<ClassStats>
CompileService::pulseCachePerClass() const
{
    return pulseCache_ ? pulseCache_->perClass()
                       : std::vector<ClassStats>{};
}

} // namespace reqisc::service
