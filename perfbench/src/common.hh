/**
 * @file
 * Shared plumbing of the repository benchmark: the run configuration,
 * the metric sheet every workload fills, timing and percentile
 * helpers, and the artifact digest.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "service/service.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
double msBetween(Clock::time_point a, Clock::time_point b);

/** Command-line configuration of one benchmark process. */
struct Config
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Repository root (chip files); set by run.py. */
    std::string root = ".";
    /** Scratch directory inside the checkout (caches, traces). */
    std::string outDir = ".bench_build/perfbench-out";
    /** Child mode: set up once, print the time, exit. */
    bool setupOnly = false;
    /** Persisted-cache directory (daemon-warm). */
    std::string cacheDir;
};

/**
 * Thread budget: the load fits the machine. Service workers, block
 * workers, HTTP handlers and generator threads together stay within
 * min(nproc, 4); the cold-logic client is the fourth thread.
 */
int serviceWorkers();

/** One metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports back to main. */
struct Report
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;   //!< failed + refused + wrong output
    bool correct = true;       //!< oracle, determinism, self-check
    std::vector<std::string> problems;

    void e2e(const std::string &name, double v, const std::string &unit)
    {
        endToEnd[name] = {v, unit};
    }
    void layer(const std::string &name, double v,
               const std::string &unit)
    {
        perLayer[name] = {v, unit};
    }
    void fail(const std::string &why);
};

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/**
 * A workload's tail percentile, fixed per workload: the highest of
 * p90, p95 and p99 that leaves at least ten samples beyond it at the
 * sample count the workload collects in a run of the benchmark's
 * length. `beyond` receives how many samples actually lie beyond it.
 */
double tailLatency(const std::vector<double> &v, double q,
                   std::size_t &beyond);

double mean(const std::vector<double> &v);

/**
 * Peak resident set of this process (VmHWM), MB, since the last
 * resetPeakRss(). The workloads reset it as their timed loop starts
 * and read it as it ends, so the reading covers the program serving
 * the load, not the oracle or the probes that run afterwards.
 */
double peakRssMb();
void resetPeakRss();

/** FNV-1a 64 over a byte string, chained from `h`. */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 1469598103934665603ull);
std::string hex64(std::uint64_t v);

/**
 * Digest of one compiled artifact in its wire spelling: the compiled
 * circuit as OpenQASM, the final permutation, the routed circuit and
 * layout when present, and the RQISA assembly when scheduled. The
 * daemon's result document carries the same strings, so in-process
 * and over-the-wire artifacts digest alike.
 */
std::uint64_t artifactDigest(const std::string &circuitQasm,
                             const std::vector<int> &perm,
                             const std::string &routedQasm,
                             const std::vector<int> &layout,
                             const std::string &isaText);
std::uint64_t jobDigest(const reqisc::service::JobResult &r);

/** Per-circuit output quality, the paper's Section 6.1 metrics. */
struct Quality
{
    double count2Q = 0, depth2Q = 0, duration = 0, makespan = 0,
           distinctSU4 = 0, fidelity = 0;
};
Quality qualityOf(const reqisc::service::JobResult &r);
/** Averages the quality set and stores the six quality metrics. */
void reportQuality(Report &rep, const std::vector<Quality> &q);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
