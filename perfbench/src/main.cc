/**
 * @file
 * perfbench — the repository benchmark.
 *
 *     perfbench --workload cold-logic|sweep-chip|daemon-warm
 *               --seed N --seconds S --trace 0|1 [--root DIR]
 *               [--out-dir DIR]
 *
 * Prints every metric by name and unit, then, as the last line, one
 * JSON object {correct, attempted, failed, metrics}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Exits
 * non-zero when the oracle, the oracle self-check or the determinism
 * check fails. See README.md for the workloads and metrics.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/**
 * Set-ups per run, each in a fresh process; setup_s is the median. A
 * set-up is ~70 ms of CPU work, and on a shared host the speed a
 * process gets moves by up to 50% and stays put for about a second,
 * so set-ups started back to back all read alike. The samples are
 * therefore spaced kSetupGap apart, half before the timed loop and
 * half after it.
 */
constexpr int kSetupSamples = 12;
constexpr std::chrono::milliseconds kSetupGap{400};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "cold-logic|sweep-chip|daemon-warm --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--out-dir DIR]\n",
                 why.c_str());
    std::exit(2);
}

Config
parseArgs(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--setup-only") {
            cfg.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                cfg.workload = v;
            else if (a == "--seed")
                cfg.seed = std::stoull(v);
            else if (a == "--seconds")
                cfg.seconds = std::stod(v);
            else if (a == "--trace")
                cfg.trace = std::stoi(v) != 0;
            else if (a == "--root")
                cfg.root = v;
            else if (a == "--out-dir")
                cfg.outDir = v;
            else if (a == "--cache-dir")
                cfg.cacheDir = v;
            else
                usage("unknown option " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (cfg.workload != "cold-logic" && cfg.workload != "sweep-chip" &&
        cfg.workload != "daemon-warm")
        usage("unknown workload '" + cfg.workload + "'");
    if (!(cfg.seconds > 0.0))
        usage("--seconds must be positive");
    return cfg;
}

void
runWorkload(const Config &cfg, Report &rep)
{
    if (cfg.workload == "cold-logic")
        runColdLogic(cfg, rep);
    else if (cfg.workload == "sweep-chip")
        runSweepChip(cfg, rep);
    else
        runDaemonWarm(cfg, rep);
}

/** `count` set-ups, each in a fresh copy of this program. */
void
setupSamples(const Config &cfg, int count, std::vector<double> &out)
{
    const std::string exe =
        std::filesystem::read_symlink("/proc/self/exe").string();
    std::string cmd = "'" + exe + "' --setup-only --workload " +
                      cfg.workload + " --seed " + std::to_string(cfg.seed) +
                      " --root '" + cfg.root + "' --out-dir '" + cfg.outDir +
                      "'";
    if (!cfg.cacheDir.empty())
        cmd += " --cache-dir '" + cfg.cacheDir + "'";
    for (int i = 0; i < count; ++i) {
        if (i > 0)
            std::this_thread::sleep_for(kSetupGap);
        FILE *p = ::popen(cmd.c_str(), "r");
        if (!p)
            throw std::runtime_error("cannot start set-up process");
        char line[256];
        double v = -1.0;
        while (std::fgets(line, sizeof line, p))
            std::sscanf(line, "setup_s=%lf", &v);
        if (::pclose(p) != 0 || v < 0.0)
            throw std::runtime_error("set-up process failed");
        out.push_back(v);
    }
}

void
printJson(const Report &rep, const std::map<std::string, Metric> &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                rep.correct ? "true" : "false",
                static_cast<long long>(rep.attempted),
                static_cast<long long>(rep.failed));
    bool first = true;
    for (const auto &[name, metric] : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), metric.value,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

void
printTable(const char *title, const std::map<std::string, Metric> &m)
{
    std::printf("%s\n", title);
    for (const auto &[name, metric] : m)
        std::printf("  %-38s %16.6f %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
}

int
run(Config cfg)
{
    std::filesystem::create_directories(cfg.outDir);
    if (cfg.setupOnly) {
        std::printf("setup_s=%.9f\n", setupOnce(cfg));
        return 0;
    }
    if (cfg.workload == "daemon-warm")
        prepareDaemonCache(cfg);
    std::vector<double> setups;
    setupSamples(cfg, kSetupSamples / 2, setups);
    std::printf("perfbench %s seed %llu, %.1f s, trace %d, %d service "
                "workers\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0, serviceWorkers());

    Report rep;
    if (!cfg.trace) {
        runWorkload(cfg, rep);
    } else {
        // Half the time untraced, half traced: the gap between the two
        // end-to-end readings is the tracing overhead.
        Config half = cfg;
        half.seconds = cfg.seconds / 2.0;
        half.trace = false;
        Report base;
        runWorkload(half, base);
        trace::setEnabled(true);
        half.trace = true;
        runWorkload(half, rep);
        trace::setEnabled(false);
        rep.correct = rep.correct && base.correct;
        rep.problems.insert(rep.problems.end(), base.problems.begin(),
                            base.problems.end());
        rep.attempted += base.attempted;
        rep.failed += base.failed;
        const double p50Base = base.endToEnd["latency_p50_ms"].value;
        const double p50Traced = rep.endToEnd["latency_p50_ms"].value;
        std::printf("tracing overhead: latency p50 %.4f ms untraced, "
                    "%.4f ms traced (x%.4f); throughput %.3f vs %.3f\n",
                    p50Base, p50Traced, p50Traced / p50Base,
                    base.endToEnd["throughput_cps"].value,
                    rep.endToEnd["throughput_cps"].value);
        rep.layer("trace.overhead_ratio", p50Traced / p50Base, "ratio");
        std::printf("per-layer self time (%zu spans):\n",
                    trace::spanCount());
        for (const trace::LayerTime &lt : trace::layerSelfTimes())
            std::printf("  %-10s self %12.3f ms  total %12.3f ms  %lld "
                        "spans\n",
                        lt.layer.c_str(), lt.selfMs, lt.totalMs,
                        static_cast<long long>(lt.spans));
        const std::string path = cfg.outDir + "/trace-" + cfg.workload +
                                  "-" + std::to_string(cfg.seed) + ".json";
        std::string error;
        if (trace::writeChrome(path, error))
            std::printf("trace written to %s\n", path.c_str());
        else
            std::printf("trace not written: %s\n", error.c_str());
    }
    setupSamples(cfg, kSetupSamples - kSetupSamples / 2, setups);
    rep.e2e("setup_s", median(setups), "s");
    if (!cfg.cacheDir.empty())
        std::filesystem::remove_all(cfg.cacheDir);

    std::printf("set-up samples:");
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf(" s\n");
    const double errorRatio =
        rep.attempted ? static_cast<double>(rep.failed) /
                            static_cast<double>(rep.attempted)
                      : 1.0;
    std::printf("error_ratio %.6f (%lld of %lld attempted)\n", errorRatio,
                static_cast<long long>(rep.failed),
                static_cast<long long>(rep.attempted));
    printTable("end-to-end:", rep.endToEnd);
    // capacity_jps is printed with the end-to-end metrics but carried in
    // the per-layer set: on daemon-warm it moves by 20% between runs of
    // one build on a 4-vCPU machine (the daemon saturates where its
    // single worker and single HTTP handler contend), wider than any
    // bound it could be gated with.
    const auto ungated = rep.endToEnd.find("capacity_jps");
    rep.perLayer.insert(*ungated);
    rep.endToEnd.erase(ungated);
    if (cfg.trace)
        printTable("per-layer:", rep.perLayer);
    const auto &out = cfg.trace ? rep.perLayer : rep.endToEnd;
    for (const auto &[name, m] : out)
        if (!std::isfinite(m.value))
            rep.fail("metric " + name + " is not finite");
    if (rep.attempted < 1)
        rep.fail("no request attempted");
    if (rep.failed > 0)
        rep.fail(std::to_string(rep.failed) + " requests failed");
    for (const std::string &p : rep.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());
    std::fflush(stdout);
    printJson(rep, out);
    return rep.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = parseArgs(argc, argv);
    try {
        return run(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
