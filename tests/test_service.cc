/**
 * @file
 * Tests for the concurrent compilation service and the SU(4)
 * memoization caches: cache correctness (hit/miss/eviction semantics,
 * tolerance-bucketed lookup, verification-gated hits), service
 * determinism across thread counts (the bit-identical contract),
 * per-job error capture, cancellation, and the util::WorkerPool the
 * service runs its jobs and block tasks on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/lower.hh"
#include "circuit/qasm.hh"
#include "compiler/pipeline.hh"
#include "obs/span.hh"
#include "qsim/statevector.hh"
#include "service/cache.hh"
#include "service/cli_flags.hh"
#include "service/service.hh"
#include "synth/instantiate.hh"
#include "suite/suite.hh"
#include "test_util.hh"
#include "util/pool.hh"

using namespace reqisc;
using namespace reqisc::circuit;
using namespace reqisc::qmath;

namespace
{

/** A compiled program, flattened to a comparable byte string. */
std::string
flatten(const service::JobResult &r)
{
    std::ostringstream os;
    os << circuit::toQasm(r.compiled.circuit) << "|perm:";
    for (int p : r.compiled.finalPermutation)
        os << p << ",";
    os << "|2q:" << r.metrics.count2Q << "|d:" << r.metrics.depth2Q
       << "|dur:";
    os.precision(17);
    os << r.metrics.duration << "|su4:" << r.metrics.distinctSU4;
    return os.str();
}

/** A 20-job batch cycling through the small suite. */
std::vector<service::CompileRequest>
twentyCircuitBatch()
{
    const auto bms = suite::smallSuite();
    std::vector<service::CompileRequest> batch;
    for (int i = 0; i < 20; ++i) {
        service::CompileRequest req;
        req.name = bms[i % bms.size()].name + "#" +
                   std::to_string(i / bms.size());
        req.input = bms[i % bms.size()].circuit;
        batch.push_back(std::move(req));
    }
    return batch;
}

} // namespace

// ---- SynthCache --------------------------------------------------------

TEST(SynthCache, RepeatedBlockIsSynthesizedOnce)
{
    Rng rng(11);
    const Matrix target = randomUnitary(8, rng);
    service::SynthCache cache;

    synth::SynthesisOptions opts;
    opts.descending = true;
    opts.memo = &cache;
    const std::vector<int> qubits_a = {0, 1, 2};
    const std::vector<int> qubits_b = {4, 6, 5};

    synth::SynthesisResult first =
        synth::synthesizeBlock(target, qubits_a, opts);
    ASSERT_TRUE(first.success);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_GT(cache.stats().solveSeconds, 0.0);

    // Same class on different qubits: a hit, remapped onto them.
    synth::SynthesisResult second =
        synth::synthesizeBlock(target, qubits_b, opts);
    ASSERT_TRUE(second.success);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(first.blockCount, second.blockCount);
    ASSERT_EQ(first.gates.size(), second.gates.size());
    for (size_t i = 0; i < first.gates.size(); ++i) {
        // Identical gates modulo the qubit relabeling.
        EXPECT_EQ(first.gates[i].op, second.gates[i].op);
        EXPECT_EQ(first.gates[i].params, second.gates[i].params);
        for (size_t q = 0; q < first.gates[i].qubits.size(); ++q) {
            const auto it =
                std::find(qubits_a.begin(), qubits_a.end(),
                          first.gates[i].qubits[q]);
            ASSERT_NE(it, qubits_a.end());
            EXPECT_EQ(second.gates[i].qubits[q],
                      qubits_b[it - qubits_a.begin()]);
        }
    }
}

TEST(SynthCache, DifferentOptionsDoNotShareEntries)
{
    Rng rng(13);
    const Matrix target = randomUnitary(8, rng);
    service::SynthCache cache;

    synth::SynthesisOptions a;
    a.descending = true;
    a.memo = &cache;
    synth::SynthesisOptions b = a;
    b.seed = a.seed + 1;  // a different search -> a different key

    (void)synth::synthesizeBlock(target, {0, 1, 2}, a);
    (void)synth::synthesizeBlock(target, {0, 1, 2}, b);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SynthCache, GlobalPhaseDoesNotSplitClasses)
{
    Rng rng(17);
    const Matrix target = randomUnitary(8, rng);
    Matrix phased = target;
    const Complex w = std::polar(1.0, 0.9);
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            phased(i, j) = phased(i, j) * w;

    service::SynthCache cache;
    synth::SynthesisOptions opts;
    opts.descending = true;
    opts.memo = &cache;
    (void)synth::synthesizeBlock(target, {0, 1, 2}, opts);
    (void)synth::synthesizeBlock(phased, {0, 1, 2}, opts);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.size(), 1u);
}

namespace
{

/** A SynthCache over distinct targets (by default capacity 2, 3). */
struct SynthEvictionProbe
{
    service::SynthCache cache;
    synth::SynthesisOptions opts;
    std::vector<Matrix> keys;

    explicit SynthEvictionProbe(std::size_t capacity = 2, int classes = 3)
        : cache(capacity)
    {
        Rng rng(19);
        for (int i = 0; i < classes; ++i)
            keys.push_back(randomUnitary(8, rng));
    }
    void store(int i)
    {
        // A failure entry: served on the exact key, no verification.
        cache.store(keys[i], opts, synth::SynthesisResult{}, 0.1);
    }
    bool lookup(int i)
    {
        synth::SynthesisResult out;
        return cache.lookup(keys[i], opts, out);
    }
};

/** A PulseCache over distinct classes (by default capacity 2, 3). */
struct PulseEvictionProbe
{
    service::PulseCache cache;
    std::vector<weyl::WeylCoord> keys = {weyl::WeylCoord::cnot(),
                                         weyl::WeylCoord::iswap(),
                                         weyl::WeylCoord::sqisw()};

    explicit PulseEvictionProbe(std::size_t capacity = 2, int classes = 3)
        : cache(uarch::Coupling::xy(1.0), 1e-6, capacity)
    {
        for (int i = 3; i < classes; ++i)
            keys.push_back({0.05 + 0.01 * i, 0.03, 0.01});
    }
    void store(int i)
    {
        uarch::PulseSolution sol;  // servable: converged, exact
        sol.converged = true;
        sol.coordError = 0.0;
        sol.tau = i;  // tells the classes' solutions apart
        sol.target = keys[i];
        cache.store(keys[i], sol, 0.1);
    }
    /** A store the cache must not keep. */
    void storeUnconverged(int i)
    {
        cache.store(keys[i], uarch::PulseSolution{}, 0.1);
    }
    bool lookup(int i)
    {
        uarch::PulseSolution out;
        return cache.lookup(keys[i], out);
    }
};

template <class Probe>
void
expectEvictsLeastRecentlyUsed(Probe &p)
{
    p.store(0);
    p.store(1);
    // Touch key 0 so key 1 is the LRU victim.
    EXPECT_TRUE(p.lookup(0));
    p.store(2);
    EXPECT_EQ(p.cache.size(), 2u);
    EXPECT_EQ(p.cache.stats().evictions, 1);
    EXPECT_TRUE(p.lookup(0));
    EXPECT_TRUE(p.lookup(2));
    EXPECT_FALSE(p.lookup(1));
}

/**
 * The LRU rule the eviction index must reproduce, kept the plain
 * way: every kept key's last use, and a scan for the smallest one
 * whenever an insert overflows the capacity.
 */
struct ScanLruModel
{
    explicit ScanLruModel(std::size_t cap) : capacity(cap) {}

    std::size_t capacity;
    std::map<int, std::uint64_t> lastUse;
    std::uint64_t clock = 0;
    std::int64_t evictions = 0;

    bool lookup(int k)
    {
        const auto it = lastUse.find(k);
        if (it == lastUse.end())
            return false;
        it->second = ++clock;
        return true;
    }
    void store(int k)
    {
        if (lastUse.count(k))  // first writer wins, no refresh
            return;
        lastUse[k] = ++clock;
        while (lastUse.size() > capacity) {
            auto victim = lastUse.begin();
            for (auto it = lastUse.begin(); it != lastUse.end(); ++it)
                if (it->second < victim->second)
                    victim = it;
            lastUse.erase(victim);
            ++evictions;
        }
    }
};

/**
 * A seeded trace of lookups, stores, re-stores of present classes and
 * (where the cache has them) unservable stores; every lookup and
 * every eviction count must match the scan model step by step.
 */
template <class Probe>
void
expectMatchesScanLru(Probe &p, std::size_t capacity, int classes)
{
    ScanLruModel model(capacity);
    std::mt19937 gen(2024);
    for (int step = 0; step < 4000; ++step) {
        const int k = static_cast<int>(gen() % classes);
        const unsigned op = gen() % 10;
        if (op < 5) {
            ASSERT_EQ(p.lookup(k), model.lookup(k)) << "step " << step;
        } else if (op < 9) {
            p.store(k);
            model.store(k);
        } else if constexpr (requires { p.storeUnconverged(k); }) {
            p.storeUnconverged(k);  // (every synth store is kept)
        }
        ASSERT_EQ(p.cache.stats().evictions, model.evictions)
            << "step " << step;
    }
    EXPECT_EQ(p.cache.size(), model.lastUse.size());
    EXPECT_GT(model.evictions, 500);  // the trace keeps the cache full
}

} // namespace

TEST(SynthCache, EvictsLeastRecentlyUsed)
{
    // Both caches sit on the same LRU table; pin it through each.
    SynthEvictionProbe synth_probe;
    expectEvictsLeastRecentlyUsed(synth_probe);
    PulseEvictionProbe pulse_probe;
    expectEvictsLeastRecentlyUsed(pulse_probe);
}

TEST(SynthCache, EvictionMatchesTheLastUseScanOnALongTrace)
{
    // Both caches at capacity 8 over 16 classes, the same trace.
    SynthEvictionProbe synth_probe(8, 16);
    expectMatchesScanLru(synth_probe, 8, 16);
    PulseEvictionProbe pulse_probe(8, 16);
    expectMatchesScanLru(pulse_probe, 8, 16);
}

// ---- PulseCache --------------------------------------------------------

TEST(PulseCache, ToleranceBucketedLookup)
{
    service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6);
    uarch::GateScheme scheme(uarch::Coupling::xy(1.0));
    const weyl::WeylCoord cnot = weyl::WeylCoord::cnot();
    cache.store(cnot, scheme.solveCoord(cnot), 0.01);

    // Within tolerance (including across a bucket boundary): hit.
    uarch::PulseSolution sol;
    weyl::WeylCoord nearby = cnot;
    nearby.y += 0.9e-6;
    EXPECT_TRUE(cache.lookup(nearby, sol));
    EXPECT_TRUE(sol.converged);
    // Outside tolerance: miss.
    weyl::WeylCoord far = cnot;
    far.y += 5e-6;
    EXPECT_FALSE(cache.lookup(far, sol));
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PulseCache, NeverServesUnconvergedSolutions)
{
    service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6);
    uarch::PulseSolution bad;
    bad.converged = false;
    const weyl::WeylCoord c = weyl::WeylCoord::iswap();
    cache.store(c, bad, 0.01);
    EXPECT_EQ(cache.size(), 0u);
    uarch::PulseSolution out;
    EXPECT_FALSE(cache.lookup(c, out));
}

TEST(PulseCache, SharedAcrossCalibrationPlans)
{
    Circuit c(3);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cz(1, 2));
    c.add(Gate::swap(0, 1));

    service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6);
    uarch::CalibrationPlan p1 = uarch::planCalibration(
        c, uarch::Coupling::xy(1.0), 1e-6, &cache);
    EXPECT_EQ(p1.distinctGates(), 2);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(cache.stats().hits, 0);

    // A second circuit with the same classes: all pulse solves hit.
    uarch::CalibrationPlan p2 = uarch::planCalibration(
        c, uarch::Coupling::xy(1.0), 1e-6, &cache);
    EXPECT_EQ(p2.distinctGates(), 2);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(cache.stats().hits, 2);
    ASSERT_EQ(p1.entries.size(), p2.entries.size());
    for (size_t i = 0; i < p1.entries.size(); ++i) {
        EXPECT_EQ(p1.entries[i].uses, p2.entries[i].uses);
        EXPECT_EQ(p1.entries[i].pulse.tau, p2.entries[i].pulse.tau);
    }
}

// ---- CompileService ----------------------------------------------------

TEST(CompileService, CachedResultsMatchStandaloneCompilation)
{
    // The whole caching contract in one assertion: a service with
    // warm caches must produce byte-for-byte what a standalone
    // (cache-free) reqiscFull produces.
    const auto bms = suite::smallSuite();
    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::CompileService svc(sopts);
    std::vector<service::CompileRequest> batch;
    for (int rep = 0; rep < 2; ++rep) {
        for (size_t i = 0; i < 4; ++i) {
            service::CompileRequest req;
            req.name = bms[i].name;
            req.input = bms[i].circuit;
            batch.push_back(std::move(req));
        }
    }
    svc.submitBatch(std::move(batch));
    auto results = svc.waitAll();
    ASSERT_EQ(results.size(), 8u);
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
        const auto &bm =
            *std::find_if(bms.begin(), bms.end(),
                          [&](const suite::Benchmark &b) {
                              return b.name == r.name;
                          });
        compiler::CompileResult direct =
            compiler::reqiscFull(bm.circuit);
        EXPECT_EQ(circuit::toQasm(r.compiled.circuit),
                  circuit::toQasm(direct.circuit))
            << r.name;
        EXPECT_EQ(r.compiled.finalPermutation,
                  direct.finalPermutation)
            << r.name;
    }
    // The second repetition of each circuit hit the warm caches.
    EXPECT_GT(svc.synthCacheStats().hits +
                  svc.pulseCacheStats().hits,
              0);
}

TEST(CompileService, DeterministicAcrossThreadCounts)
{
    // The issue's acceptance test: the same 20-circuit batch with
    // --jobs 1 and --jobs 8 produces identical gate streams, metrics
    // and final permutations.
    std::vector<std::string> flat1, flat8;
    std::vector<std::int64_t> consults1, consults8;
    for (int jobs : {1, 8}) {
        service::ServiceOptions sopts;
        sopts.threads = jobs;
        service::CompileService svc(sopts);
        svc.submitBatch(twentyCircuitBatch());
        auto results = svc.waitAll();
        ASSERT_EQ(results.size(), 20u);
        auto &flat = jobs == 1 ? flat1 : flat8;
        auto &consults = jobs == 1 ? consults1 : consults8;
        for (const auto &r : results) {
            ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
            flat.push_back(flatten(r));
            consults.push_back(r.metrics.synthCache.hits +
                               r.metrics.synthCache.misses);
        }
    }
    ASSERT_EQ(flat1.size(), flat8.size());
    for (size_t i = 0; i < flat1.size(); ++i)
        EXPECT_EQ(flat1[i], flat8[i]) << "job " << i;
    // Cache hit/miss *attribution* may differ between schedules; the
    // number of memo consultations a given job makes may not.
    EXPECT_EQ(consults1, consults8);
}

TEST(CompileService, QasmJobsCompileAndParseErrorsAreCaptured)
{
    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::CompileService svc(sopts);

    service::CompileRequest good;
    good.name = "ghz3";
    good.qasm = "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
    service::CompileRequest bad;
    bad.name = "broken";
    bad.qasm = "qreg q[2];\nfrobnicate q[0];\n";

    const auto good_id = svc.submit(std::move(good));
    const auto bad_id = svc.submit(std::move(bad));

    service::JobResult bad_res = svc.wait(bad_id);
    EXPECT_FALSE(bad_res.ok);
    EXPECT_NE(bad_res.error.find("unknown op"), std::string::npos)
        << bad_res.error;

    service::JobResult good_res = svc.wait(good_id);
    ASSERT_TRUE(good_res.ok) << good_res.error;
    EXPECT_GT(good_res.metrics.count2Q, 0);

    // Semantics of the QASM path: compiled circuit matches input.
    Circuit input = circuit::fromQasm(
        "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n");
    const Matrix ref =
        qsim::buildUnitary(circuit::lowerToCnot(input));
    const Matrix got = qsim::buildUnitaryWithPermutation(
        good_res.compiled.circuit,
        good_res.compiled.finalPermutation);
    EXPECT_LT(qmath::traceInfidelity(ref, got), 1e-6);
}

TEST(CompileService, ParserErrorPathsAreCapturedPerJob)
{
    // Every malformed-QASM shape the parser rejects must surface as
    // a per-job error (with its reason intact) and leave the rest of
    // the batch untouched.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"qreg q2];\nh q[0];\n", "malformed qreg"},
        {"qreg q[2];\ncx q[0],q[7];\n", "out of range"},
        {"qreg q[2];\nrx(0.5 q[0];\n", "unterminated parameter"},
        {"qreg q[2];\nh q[0]\n", "missing ';'"},
        {"h q[0];\nqreg q[2];\n", "gate before qreg"},
    };
    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::CompileService svc(sopts);

    std::vector<std::uint64_t> bad_ids;
    for (const auto &[qasm, needle] : bad) {
        service::CompileRequest req;
        req.name = needle;
        req.qasm = qasm;
        bad_ids.push_back(svc.submit(std::move(req)));
    }
    service::CompileRequest good;
    good.name = "good";
    good.qasm = "qreg q[2];\nh q[0];\ncx q[0],q[1];\n";
    const auto good_id = svc.submit(std::move(good));

    for (size_t i = 0; i < bad_ids.size(); ++i) {
        const service::JobResult r = svc.wait(bad_ids[i]);
        EXPECT_FALSE(r.ok) << bad[i].first;
        EXPECT_NE(r.error.find("qasm parse error"),
                  std::string::npos)
            << r.error;
        EXPECT_NE(r.error.find(bad[i].second), std::string::npos)
            << r.error;
    }
    const service::JobResult gr = svc.wait(good_id);
    ASSERT_TRUE(gr.ok) << gr.error;
    EXPECT_GT(gr.metrics.count2Q, 0);
}

TEST(CompileService, NonFiniteParametersAreABadRequest)
{
    // A NaN or infinite angle fails as that job's bad-request error,
    // from QASM and from a programmatic circuit alike, instead of
    // compiling into a finite-looking artifact; the service keeps
    // serving.
    service::CompileService svc;

    service::CompileRequest fromQasm;
    fromQasm.name = "nan-qasm";
    fromQasm.qasm = "qreg q[2];\nu3(nan,inf,-inf) q[0];\ncx q[0],q[1];\n";
    const service::JobResult a = svc.wait(svc.submit(std::move(fromQasm)));
    EXPECT_FALSE(a.ok);
    EXPECT_EQ(a.errorInfo.code, service::errc::kBadRequest);
    EXPECT_NE(a.error.find("non-finite"), std::string::npos) << a.error;
    EXPECT_TRUE(a.compiled.circuit.empty());

    service::CompileRequest programmatic;
    programmatic.name = "inf-input";
    programmatic.input = Circuit(2);
    programmatic.input.add(Gate::cx(0, 1));
    programmatic.input.add(
        Gate::rz(1, std::numeric_limits<double>::infinity()));
    const service::JobResult b =
        svc.wait(svc.submit(std::move(programmatic)));
    EXPECT_FALSE(b.ok);
    EXPECT_EQ(b.errorInfo.code, service::errc::kBadRequest);
    EXPECT_NE(b.error.find("gate 1"), std::string::npos) << b.error;

    service::CompileRequest good;
    good.name = "finite";
    good.qasm = "qreg q[2];\nu3(0.1,0.2,0.3) q[0];\ncx q[0],q[1];\n";
    const service::JobResult c = svc.wait(svc.submit(std::move(good)));
    EXPECT_TRUE(c.ok) << c.error;
}

TEST(CompileService, McxWithoutAncillaWiresIsABadRequest)
{
    // An MCX with k controls is lowered on k - 2 wires it does not
    // touch. A register without them fails as that job's bad-request
    // error (it used to index past the ancilla list and crash); the
    // service keeps serving, and a register with room compiles.
    const std::string narrow =
        "qreg q[4];\nmcx q[0],q[1],q[2],q[3];\n";
    EXPECT_THROW(circuit::decomposeMcx(circuit::fromQasm(narrow)),
                 std::invalid_argument);

    service::CompileService svc;
    service::CompileRequest fromQasm;
    fromQasm.name = "mcx-narrow";
    fromQasm.qasm = narrow;
    const service::JobResult a = svc.wait(svc.submit(std::move(fromQasm)));
    EXPECT_FALSE(a.ok);
    EXPECT_EQ(a.errorInfo.code, service::errc::kBadRequest);
    EXPECT_NE(a.error.find("gate 0"), std::string::npos) << a.error;

    service::CompileRequest programmatic;
    programmatic.name = "mcx-6-on-6";
    programmatic.input = Circuit(6);
    programmatic.input.add(Gate::h(0));
    programmatic.input.add(Gate::mcx({0, 1, 2, 3, 4}, 5));
    const service::JobResult b =
        svc.wait(svc.submit(std::move(programmatic)));
    EXPECT_FALSE(b.ok);
    EXPECT_EQ(b.errorInfo.code, service::errc::kBadRequest);
    EXPECT_NE(b.error.find("gate 1"), std::string::npos) << b.error;

    service::CompileRequest roomy;
    roomy.name = "mcx-with-ancilla";
    roomy.qasm = "qreg q[5];\nmcx q[0],q[1],q[2],q[3];\n";
    const service::JobResult c = svc.wait(svc.submit(std::move(roomy)));
    EXPECT_TRUE(c.ok) << c.error;
}

TEST(CliFlags, NumericValuesAreStrict)
{
    // The parsing behind reqisc-compile / reqisc-compiled numeric
    // flags; the thread-count cap is checked here, where rejecting it
    // starts no threads.
    const long long cap = service::kMaxThreadsFlag;
    int n = -1;
    std::string error;
    EXPECT_TRUE(service::parseIntFlag("--jobs", "4", 0, cap, n, error));
    EXPECT_EQ(n, 4);
    EXPECT_TRUE(service::parseIntFlag("--jobs", std::to_string(cap).c_str(),
                                      0, cap, n, error));
    EXPECT_EQ(n, cap);
    const std::string over = std::to_string(cap + 1);
    for (const char *bad : {"", "abc", "4x", " 4", "-1", over.c_str(),
                            "99999999999999999999"}) {
        error.clear();
        EXPECT_FALSE(service::parseIntFlag("--jobs", bad, 0, cap, n, error))
            << "'" << bad << "'";
        EXPECT_NE(error.find("--jobs"), std::string::npos) << error;
    }
    EXPECT_EQ(n, cap);  // a rejected value leaves the target alone

    double r = 0.0;
    EXPECT_TRUE(service::parseNonNegativeFlag("--quota-rate", "2.5", r,
                                              error));
    EXPECT_EQ(r, 2.5);
    for (const char *bad : {"", "fast", "2.5s", "-0.5", "nan", "inf",
                            "1e999"})
        EXPECT_FALSE(service::parseNonNegativeFlag("--quota-rate", bad, r,
                                                   error))
            << "'" << bad << "'";
    EXPECT_EQ(r, 2.5);
}

TEST(CompileService, WaitSemantics)
{
    service::CompileService svc;
    EXPECT_THROW(svc.wait(1), std::invalid_argument);  // never issued

    service::CompileRequest req;
    req.name = "tiny";
    req.input = Circuit(2);
    req.input.add(Gate::cx(0, 1));
    const auto id = svc.submit(std::move(req));
    service::JobResult r = svc.wait(id);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.id, id);
    EXPECT_EQ(r.name, "tiny");
    // A result can only be taken once.
    EXPECT_THROW(svc.wait(id), std::invalid_argument);
    // waitAll after everything was taken: empty, not blocking.
    EXPECT_TRUE(svc.waitAll().empty());
}

TEST(CompileService, DisabledCachesStillCompile)
{
    service::ServiceOptions sopts;
    sopts.threads = 2;
    sopts.enableCaches = false;
    service::CompileService svc(sopts);
    service::CompileRequest req;
    req.name = "qft";
    req.input = suite::smallSuite()[5].circuit;
    const auto id = svc.submit(std::move(req));
    service::JobResult r = svc.wait(id);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(svc.synthCacheStats().hits +
                  svc.synthCacheStats().misses,
              0);
    EXPECT_EQ(svc.synthCacheSize(), 0u);
    EXPECT_TRUE(svc.synthCachePerClass().empty());
}

// ---- Concurrent SynthCache + intra-job block workers -------------------

namespace
{

/** Exact (bitwise double) equality of two matrices. */
bool
exactMatrix(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j)
            if (a(i, j).real() != b(i, j).real() ||
                a(i, j).imag() != b(i, j).imag())
                return false;
    return true;
}

} // namespace

TEST(SynthCache, ConcurrentLookupStoreStressIsRaceFree)
{
    // Run under TSan in CI: several threads hammer lookup/store on a
    // shared cache — the access pattern of block-pool threads
    // inside one job — both on a single-shard cache under eviction
    // pressure and on a striped one, then a PulseCache under eviction
    // pressure. Synth entries are hand-crafted (one opaque U4 whose
    // lift *is* the target) so a hit's verification passes
    // bit-exactly without running the structure search.
    constexpr int kThreads = 8;
    constexpr int kIters = 400;
    constexpr int kClasses = 16;

    Rng rng(101);
    std::vector<Matrix> locals, targets;
    std::vector<synth::SynthesisResult> entries;
    for (int i = 0; i < kClasses; ++i) {
        const Matrix u = randomUnitary(4, rng);
        synth::SynthesisResult r;
        r.success = true;
        r.infidelity = 0.0;
        r.blockCount = 1;
        r.gates = {Gate::u4(0, 1, u)};
        locals.push_back(u);
        targets.push_back(synth::liftGate(u, {0, 1}, 3));
        entries.push_back(std::move(r));
    }

    synth::SynthesisOptions opts;
    opts.descending = true;

    for (std::size_t capacity :
         {std::size_t{8}, service::SynthCache::kStripeThreshold}) {
        service::SynthCache cache(capacity);
        std::atomic<std::int64_t> good_hits{0};
        std::atomic<std::int64_t> bad_hits{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kIters; ++i) {
                    const int k = (t * 7 + i) % kClasses;
                    synth::SynthesisResult out;
                    if (!cache.lookup(targets[k], opts, out)) {
                        cache.store(targets[k], opts, entries[k],
                                    1e-4);
                        continue;
                    }
                    // A hit must be the exact stored entry.
                    const bool exact =
                        out.success && out.gates.size() == 1 &&
                        out.gates[0].op == Op::U4 &&
                        out.gates[0].payload &&
                        exactMatrix(*out.gates[0].payload, locals[k]);
                    ++(exact ? good_hits : bad_hits);
                }
            });
        }
        for (auto &th : threads)
            th.join();

        EXPECT_EQ(bad_hits, 0);
        const auto stats = cache.stats();
        // Every iteration does exactly one lookup.
        EXPECT_EQ(stats.hits + stats.misses,
                  std::int64_t{kThreads} * kIters);
        EXPECT_EQ(stats.hits, good_hits);
        EXPECT_LE(cache.size(), capacity);
        if (capacity < kClasses) {
            EXPECT_EQ(cache.shardCount(), 1);
            EXPECT_GT(stats.evictions, 0);
        } else {
            EXPECT_GT(cache.shardCount(), 1);
        }
    }

    // The pulse cache under the same eviction pressure: 16 classes
    // through 8 slots, each hit the solution stored for its class.
    PulseEvictionProbe probe(8, kClasses);
    std::atomic<std::int64_t> good_hits{0};
    std::atomic<std::int64_t> bad_hits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const int k = (t * 7 + i) % kClasses;
                uarch::PulseSolution out;
                if (!probe.cache.lookup(probe.keys[k], out)) {
                    probe.store(k);
                    continue;
                }
                const bool exact = out.converged && out.tau == k &&
                                   out.target.distance(probe.keys[k]) ==
                                       0.0;
                ++(exact ? good_hits : bad_hits);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(bad_hits, 0);
    const auto stats = probe.cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, std::int64_t{kThreads} * kIters);
    EXPECT_EQ(stats.hits, good_hits);
    EXPECT_LE(probe.cache.size(), 8u);
    EXPECT_GT(stats.evictions, 0);
}

TEST(CompileService, BlockWorkersProduceBitIdenticalArtifacts)
{
    // The tentpole's determinism contract at the service level: the
    // same batch compiled with serial block resynthesis and with a
    // shared 4-worker block pool yields identical artifacts.
    std::vector<std::string> flat1, flat4;
    for (int bw : {1, 4}) {
        service::ServiceOptions sopts;
        sopts.threads = 2;
        sopts.blockWorkers = bw;
        service::CompileService svc(sopts);
        EXPECT_EQ(svc.blockWorkers(), bw);
        svc.submitBatch(twentyCircuitBatch());
        auto results = svc.waitAll();
        ASSERT_EQ(results.size(), 20u);
        auto &flat = bw == 1 ? flat1 : flat4;
        for (const auto &r : results) {
            ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
            flat.push_back(flatten(r));
        }
    }
    ASSERT_EQ(flat1.size(), flat4.size());
    for (size_t i = 0; i < flat1.size(); ++i)
        EXPECT_EQ(flat1[i], flat4[i]) << "job " << i;
}

TEST(CompileService, AutoBlockWorkersResolveToAtLeastOne)
{
    service::ServiceOptions sopts;
    sopts.threads = 1;
    sopts.blockWorkers = 0;  // auto: hardware left over after workers
    service::CompileService svc(sopts);
    EXPECT_GE(svc.blockWorkers(), 1);

    // And the pool still compiles correctly whatever it resolved to.
    service::CompileRequest req;
    req.name = "adder";
    req.input = suite::smallSuite()[2].circuit;
    service::JobResult r = svc.wait(svc.submit(std::move(req)));
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(CompileService, CancelSkipsAQueuedJobAndKeepsFifoOrder)
{
    // One worker held inside job A's first pass: B and C queue up
    // behind it, B is canceled there, and only A and C ever run.
    service::ServiceOptions sopts;
    sopts.threads = 1;
    service::CompileService svc(sopts);
    const Circuit input = suite::smallSuite()[0].circuit;

    std::promise<void> entered, release;
    const std::shared_future<void> released =
        release.get_future().share();
    std::atomic<bool> held{false};
    service::CompileRequest a;
    a.name = "A";
    a.input = input;
    a.onPass = [&](const compiler::PassTrace &) {
        if (!held.exchange(true)) {
            entered.set_value();
            released.wait();
        }
    };
    const std::uint64_t idA = svc.submit(std::move(a));
    entered.get_future().wait();

    std::atomic<int> bDone{0};
    service::CompileRequest b;
    b.name = "B";
    b.input = input;
    b.onDone = [&bDone](service::JobResult) { ++bDone; };
    const std::uint64_t idB = svc.submit(std::move(b));
    service::CompileRequest c;
    c.name = "C";
    c.input = input;
    const std::uint64_t idC = svc.submit(std::move(c));

    EXPECT_EQ(svc.cancel(idB),
              service::CompileService::CancelOutcome::Canceled);
    release.set_value();

    const std::vector<service::JobResult> results = svc.waitAll();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].id, idA);
    EXPECT_EQ(results[1].id, idC);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(bDone.load(), 0);
    EXPECT_THROW(svc.wait(idB), std::invalid_argument);
    EXPECT_EQ(svc.cancel(idA),
              service::CompileService::CancelOutcome::Finished);
}

// ---- util::WorkerPool --------------------------------------------------

TEST(WorkerPool, PostOnOneThreadRunsTasksInFifoOrder)
{
    std::vector<int> order;
    {
        util::WorkerPool pool(1);
        EXPECT_EQ(pool.threads(), 1);
        for (int i = 0; i < 64; ++i)
            pool.post([&order, i] { order.push_back(i); });
    }
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(WorkerPool, PostedTasksCarryNoJobScope)
{
    std::string seen = "unset";
    {
        util::WorkerPool pool(1);
        obs::JobScope job("poster");
        pool.post([&seen] { seen = obs::currentJobName(); });
    }
    EXPECT_EQ(seen, "");
}

TEST(WorkerPool, DestructorRunsEveryQueuedTaskBeforeJoining)
{
    // The only thread is parked on a gate while the counting tasks
    // queue up behind it; the gate opens just before destruction.
    std::promise<void> gate;
    const std::shared_future<void> open = gate.get_future().share();
    std::atomic<int> ran{0};
    {
        util::WorkerPool pool(1);
        pool.post([open] { open.wait(); });
        for (int i = 0; i < 32; ++i)
            pool.post([&ran] { ++ran; });
        gate.set_value();
    }
    EXPECT_EQ(ran.load(), 32);

    // Without threads every posted task is certainly still queued
    // when the destructor starts.
    ran = 0;
    {
        util::WorkerPool pool(0);
        for (int i = 0; i < 32; ++i)
            pool.post([&ran] { ++ran; });
        EXPECT_EQ(ran.load(), 0);
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(WorkerPool, RunWithoutThreadsExecutesOnTheCaller)
{
    util::WorkerPool pool(0);
    EXPECT_EQ(pool.threads(), 0);
    EXPECT_EQ(pool.workers(), 1);
    std::vector<std::thread::id> ranOn(6);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < ranOn.size(); ++i)
        tasks.push_back(
            [&ranOn, i] { ranOn[i] = std::this_thread::get_id(); });
    pool.run(std::move(tasks));
    for (const std::thread::id &id : ranOn)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(WorkerPool, RunRethrowsOnlyAfterTheWholeBatchFinished)
{
    // Task 0 is first in the queue and throws; every other task waits
    // for that throw before it finishes, so a rethrow that did not
    // wait for the batch would see fewer than all of them done.
    util::WorkerPool pool(2);
    std::atomic<bool> thrown{false};
    std::atomic<int> finished{0};
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&thrown] {
        thrown = true;
        throw std::runtime_error("task 0 failed");
    });
    for (int i = 1; i < 8; ++i)
        tasks.push_back([&thrown, &finished] {
            while (!thrown.load())
                std::this_thread::yield();
            ++finished;
        });
    EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
    EXPECT_EQ(finished.load(), 7);
}
