/**
 * @file
 * The traced run's per-layer probe. Every number here comes from
 * timing, in the benchmark's own code, a call into one layer's public
 * functions on the workload's own requests (its quality set), so the
 * per-layer readings describe the same inputs as the end-to-end ones.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <unistd.h>

#include "backend/reconfigure.hh"
#include "circuit/qasm.hh"
#include "compiler/pass_manager.hh"
#include "compiler/passes.hh"
#include "isa/schedule.hh"
#include "qmath/eig.hh"
#include "qmath/expm.hh"
#include "qmath/kernels.hh"
#include "qmath/random.hh"
#include "qmath/svd.hh"
#include "route/sabre.hh"
#include "synth/instantiate.hh"
#include "synth/synthesis.hh"
#include "trace.hh"
#include "uarch/calibration.hh"
#include "uarch/genashn.hh"
#include "weyl/weyl.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace reqisc;

namespace
{

/** Requests of the quality set the probe runs on. */
constexpr std::size_t kProbeRequests = 24;
constexpr std::size_t kMaxInstantiate = 6;
constexpr std::size_t kMaxWeylGates = 1500;

/** Median per-call time over `batches` batches of `reps` calls. */
template <typename F>
double
perCall(const std::string &span, int batches, int reps, F &&fn)
{
    std::vector<double> per;
    for (int b = 0; b < batches; ++b)
        per.push_back(trace::timed(span, [&] {
                          for (int i = 0; i < reps; ++i)
                              fn();
                      }) /
                      reps);
    return median(per);
}

void
probeQmath(const Config &cfg, Report &rep)
{
    qmath::Rng rng = streamRng(cfg.seed, 20, 0);
    const qmath::Matrix a = qmath::randomUnitary(8, rng),
                        b = qmath::randomUnitary(8, rng);
    qmath::Matrix dst(8, 8);
    const qmath::Matrix h4 = qmath::randomHermitian(4, rng);
    const qmath::Matrix g4 = qmath::randomGinibre(4, rng);
    double sink = 0.0;
    rep.layer("qmath.mul8_ns", 1e9 * perCall("qmath.mul8", 7, 20000, [&] {
                  qmath::kernels::mulInto(dst, a, b);
                  sink += dst(0, 0).real();
              }),
              "ns");
    rep.layer("qmath.eigh4_us", 1e6 * perCall("qmath.eigh4", 7, 2000, [&] {
                  sink += qmath::eigh(h4).values[0];
              }),
              "us");
    rep.layer("qmath.svd4_us", 1e6 * perCall("qmath.svd4", 7, 2000, [&] {
                  sink += qmath::svd(g4).s[0];
              }),
              "us");
    rep.layer("qmath.expim4_us",
              1e6 * perCall("qmath.expim4", 7, 2000, [&] {
                  sink += qmath::expim(h4, 0.7)(0, 0).real();
              }),
              "us");
    if (sink == 12345.678)
        std::printf("(unlikely)\n");
}

/** The pass list the workload's service runs, as spec tokens. */
std::vector<std::string>
servicePassList(const compiler::CompileOptions &opts)
{
    std::vector<std::string> p = compiler::compilePassList(
        compiler::PipelineSpec::Kind::Full, opts);
    // route / reconfigure are no-ops without a chip; they are listed
    // everywhere so every workload reports every pass.
    for (const char *tok : {"route", "estimate", "reconfigure", "schedule"})
        p.push_back(tok);
    return p;
}

struct Compiled
{
    circuit::Circuit fused;    //!< IR entering hier-synth
    circuit::Circuit logical;  //!< compiled logical circuit
};

/** compiler.*: run the pipeline one pass at a time per request. */
std::vector<Compiled>
probeCompiler(const LayerInputs &in,
              const backend::ReconfigureResult *reconfig, Report &rep)
{
    const compiler::CompileOptions opts;
    const std::vector<std::string> passes = servicePassList(opts);
    std::map<std::string, double> seconds, gates;
    std::vector<Compiled> out;
    for (std::size_t i = 0; i < in.requests.size(); ++i) {
        const Request &r = in.requests[i];
        trace::Scope job("compiler.pipeline", i + 1);
        compiler::CompilationUnit unit =
            compiler::CompilationUnit::forInput(r.circuit, opts);
        unit.backend = in.target.chip.get();
        unit.reconfig = reconfig;
        unit.coupling = uarch::Coupling::xy(1.0);
        unit.scheduleOptions.strategy = isa::Strategy::Asap;
        Compiled c;
        for (const std::string &tok : passes) {
            std::string error;
            const std::unique_ptr<compiler::Pass> pass =
                compiler::makePass(tok, error);
            if (tok == "hier-synth")
                c.fused = unit.circuit;
            seconds[tok] += trace::timed("compiler.pass." + tok,
                                         [&] { pass->run(unit); });
            gates[tok] += static_cast<double>(unit.active().size());
        }
        c.logical = unit.circuit;
        out.push_back(std::move(c));
    }
    const double n = static_cast<double>(in.requests.size());
    for (const std::string &tok : passes) {
        rep.layer("pass." + tok + ".ms_per_circuit",
                  1e3 * seconds[tok] / n, "ms");
        rep.layer("pass." + tok + ".gates_out", gates[tok] / n, "gates");
    }
    return out;
}

/**
 * synth.*: resynthesize the request's own 3Q blocks above m_th, the
 * blocks hier-synth works on (partition of the compacted fused IR).
 * A workload without such blocks (sweep-chip) times the same calls on
 * seeded random 3Q targets, so the kernel cost is still read.
 */
void
probeSynth(const Config &cfg, const std::vector<Compiled> &cs,
           Report &rep)
{
    const compiler::CompileOptions copts;
    struct Block
    {
        qmath::Matrix u;
        std::vector<int> qubits;
        int count2Q;
    };
    std::vector<Block> blocks;
    for (const Compiled &c : cs)
        for (const compiler::Partition3Q &b :
             compiler::partition3Q(compiler::dagCompact(c.fused))) {
            if (b.count2Q <= copts.mTh || b.qubits.size() < 3)
                continue;
            qmath::Matrix u = qmath::Matrix::identity(8);
            for (const circuit::Gate &g : b.gates) {
                std::vector<int> local;
                for (int q : g.qubits)
                    local.push_back(static_cast<int>(
                        std::find(b.qubits.begin(), b.qubits.end(), q) -
                        b.qubits.begin()));
                u = synth::liftGate(g.matrix(), local, 3) * u;
            }
            blocks.push_back({std::move(u), b.qubits, b.count2Q});
        }
    const std::size_t own = blocks.size();
    qmath::Rng rng = streamRng(cfg.seed, 21, 0);
    while (blocks.size() < kMaxInstantiate)
        blocks.push_back({qmath::randomUnitary(8, rng), {0, 1, 2}, 8});

    std::vector<double> ms;
    int reduced = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        synth::SynthesisOptions o;
        o.tol = copts.synthTol;
        o.maxBlocks = std::min(7, blocks[i].count2Q - 1);
        o.descending = true;
        o.seed = copts.seed;
        synth::SynthesisResult res;
        ms.push_back(1e3 * trace::timed("synth.block", [&] {
                         res = synth::synthesizeBlock(
                             blocks[i].u, blocks[i].qubits, o);
                     }));
        if (i < own && res.success && res.blockCount < blocks[i].count2Q)
            ++reduced;
    }
    const std::vector<synth::Slot> ansatz = {
        synth::Slot::free2Q(0, 1), synth::Slot::free2Q(1, 2),
        synth::Slot::free2Q(0, 1), synth::Slot::free2Q(1, 2),
        synth::Slot::free2Q(0, 1), synth::Slot::free2Q(1, 2)};
    std::vector<double> instMs;
    int converged = 0;
    for (std::size_t i = 0; i < kMaxInstantiate; ++i) {
        synth::InstantiateOptions o;
        o.seed = static_cast<unsigned>(cfg.seed + i);
        synth::InstantiateResult res;
        instMs.push_back(1e3 * trace::timed("synth.instantiate", [&] {
                             res = synth::instantiate(blocks[i].u, 3,
                                                      ansatz, o);
                         }));
        converged += res.converged;
    }
    rep.layer("synth.blocks_per_circuit",
              static_cast<double>(own) / static_cast<double>(cs.size()),
              "blocks");
    rep.layer("synth.block_ms_p50", median(ms), "ms");
    rep.layer("synth.block_ms_max", *std::max_element(ms.begin(), ms.end()),
              "ms");
    rep.layer("synth.block_reduced_ratio",
              own ? static_cast<double>(reduced) / static_cast<double>(own)
                  : 0.0,
              "fraction");
    rep.layer("synth.instantiate_ms", median(instMs), "ms");
    rep.layer("synth.instantiate_converged_ratio",
              static_cast<double>(converged) /
                  static_cast<double>(kMaxInstantiate),
              "fraction");
}

/** weyl.*, uarch.*, route.*, isa.* on the compiled circuits. */
void
probeCircuitLayers(const LayerInputs &in, const std::vector<Compiled> &cs,
                   Report &rep)
{
    const uarch::Coupling cpl = uarch::Coupling::xy(1.0);
    const double n = static_cast<double>(cs.size());

    std::vector<qmath::Matrix> su4;
    for (const Compiled &c : cs)
        for (const circuit::Gate &g : c.logical)
            if (g.is2Q() && su4.size() < kMaxWeylGates)
                su4.push_back(g.matrix());
    double sink = 0.0;
    rep.layer("weyl.kak_us", 1e6 * perCall("weyl.kak", 5, 1, [&] {
                  for (const qmath::Matrix &u : su4)
                      sink += weyl::kakDecompose(u).coord.x;
              }) / static_cast<double>(std::max<std::size_t>(1, su4.size())),
              "us");
    rep.layer("weyl.coord_us", 1e6 * perCall("weyl.coord", 5, 1, [&] {
                  for (const qmath::Matrix &u : su4)
                      sink += weyl::weylCoordinate(u).x;
              }) / static_cast<double>(std::max<std::size_t>(1, su4.size())),
              "us");

    double calMs = 0.0, unsolved = 0.0;
    std::vector<double> solveUs;
    int solveOk = 0;
    const qmath::Matrix h = cpl.hamiltonian();
    for (const Compiled &c : cs) {
        uarch::CalibrationPlan plan;
        calMs += 1e3 * trace::timed("uarch.calibrate", [&] {
                     plan = uarch::planCalibration(c.logical, cpl);
                 });
        unsolved += plan.unsolved;
        for (const uarch::CalibrationEntry &e : plan.entries) {
            const qmath::Matrix u = weyl::canonicalGate(e.coord);
            uarch::ArbitrarySolution sol;
            solveUs.push_back(1e6 * trace::timed("uarch.solve", [&] {
                                  sol = uarch::solveArbitrary(h, u);
                              }));
            solveOk += sol.converged;
        }
    }
    rep.layer("uarch.calibrate_ms_per_circuit", calMs / n, "ms");
    rep.layer("uarch.solve_calls_per_circuit",
              static_cast<double>(solveUs.size()) / n, "count");
    rep.layer("uarch.solve_us_p50", median(solveUs), "us");
    rep.layer("uarch.solve_converged_ratio",
              solveUs.empty() ? 0.0
                              : static_cast<double>(solveOk) /
                                    static_cast<double>(solveUs.size()),
              "fraction");
    rep.layer("uarch.unsolved_per_circuit", unsolved / n, "count");

    // Routing: onto the chip when the workload has one, else onto a
    // chain as wide as the circuit (device-agnostic workloads do not
    // route; the reading is what routing their circuits would cost).
    double routeMs = 0.0, swaps = 0.0, schedUs = 0.0;
    for (const Compiled &c : cs) {
        const route::Topology topo =
            in.target.chip ? in.target.chip->topology()
                           : route::Topology::chain(c.logical.numQubits());
        route::RouteOptions ro;
        ro.mirroring = true;
        route::RouteResult rr;
        routeMs += 1e3 * trace::timed("route.sabre", [&] {
                       rr = route::sabreRoute(c.logical, topo, ro);
                   });
        swaps += rr.swapsInserted;
        isa::ScheduleOptions so;
        so.strategy = isa::Strategy::Asap;
        so.durations.coupling = cpl;
        schedUs += 1e6 * trace::timed("isa.schedule", [&] {
                       sink += isa::schedule(c.logical, so).makespan();
                   });
    }
    rep.layer("route.sabre_ms_per_circuit", routeMs / n, "ms");
    rep.layer("route.swaps_per_circuit", swaps / n, "count");
    rep.layer("isa.schedule_us_per_circuit", schedUs / n, "us");

    double toUs = 0.0, fromUs = 0.0;
    for (const Request &r : in.requests) {
        std::string text;
        toUs += 1e6 * trace::timed("circuit.to_qasm", [&] {
                    text = circuit::toQasm(r.circuit);
                });
        fromUs += 1e6 * trace::timed("circuit.from_qasm", [&] {
                      sink += circuit::fromQasm(text).size();
                  });
    }
    rep.layer("circuit.to_qasm_us", toUs / n, "us");
    rep.layer("circuit.from_qasm_us", fromUs / n, "us");
    if (sink == 12345.678)
        std::printf("(unlikely)\n");
}

/**
 * service.cache_load_ms (and, when the workload did not drive the
 * service itself, the service.* loop metrics): a closed-loop session
 * on a service persisting to a cache directory, then the time to
 * construct a service that loads what it saved.
 */
void
probeService(const Config &cfg, const LayerInputs &in, Report &rep)
{
    std::string dir = cfg.cacheDir;
    const bool ownDir = dir.empty();
    if (ownDir) {
        dir = cfg.outDir + "/probe-cache-" + std::to_string(::getpid());
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }
    service::ServiceOptions o = in.target.serviceOptions(1);
    o.cacheDir = dir;
    {
        service::CompileService svc(o);
        std::size_t pos = 0;
        const std::vector<JobRecord> recs =
            runClosedLoop(in.target, 1, [&](Feed &f) {
                if (pos >= in.requests.size())
                    return false;
                f.index = static_cast<std::int64_t>(pos);
                f.request = in.requests[pos++];
                f.service = &svc;
                return true;
            });
        if (!in.haveServiceLayer) {
            ServiceSamples samples;
            for (const JobRecord &r : recs)
                samples.add(r);
            Report tmp;
            reportServiceLayer(tmp, samples, svc.synthCacheStats(),
                               svc.pulseCacheStats());
            for (auto &[k, v] : tmp.perLayer)
                rep.perLayer.try_emplace(k, v);
        }
    }
    std::vector<double> load;
    for (int i = 0; i < 3; ++i) {
        trace::Scope s("service.cache_load");
        service::CompileService svc(o);
        load.push_back(1e3 * s.stop());
        if (!svc.synthCacheWarmStarted() && !svc.pulseCacheWarmStarted())
            rep.fail("service probe: no persisted cache loaded");
    }
    rep.layer("service.cache_load_ms", median(load), "ms");
    if (ownDir)
        std::filesystem::remove_all(dir);
}

} // namespace

void
probeLayers(const Config &cfg, const LayerInputs &all, Report &rep)
{
    LayerInputs in = all;
    if (in.requests.size() > kProbeRequests)
        in.requests.resize(kProbeRequests);
    probeQmath(cfg, rep);
    backend::ReconfigureResult reconfig;
    {
        // Reconfigure the workload's chip, or a uniform 8-qubit chain
        // for device-agnostic workloads.
        const backend::Backend chain =
            backend::Backend::uniform(route::Topology::chain(8));
        const backend::Backend &chip =
            in.target.chip ? *in.target.chip : chain;
        std::vector<double> ms;
        for (int i = 0; i < 3; ++i)
            ms.push_back(1e3 * trace::timed("backend.reconfigure", [&] {
                             reconfig = backend::reconfigure(chip);
                         }));
        rep.layer("backend.reconfigure_ms", median(ms), "ms");
    }
    const std::vector<Compiled> cs = probeCompiler(
        in, in.target.chip ? &reconfig : nullptr, rep);
    probeSynth(cfg, cs, rep);
    probeCircuitLayers(in, cs, rep);
    probeService(cfg, in, rep);
    if (!in.haveDaemonLayer)
        daemonProbe(in.target, in.requests, rep);
}

} // namespace perfbench
