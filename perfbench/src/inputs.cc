#include "inputs.hh"

#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <numbers>
#include <random>

#include "suite/suite.hh"

namespace perfbench
{

using namespace reqisc;

qmath::Rng
streamRng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    std::seed_seq seq{static_cast<std::uint32_t>(seed),
                      static_cast<std::uint32_t>(seed >> 32),
                      static_cast<std::uint32_t>(stream),
                      static_cast<std::uint32_t>(index),
                      static_cast<std::uint32_t>(index >> 32)};
    return qmath::Rng(seq);
}

namespace
{

int
pick(qmath::Rng &rng, int lo, int hi)
{
    return std::uniform_int_distribution<int>(lo, hi)(rng);
}

unsigned
genSeed(qmath::Rng &rng)
{
    return static_cast<unsigned>(rng() % 100000u);
}

/**
 * Valid input: every gate acts on distinct in-range wires with finite
 * parameters. Some generator seeds emit a gate on a repeated wire
 * (e.g. makeHwb's cx(q, q)); the compiler does not reject those, so a
 * request carrying one would measure invalid-input behaviour, which is
 * out of scope here.
 */
bool
isValid(const circuit::Circuit &c)
{
    for (const circuit::Gate &g : c) {
        for (std::size_t i = 0; i < g.qubits.size(); ++i) {
            if (g.qubits[i] < 0 || g.qubits[i] >= c.numQubits())
                return false;
            for (std::size_t j = 0; j < i; ++j)
                if (g.qubits[j] == g.qubits[i])
                    return false;
        }
        for (double p : g.params)
            if (!std::isfinite(p))
                return false;
    }
    return true;
}

/** Draw from `make(rng)` until the program is valid input. */
template <typename Make>
suite::Benchmark
drawValid(qmath::Rng &rng, Make &&make)
{
    for (int attempt = 0; attempt < 64; ++attempt) {
        suite::Benchmark b = make(rng);
        if (isValid(b.circuit))
            return b;
    }
    throw std::runtime_error("no valid program drawn in 64 attempts");
}

} // namespace

std::vector<Request>
coldLogicRound(std::uint64_t seed, int round)
{
    qmath::Rng rng = streamRng(seed, 1, static_cast<std::uint64_t>(round));
    // Size ranges keep every program at 5..13 qubits, and a round mixes
    // cheap and expensive jobs the same way at every seed: grover on 3
    // search qubits (one hard 3Q block, ~0.6 s, the slowest job of
    // every round, so the p95 tail sits on it), everything else under
    // ~0.35 s. Wider alu/grover/urf ranges made the tail depend on the
    // size draw more than on the compiler.
    using M = std::function<suite::Benchmark(qmath::Rng &)>;
    const M makers[] = {
        [](qmath::Rng &r) {
            return suite::makeAlu(5, pick(r, 10, 16), genSeed(r));
        },
        [](qmath::Rng &r) { return suite::makeBitAdder(pick(r, 3, 4)); },
        [](qmath::Rng &r) {
            return suite::makeComparator(pick(r, 3, 4), genSeed(r));
        },
        [](qmath::Rng &r) {
            return suite::makeEncoding(pick(r, 4, 6), genSeed(r));
        },
        [](qmath::Rng &r) {
            return suite::makeGrover(3, pick(r, 1, 2));
        },
        [](qmath::Rng &r) {
            return suite::makeHwb(pick(r, 4, 5), genSeed(r));
        },
        [](qmath::Rng &r) { return suite::makeModulo(pick(r, 4, 6)); },
        [](qmath::Rng &r) { return suite::makeMult(pick(r, 2, 3)); },
        [](qmath::Rng &r) { return suite::makeRippleAdd(pick(r, 3, 5)); },
        [](qmath::Rng &r) {
            return suite::makeSym(pick(r, 4, 6), genSeed(r));
        },
        [](qmath::Rng &r) { return suite::makeTof(pick(r, 3, 6)); },
        [](qmath::Rng &r) {
            return suite::makeUrf(5, pick(r, 16, 24), genSeed(r));
        },
    };
    std::vector<suite::Benchmark> b;
    for (const M &make : makers)
        b.push_back(drawValid(rng, make));
    std::vector<Request> out;
    for (suite::Benchmark &x : b)
        out.push_back({"r" + std::to_string(round) + "-" + x.name,
                       std::move(x.circuit)});
    return out;
}

Request
sweepRequest(std::uint64_t seed, std::int64_t index)
{
    // Four fixed programs (the parameter-sweep client's circuits); the
    // seed and the index only choose the angles, so every seed offers
    // the same structures and the same work.
    const int kind = static_cast<int>(index % 4);
    suite::Benchmark b;
    switch (kind) {
      case 0: b = suite::makePf(8, 2, 41); break;
      case 1: b = suite::makeQaoa(8, 1, 43); break;
      case 2: b = suite::makeUccsd(8, 4, 59); break;
      default: b = suite::makeQft(6); break;
    }
    qmath::Rng angleRng =
        streamRng(seed, 3, static_cast<std::uint64_t>(index));
    std::uniform_real_distribution<double> angle(-std::numbers::pi,
                                                 std::numbers::pi);
    std::map<double, double> fresh;
    for (circuit::Gate &g : b.circuit.gates())
        for (double &p : g.params) {
            const auto [it, added] = fresh.try_emplace(p, 0.0);
            if (added)
                it->second = angle(angleRng);
            p = it->second;
        }
    return {"s" + std::to_string(index) + "-" + b.name,
            std::move(b.circuit)};
}

std::vector<Request>
daemonPool()
{
    std::vector<Request> out;
    for (suite::Benchmark &b : suite::smallSuite())
        out.push_back({b.name, std::move(b.circuit)});
    return out;
}

circuit::Circuit
warmupCircuit()
{
    return suite::makeAlu(4, 6, 5).circuit;
}

} // namespace perfbench
