#include "oracle.hh"

#include <cmath>
#include <random>

#include "circuit/lower.hh"
#include "inputs.hh"
#include "qsim/statevector.hh"

namespace perfbench::oracle
{

using namespace reqisc;
using qmath::Complex;

namespace
{

void
normalize(std::vector<Complex> &a)
{
    double n = 0.0;
    for (const Complex &x : a)
        n += std::norm(x);
    n = std::sqrt(n);
    for (Complex &x : a)
        x /= n;
}

qsim::StateVector
randomState(int n, qmath::Rng &rng)
{
    std::normal_distribution<double> g;
    qsim::StateVector sv(n);
    for (Complex &x : sv.amplitudes())
        x = Complex(g(rng), g(rng));
    normalize(sv.amplitudes());
    return sv;
}

/** |phi>^{(x) n} for one random one-qubit state phi. */
qsim::StateVector
symmetricProduct(int n, qmath::Rng &rng)
{
    std::normal_distribution<double> g;
    std::vector<Complex> phi{Complex(g(rng), g(rng)),
                             Complex(g(rng), g(rng))};
    normalize(phi);
    qsim::StateVector sv(n);
    std::vector<Complex> &a = sv.amplitudes();
    for (std::size_t i = 0; i < a.size(); ++i) {
        Complex v(1.0, 0.0);
        for (int q = 0; q < n; ++q)
            v *= phi[(i >> q) & 1];
        a[i] = v;
    }
    return sv;
}

std::string
compare(const qsim::StateVector &want, const qsim::StateVector &got,
        const char *what)
{
    const double f = want.fidelity(got);
    if (!(f > 1.0 - kTol))
        return std::string(what) + " state fidelity " + std::to_string(f);
    return "";
}

bool
isPermutation(const std::vector<int> &p, int n)
{
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (int x : p) {
        if (x < 0 || x >= n || seen[static_cast<std::size_t>(x)])
            return false;
        seen[static_cast<std::size_t>(x)] = true;
    }
    return true;
}

/**
 * The input as the oracle simulates it. Every gate acts by its own
 * matrix, except that an MCX with three or more controls is taken in
 * the IR's documented meaning, a clean-ancilla V-chain on the
 * lowest-index idle wires (circuit::decomposeMcx): it equals the
 * textbook MCX only while those wires hold |0>, which random input
 * states do not respect.
 */
circuit::Circuit
reference(const circuit::Circuit &input)
{
    return circuit::decomposeMcx(input);
}

} // namespace

std::string
checkLogical(const circuit::Circuit &input,
             const circuit::Circuit &compiled,
             const std::vector<int> &perm, std::uint64_t seed)
{
    const int n = input.numQubits();
    if (compiled.numQubits() != n ||
        static_cast<int>(perm.size()) != n || !isPermutation(perm, n))
        return "artifact width or permutation does not match the input";
    qmath::Rng rng = streamRng(seed, 11, 0);
    for (int trial = 0; trial < 2; ++trial) {
        qsim::StateVector want = randomState(n, rng);
        qsim::StateVector got = want;
        want.applyCircuit(reference(input));
        got.applyCircuit(compiled);
        got.permuteQubits(qsim::inversePermutation(perm));
        if (std::string why = compare(want, got, "logical");
            !why.empty())
            return why;
    }
    return "";
}

std::string
checkRouted(const circuit::Circuit &input,
            const circuit::Circuit &routed,
            const std::vector<int> &layout, std::uint64_t seed)
{
    const int n = input.numQubits();
    const int wires = routed.numQubits();
    if (wires < n || static_cast<int>(layout.size()) != n ||
        !isPermutation(layout, wires))
        return "routed width or layout does not match the input";
    qmath::Rng rng = streamRng(seed, 12, 0);
    qsim::StateVector start = symmetricProduct(wires, rng);
    qsim::StateVector got = start;
    got.applyCircuit(routed);
    // Reference: the input on the first n wires (ancillas hold the
    // same phi and are untouched), then logical q -> wire layout[q],
    // ancillas onto the remaining wires in order.
    circuit::Circuit widened(wires);
    for (const circuit::Gate &g : reference(input))
        widened.add(g);
    qsim::StateVector want = start;
    want.applyCircuit(widened);
    std::vector<int> full(layout);
    std::vector<bool> used(static_cast<std::size_t>(wires), false);
    for (int w : layout)
        used[static_cast<std::size_t>(w)] = true;
    for (int w = 0; w < wires; ++w)
        if (!used[static_cast<std::size_t>(w)])
            full.push_back(w);
    want.permuteQubits(full);
    return compare(want, got, "routed");
}

std::string
selfCheck(const circuit::Circuit &input,
          const circuit::Circuit &compiled, const std::vector<int> &perm,
          std::uint64_t seed)
{
    if (std::string why = checkLogical(input, compiled, perm, seed);
        !why.empty())
        return "self-check baseline rejected: " + why;
    circuit::Circuit bent = compiled;
    bool touched = false;
    for (circuit::Gate &g : bent.gates())
        if (g.is2Q() && !g.params.empty()) {
            g.params[0] += 0.2;
            touched = true;
            break;
        }
    if (!touched)
        bent.add(circuit::Gate::rx(0, 0.4));
    if (checkLogical(input, bent, perm, seed).empty())
        return "oracle accepted a perturbed 2Q gate";
    if (perm.size() >= 2) {
        std::vector<int> swapped = perm;
        std::swap(swapped[0], swapped[1]);
        if (checkLogical(input, compiled, swapped, seed).empty())
            return "oracle accepted a wrong output permutation";
    }
    return "";
}

} // namespace perfbench::oracle
