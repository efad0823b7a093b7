/**
 * @file
 * Seeded request generation. The program only ever sees what these
 * functions return; the same seed gives the same requests. Every
 * request is valid input (width fits the target, finite angles):
 * invalid input is the test suite's job, not the benchmark's.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "qmath/random.hh"

namespace perfbench
{

struct Request
{
    std::string name;
    reqisc::circuit::Circuit circuit;
};

/** A generator stream derived from (seed, stream, index). */
reqisc::qmath::Rng streamRng(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t index);

/**
 * cold-logic round `round`: one Type-I program per digital-logic
 * category (alu ... urf), sizes and generator seeds drawn from
 * (seed, round), so the twelve requests of a round are distinct.
 */
std::vector<Request> coldLogicRound(std::uint64_t seed, int round);

/**
 * sweep-chip request `index`: one of four fixed Type-II programs
 * (pf, qaoa, uccsd, qft; <= 8 qubits) with fresh angles drawn from
 * (seed, index). Gates that shared an angle in the program still
 * share the fresh one, as in a parameter sweep.
 */
Request sweepRequest(std::uint64_t seed, std::int64_t index);

/** daemon-warm's fixed request pool: the small suite. */
std::vector<Request> daemonPool();

/** The warm-up request set-up serves (in no measured set). */
reqisc::circuit::Circuit warmupCircuit();

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
