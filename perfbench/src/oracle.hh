/**
 * @file
 * Correctness oracle: simulate a request's input and its compiled
 * artifact with qsim on seeded random input states and compare the
 * two up to the artifact's output wiring. Runs outside every timed
 * region.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hh"

namespace perfbench::oracle
{

/** Accepted state infidelity (the repo's end-to-end test bound). */
inline constexpr double kTol = 1e-5;

/**
 * Check the logical artifact: logical qubit q of `input` ends on
 * wire perm[q] of `compiled`. Two random states. Returns "" when the
 * artifact matches, else the reason.
 */
std::string checkLogical(const reqisc::circuit::Circuit &input,
                         const reqisc::circuit::Circuit &compiled,
                         const std::vector<int> &perm,
                         std::uint64_t seed);

/**
 * Check a routed artifact: logical q ends on physical wire
 * layout[q]. The initial layout is not part of the artifact, so the
 * input state is a random product state with the same one-qubit
 * state on every wire (invariant under any initial placement).
 */
std::string checkRouted(const reqisc::circuit::Circuit &input,
                        const reqisc::circuit::Circuit &routed,
                        const std::vector<int> &layout,
                        std::uint64_t seed);

/**
 * The oracle's own test: perturb a known-good artifact (one 2Q
 * gate's parameter, then the output permutation) and confirm both
 * perturbations are flagged. Returns "" when they are.
 */
std::string selfCheck(const reqisc::circuit::Circuit &input,
                      const reqisc::circuit::Circuit &compiled,
                      const std::vector<int> &perm, std::uint64_t seed);

} // namespace perfbench::oracle

#endif // PERFBENCH_ORACLE_HH
