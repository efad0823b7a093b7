/**
 * @file
 * Complex singular value decomposition via one-sided Jacobi.
 *
 * Used by the QFactor-style approximate synthesis engine (optimal
 * unitary block update) and by tensor-factor extraction.
 *
 * The Jacobi body is one template on the compile-time dimension,
 * held in local arrays (no allocation inside the solver); every n up
 * to Matrix::kInlineDim dispatches to it, and a larger n throws
 * std::invalid_argument. The operation sequence is fixed (pair order,
 * sweep cap, stopping test, sort, column completion) and the TU builds
 * with -ffp-contract=off, so results are bit-reproducible.
 */

#ifndef REQISC_QMATH_SVD_HH
#define REQISC_QMATH_SVD_HH

#include <vector>

#include "qmath/matrix.hh"

namespace reqisc::qmath
{

/** A = u * diag(s) * v^dagger with u, v unitary and s >= 0 descending. */
struct SvdResult
{
    Matrix u;
    std::vector<double> s;
    Matrix v;
};

/**
 * One-sided Jacobi SVD of a square complex matrix.
 *
 * @param a square input matrix, at most Matrix::kInlineDim wide
 * @return SVD with singular values sorted descending
 */
SvdResult svd(const Matrix &a);

/**
 * dst = v * u^dagger for the SVD a = u * diag(s) * v^dagger: the
 * unitary G maximizing Re Tr(G a), i.e. polarUnitary(a)^dagger. This
 * is the QFactor slot update, fused so no SvdResult is built; dst is
 * bit-identical to svd(a) followed by kernels::daggerInto and
 * kernels::mulInto. dst must not alias a; its storage is reused.
 *
 * @return true iff a was numerically rank-deficient and u needed the
 *         column completion svd() performs
 */
bool polarDaggerInto(Matrix &dst, const Matrix &a);

/**
 * Closest unitary to a in Frobenius norm (the unitary polar factor
 * u * v^dagger). For (near-)singular a the completion is arbitrary but
 * still exactly unitary.
 */
Matrix polarUnitary(const Matrix &a);

} // namespace reqisc::qmath

#endif // REQISC_QMATH_SVD_HH
