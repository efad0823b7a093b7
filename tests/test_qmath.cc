/**
 * @file
 * Unit and property tests for the qmath substrate.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "qmath/eig.hh"
#include "qmath/expm.hh"
#include "qmath/kernels.hh"
#include "qmath/matrix.hh"
#include "qmath/optimize.hh"
#include "qmath/random.hh"
#include "qmath/svd.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::qmath;

TEST(Matrix, IdentityAndMultiply)
{
    Matrix id = Matrix::identity(3);
    Matrix a(3, 3);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            a(i, j) = Complex(i + 1, j - 1);
    EXPECT_MATRIX_NEAR(a * id, a, 1e-15);
    EXPECT_MATRIX_NEAR(id * a, a, 1e-15);
}

TEST(Matrix, DaggerInvolution)
{
    Rng rng(7);
    Matrix a = randomGinibre(4, rng);
    EXPECT_MATRIX_NEAR(a.dagger().dagger(), a, 1e-15);
}

TEST(Matrix, TraceOfProductCyclic)
{
    Rng rng(11);
    Matrix a = randomGinibre(4, rng);
    Matrix b = randomGinibre(4, rng);
    Complex t1 = (a * b).trace();
    Complex t2 = (b * a).trace();
    EXPECT_NEAR(std::abs(t1 - t2), 0.0, 1e-10);
}

TEST(Matrix, KronMixedProduct)
{
    // (A (x) B)(C (x) D) = AC (x) BD.
    Rng rng(13);
    Matrix a = randomGinibre(2, rng), b = randomGinibre(2, rng);
    Matrix c = randomGinibre(2, rng), d = randomGinibre(2, rng);
    EXPECT_MATRIX_NEAR(kron(a, b) * kron(c, d), kron(a * c, b * d),
                       1e-9);
}

TEST(Matrix, PauliAlgebra)
{
    EXPECT_MATRIX_NEAR(pauliX() * pauliX(), Matrix::identity(2), 1e-15);
    EXPECT_MATRIX_NEAR(pauliY() * pauliY(), Matrix::identity(2), 1e-15);
    EXPECT_MATRIX_NEAR(pauliZ() * pauliZ(), Matrix::identity(2), 1e-15);
    // XY = iZ
    EXPECT_MATRIX_NEAR(pauliX() * pauliY(), pauliZ() * kI, 1e-15);
    // Two-qubit products commute pairwise.
    Matrix c1 = pauliXX() * pauliYY() - pauliYY() * pauliXX();
    EXPECT_NEAR(c1.maxAbs(), 0.0, 1e-15);
}

TEST(Matrix, ApproxEqualUpToPhase)
{
    Rng rng(17);
    Matrix u = randomUnitary(4, rng);
    Matrix v = u * std::exp(Complex(0.0, 1.234));
    EXPECT_TRUE(u.approxEqualUpToPhase(v, 1e-12));
    EXPECT_FALSE(u.approxEqual(v, 1e-12));
}

TEST(Matrix, KronFactorExact)
{
    Rng rng(19);
    for (int rep = 0; rep < 20; ++rep) {
        Matrix a = randomSU2(rng), b = randomSU2(rng);
        Matrix m = kron(a, b);
        Matrix fa, fb;
        double resid = kronFactor2x2(m, fa, fb);
        EXPECT_LT(resid, 1e-8);
        EXPECT_MATRIX_NEAR(kron(fa, fb), m, 1e-8);
    }
}

class EighProperty : public ::testing::TestWithParam<int> {};

TEST_P(EighProperty, RandomHermitianRoundTrip)
{
    const int n = GetParam();
    Rng rng(100 + n);
    for (int rep = 0; rep < 10; ++rep) {
        Matrix h = randomHermitian(n, rng);
        EigResult e = eigh(h);
        EXPECT_TRUE(e.vectors.isUnitary(1e-10));
        Matrix d(n, n);
        for (int i = 0; i < n; ++i)
            d(i, i) = e.values[i];
        EXPECT_MATRIX_NEAR(e.vectors * d * e.vectors.dagger(), h, 1e-9);
        // Ascending order.
        for (int i = 1; i < n; ++i)
            EXPECT_LE(e.values[i - 1], e.values[i] + 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighProperty,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(Eigh, DiagonalMatrix)
{
    Matrix d(3, 3);
    d(0, 0) = 3.0; d(1, 1) = -1.0; d(2, 2) = 0.5;
    EigResult e = eigh(d);
    EXPECT_NEAR(e.values[0], -1.0, 1e-12);
    EXPECT_NEAR(e.values[1], 0.5, 1e-12);
    EXPECT_NEAR(e.values[2], 3.0, 1e-12);
}

TEST(Eigh, DegenerateSpectrum)
{
    // XX has eigenvalues {-1,-1,1,1}; check the reconstruction.
    EigResult e = eigh(pauliXX());
    Matrix d(4, 4);
    for (int i = 0; i < 4; ++i)
        d(i, i) = e.values[i];
    EXPECT_MATRIX_NEAR(e.vectors * d * e.vectors.dagger(), pauliXX(),
                       1e-10);
}

TEST(SimultaneousDiag, CommutingPair)
{
    // Build commuting symmetric real matrices from a shared eigenbasis.
    Rng rng(23);
    for (int rep = 0; rep < 10; ++rep) {
        // Random rotation via QR on a real matrix.
        Matrix g(4, 4);
        std::normal_distribution<double> nd(0.0, 1.0);
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                g(i, j) = nd(rng);
        // Orthogonalize columns (Gram-Schmidt).
        for (int j = 0; j < 4; ++j) {
            for (int k = 0; k < j; ++k) {
                Complex p(0, 0);
                for (int i = 0; i < 4; ++i)
                    p += g(i, k) * g(i, j);
                for (int i = 0; i < 4; ++i)
                    g(i, j) -= p * g(i, k);
            }
            double nn = 0;
            for (int i = 0; i < 4; ++i)
                nn += std::norm(g(i, j));
            for (int i = 0; i < 4; ++i)
                g(i, j) *= Complex(1.0 / std::sqrt(nn), 0.0);
        }
        Matrix da(4, 4), db(4, 4);
        // Degenerate a-spectrum forces the cluster path.
        da(0, 0) = 1.0; da(1, 1) = 1.0; da(2, 2) = -2.0; da(3, 3) = 0.0;
        db(0, 0) = 5.0; db(1, 1) = -3.0; db(2, 2) = 7.0; db(3, 3) = 2.0;
        Matrix a = g * da * g.transpose();
        Matrix b = g * db * g.transpose();
        Matrix q = simultaneousDiagonalize(a, b);
        Matrix qa = q.transpose() * a * q;
        Matrix qb = q.transpose() * b * q;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                if (i != j) {
                    EXPECT_NEAR(std::abs(qa(i, j)), 0.0, 1e-7);
                    EXPECT_NEAR(std::abs(qb(i, j)), 0.0, 1e-7);
                }
        EXPECT_TRUE(q.isUnitary(1e-9));
    }
}

class SvdProperty : public ::testing::TestWithParam<int> {};

TEST_P(SvdProperty, RandomRoundTrip)
{
    const int n = GetParam();
    Rng rng(31 + n);
    for (int rep = 0; rep < 10; ++rep) {
        Matrix a = randomGinibre(n, rng);
        SvdResult r = svd(a);
        EXPECT_TRUE(r.u.isUnitary(1e-9));
        EXPECT_TRUE(r.v.isUnitary(1e-9));
        Matrix s(n, n);
        for (int i = 0; i < n; ++i) {
            s(i, i) = r.s[i];
            EXPECT_GE(r.s[i], 0.0);
            if (i > 0) {
                EXPECT_LE(r.s[i], r.s[i - 1] + 1e-12);
            }
        }
        EXPECT_MATRIX_NEAR(r.u * s * r.v.dagger(), a, 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdProperty,
                         ::testing::Values(2, 3, 4, 8));

TEST(Svd, RankDeficient)
{
    Matrix a(3, 3);
    a(0, 0) = 1.0;  // rank one
    SvdResult r = svd(a);
    EXPECT_NEAR(r.s[0], 1.0, 1e-12);
    EXPECT_NEAR(r.s[1], 0.0, 1e-12);
    EXPECT_NEAR(r.s[2], 0.0, 1e-12);
    EXPECT_TRUE(r.u.isUnitary(1e-9));
}

TEST(Svd, PolarUnitaryOfUnitaryIsItself)
{
    Rng rng(37);
    Matrix u = randomUnitary(4, rng);
    EXPECT_MATRIX_NEAR(polarUnitary(u), u, 1e-8);
}

TEST(Expm, MatchesSeriesForSmallGenerator)
{
    Rng rng(41);
    Matrix h = randomHermitian(4, rng);
    const double t = 0.01;
    // 4th order Taylor comparison.
    Matrix acc = Matrix::identity(4);
    Matrix term = Matrix::identity(4);
    for (int k = 1; k <= 8; ++k) {
        term = term * h * Complex(0.0, -t) * Complex(1.0 / k, 0.0);
        acc += term;
    }
    EXPECT_MATRIX_NEAR(expim(h, t), acc, 1e-10);
}

TEST(Expm, UnitaryAndInverse)
{
    Rng rng(43);
    Matrix h = randomHermitian(4, rng);
    Matrix u = expim(h, 0.7);
    EXPECT_TRUE(u.isUnitary(1e-10));
    EXPECT_MATRIX_NEAR(u * expimPlus(h, 0.7), Matrix::identity(4),
                       1e-10);
}

TEST(Expm, PauliRotationClosedForm)
{
    // exp(-i t X) = cos t I - i sin t X.
    const double t = 0.3;
    Matrix expect = Matrix::identity(2) * Complex(std::cos(t), 0.0) -
                    pauliX() * Complex(0.0, std::sin(t));
    EXPECT_MATRIX_NEAR(expim(pauliX(), t), expect, 1e-12);
}

TEST(Random, UnitaryIsUnitary)
{
    Rng rng(47);
    for (int n : {2, 4, 8}) {
        Matrix u = randomUnitary(n, rng);
        EXPECT_TRUE(u.isUnitary(1e-10));
    }
}

TEST(Random, SU2HasUnitDeterminant)
{
    Rng rng(53);
    for (int rep = 0; rep < 5; ++rep) {
        Matrix u = randomSU2(rng);
        Complex det = u(0, 0) * u(1, 1) - u(0, 1) * u(1, 0);
        EXPECT_NEAR(std::abs(det - Complex(1.0, 0.0)), 0.0, 1e-10);
    }
}

TEST(Random, Deterministic)
{
    Rng a(99), b(99);
    EXPECT_MATRIX_NEAR(randomUnitary(4, a), randomUnitary(4, b), 0.0);
}

TEST(Optimize, NelderMeadQuadratic)
{
    auto f = [](const std::vector<double> &x) {
        return (x[0] - 1.0) * (x[0] - 1.0) +
               10.0 * (x[1] + 2.0) * (x[1] + 2.0);
    };
    MinimizeResult r = nelderMead(f, {0.0, 0.0}, 0.5);
    EXPECT_NEAR(r.x[0], 1.0, 1e-5);
    EXPECT_NEAR(r.x[1], -2.0, 1e-5);
}

TEST(Optimize, NewtonSolve2D)
{
    // Roots of (x^2 + y^2 - 4, x - y).
    auto f = [](const std::vector<double> &v) {
        return std::vector<double>{v[0] * v[0] + v[1] * v[1] - 4.0,
                                   v[0] - v[1]};
    };
    RootResult r = newtonSolve(f, {1.0, 0.5});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(std::abs(r.x[0]), std::sqrt(2.0), 1e-9);
    EXPECT_NEAR(r.x[0], r.x[1], 1e-9);
}

TEST(Optimize, Bisect)
{
    double root = bisect([](double x) { return x * x - 2.0; },
                         0.0, 2.0);
    EXPECT_NEAR(root, std::sqrt(2.0), 1e-12);
}

// ---------------------------------------------------------------------
// Bit-identity of the fixed-size Jacobi kernels.
//
// The reference copies below are the runtime-n Jacobi SVD and
// eigensolver the fixed-size templates replaced, kept verbatim (same
// Matrix accessors, same operation sequence). The library's kernels
// must reproduce their results byte for byte at every size they
// dispatch; compiled artifacts depend on it.
// ---------------------------------------------------------------------

namespace
{

SvdResult
referenceSvd(const Matrix &a)
{
    const int n = a.rows();
    Matrix u = a;
    Matrix v = Matrix::identity(n);

    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    for (int sweep = 0; sweep < 120; ++sweep) {
        double off = 0.0;
        for (int p = 0; p < n - 1; ++p) {
            for (int q = p + 1; q < n; ++q) {
                Complex cpq(0.0, 0.0);
                double app = 0.0, aqq = 0.0;
                for (int i = 0; i < n; ++i) {
                    app += std::norm(u(i, p));
                    aqq += std::norm(u(i, q));
                    cpq += std::conj(u(i, p)) * u(i, q);
                }
                const double mag = std::abs(cpq);
                off = std::max(off, mag);
                if (mag == 0.0 || mag < 1e-18 * scale * scale)
                    continue;
                const Complex phase = cpq / mag;
                const double zeta = (app - aqq) / (2.0 * mag);
                const double t = (zeta >= 0.0)
                    ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
                    : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;
                const Complex sp = s * phase;
                for (int i = 0; i < n; ++i) {
                    const Complex uip = u(i, p);
                    const Complex uiq = u(i, q);
                    u(i, p) = c * uip + std::conj(sp) * uiq;
                    u(i, q) = -sp * uip + c * uiq;
                }
                for (int i = 0; i < n; ++i) {
                    const Complex vip = v(i, p);
                    const Complex viq = v(i, q);
                    v(i, p) = c * vip + std::conj(sp) * viq;
                    v(i, q) = -sp * vip + c * viq;
                }
            }
        }
        if (off < 1e-15 * scale * scale)
            break;
    }

    std::vector<double> nrm(n);
    std::vector<int> order(n);
    for (int j = 0; j < n; ++j) {
        double s2 = 0.0;
        for (int i = 0; i < n; ++i)
            s2 += std::norm(u(i, j));
        nrm[j] = std::sqrt(s2);
        order[j] = j;
    }
    std::sort(order.data(), order.data() + n,
              [&](int x, int y) { return nrm[x] > nrm[y]; });
    SvdResult out;
    out.s.resize(n);
    out.u.setZero(n, n);
    out.v.resizeForOverwrite(n, n);
    for (int j = 0; j < n; ++j) {
        const int src = order[j];
        out.s[j] = nrm[src];
        for (int i = 0; i < n; ++i)
            out.v(i, j) = v(i, src);
        if (nrm[src] > 1e-300)
            for (int i = 0; i < n; ++i)
                out.u(i, j) = u(i, src) / nrm[src];
    }

    for (int j = 0; j < n; ++j) {
        double cn = 0.0;
        for (int i = 0; i < n; ++i)
            cn += std::norm(out.u(i, j));
        if (cn > 0.5)
            continue;
        for (int cand = 0; cand < n; ++cand) {
            Matrix e(n, 1);
            e(cand, 0) = 1.0;
            for (int k = 0; k < n; ++k) {
                if (k == j)
                    continue;
                Complex proj(0.0, 0.0);
                for (int i = 0; i < n; ++i)
                    proj += std::conj(out.u(i, k)) * e(i, 0);
                for (int i = 0; i < n; ++i)
                    e(i, 0) -= proj * out.u(i, k);
            }
            double en = e.frobeniusNorm();
            if (en > 1e-6) {
                for (int i = 0; i < n; ++i)
                    out.u(i, j) = e(i, 0) / en;
                break;
            }
        }
    }
    return out;
}

void
referenceJacobiRotate(Matrix &a, Matrix &v, int p, int q)
{
    const Complex apq = a(p, q);
    const double mag = std::abs(apq);
    if (mag == 0.0)
        return;
    const double app = a(p, p).real();
    const double aqq = a(q, q).real();
    const Complex phase = apq / mag;
    const double zeta = (app - aqq) / (2.0 * mag);
    const double t = (zeta >= 0.0)
        ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
        : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
    const double c = 1.0 / std::sqrt(1.0 + t * t);
    const double s = t * c;
    const Complex sp = s * phase;

    const int n = a.rows();
    for (int i = 0; i < n; ++i) {
        const Complex aip = a(i, p);
        const Complex aiq = a(i, q);
        a(i, p) = c * aip + std::conj(sp) * aiq;
        a(i, q) = -sp * aip + c * aiq;
    }
    for (int j = 0; j < n; ++j) {
        const Complex apj = a(p, j);
        const Complex aqj = a(q, j);
        a(p, j) = c * apj + sp * aqj;
        a(q, j) = -std::conj(sp) * apj + c * aqj;
    }
    for (int i = 0; i < n; ++i) {
        const Complex vip = v(i, p);
        const Complex viq = v(i, q);
        v(i, p) = c * vip + std::conj(sp) * viq;
        v(i, q) = -sp * vip + c * viq;
    }
}

EigResult
referenceEig(Matrix a)
{
    const int n = a.rows();
    Matrix v = Matrix::identity(n);
    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    for (int sweep = 0; sweep < 100; ++sweep) {
        double off = 0.0;
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                if (i != j)
                    off += std::norm(a(i, j));
        if (std::sqrt(off) < 1e-15 * scale)
            break;
        for (int p = 0; p < n - 1; ++p)
            for (int q = p + 1; q < n; ++q)
                referenceJacobiRotate(a, v, p, q);
    }
    EigResult r;
    r.values.resize(n);
    for (int i = 0; i < n; ++i)
        r.values[i] = a(i, i).real();
    std::vector<int> order(n);
    std::vector<double> w(n);
    for (int j = 0; j < n; ++j)
        order[j] = j;
    std::sort(order.data(), order.data() + n, [&](int x, int y) {
        return r.values[x] < r.values[y];
    });
    Matrix sorted;
    sorted.resizeForOverwrite(n, n);
    for (int j = 0; j < n; ++j) {
        w[j] = r.values[order[j]];
        for (int i = 0; i < n; ++i)
            sorted(i, j) = v(i, order[j]);
    }
    std::copy_n(w.data(), n, r.values.begin());
    r.vectors = std::move(sorted);
    return r;
}

/** Byte equality of n doubles (no input yields NaN). */
bool
sameDoubles(const double *a, const double *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(double)) == 0;
}

::testing::AssertionResult
sameBits(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    if (!sameDoubles(reinterpret_cast<const double *>(a.data()),
                     reinterpret_cast<const double *>(b.data()),
                     2 * a.size()))
        return ::testing::AssertionFailure()
               << "bits differ:\n" << a.toString(17) << "\nvs\n"
               << b.toString(17);
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size() ||
        !sameDoubles(a.data(), b.data(), a.size()))
        return ::testing::AssertionFailure() << "values differ";
    return ::testing::AssertionSuccess();
}

Matrix
diagonal(const std::vector<double> &d)
{
    const int n = static_cast<int>(d.size());
    Matrix m(n, n);
    for (int i = 0; i < n; ++i)
        m(i, i) = d[i];
    return m;
}

/**
 * Seeded square inputs of size n for the SVD: general, rank-one,
 * half-rank, zero, diagonal with repeated entries and unitary (all
 * singular values equal).
 */
std::vector<Matrix>
svdInputs(int n, Rng &rng)
{
    std::vector<Matrix> out;
    for (int rep = 0; rep < 4; ++rep)
        out.push_back(randomGinibre(n, rng));
    Matrix x(n, 1), y(1, n);
    for (int i = 0; i < n; ++i) {
        x(i, 0) = Complex(0.3 * i - 0.7, 0.11 * i);
        y(0, i) = Complex(0.5, -0.2 * i + 0.1);
    }
    out.push_back(x * y);
    const int k = std::max(1, n / 2);
    Matrix l(n, k), r(k, n);
    const Matrix g = randomGinibre(n, rng);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < k; ++j) {
            l(i, j) = g(i, j);
            r(j, i) = g(j, n - 1 - i);
        }
    out.push_back(l * r);
    out.push_back(Matrix(n, n));
    std::vector<double> d(n);
    for (int i = 0; i < n; ++i)
        d[i] = (i % 3 == 0) ? 2.0 : -0.5 * i;
    out.push_back(diagonal(d));
    out.push_back(randomUnitary(n, rng));
    return out;
}

/**
 * Seeded Hermitian inputs of size n: general, diagonal, zero,
 * identity, and a rotated spectrum with a repeated eigenvalue.
 */
std::vector<Matrix>
eigInputs(int n, Rng &rng)
{
    std::vector<Matrix> out;
    for (int rep = 0; rep < 4; ++rep)
        out.push_back(randomHermitian(n, rng));
    std::vector<double> d(n);
    for (int i = 0; i < n; ++i)
        d[i] = 1.5 - 0.75 * ((i * 5) % n);
    out.push_back(diagonal(d));
    out.push_back(Matrix(n, n));
    out.push_back(Matrix::identity(n));
    for (int i = 0; i < n; ++i)
        d[i] = (i < (n + 1) / 2) ? 1.0 : -2.0;
    const Matrix q = randomUnitary(n, rng);
    out.push_back(q * diagonal(d) * q.dagger());
    return out;
}

/** The real symmetric part (zero imaginary parts) of m. */
Matrix
realSymmetric(const Matrix &m)
{
    Matrix r(m.rows(), m.cols());
    for (int i = 0; i < m.rows(); ++i)
        for (int j = 0; j < m.cols(); ++j)
            r(i, j) = Complex(0.5 * (m(i, j).real() + m(j, i).real()),
                              0.0);
    return r;
}

} // namespace

class JacobiBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(JacobiBitIdentity, SvdMatchesReference)
{
    const int n = GetParam();
    Rng rng(200 + n);
    for (const Matrix &a : svdInputs(n, rng)) {
        const SvdResult got = svd(a);
        const SvdResult want = referenceSvd(a);
        EXPECT_TRUE(sameBits(got.u, want.u));
        EXPECT_TRUE(sameBits(got.s, want.s));
        EXPECT_TRUE(sameBits(got.v, want.v));
    }
}

TEST_P(JacobiBitIdentity, EighMatchesReference)
{
    const int n = GetParam();
    Rng rng(300 + n);
    for (const Matrix &h : eigInputs(n, rng)) {
        const EigResult got = eigh(h);
        const EigResult want = referenceEig(h);
        EXPECT_TRUE(sameBits(got.values, want.values));
        EXPECT_TRUE(sameBits(got.vectors, want.vectors));

        const Matrix s = realSymmetric(h);
        const EigResult gotReal = eighReal(s);
        EigResult wantReal = referenceEig(s);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                wantReal.vectors(i, j) =
                    Complex(wantReal.vectors(i, j).real(), 0.0);
        EXPECT_TRUE(sameBits(gotReal.values, wantReal.values));
        EXPECT_TRUE(sameBits(gotReal.vectors, wantReal.vectors));
    }
}

TEST_P(JacobiBitIdentity, FusedPolarMatchesSvdDaggerMul)
{
    const int n = GetParam();
    const bool simd = kernels::simdActive();
    for (bool on : {false, true}) {
        kernels::setSimdEnabled(on);
        Rng rng(400 + n);
        for (const Matrix &a : svdInputs(n, rng)) {
            const SvdResult sv = svd(a);
            Matrix udag, want;
            kernels::daggerInto(udag, sv.u);
            kernels::mulInto(want, sv.v, udag);
            Matrix got;
            polarDaggerInto(got, a);
            EXPECT_TRUE(sameBits(got, want)) << "simd " << on;
        }
    }
    kernels::setSimdEnabled(simd);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiBitIdentity,
                         ::testing::Range(1, Matrix::kInlineDim + 1));

TEST(JacobiBitIdentityEdge, FusedPolarCompletesOnlyRankDeficientInput)
{
    Rng rng(500);
    Matrix g;
    EXPECT_FALSE(polarDaggerInto(g, randomGinibre(4, rng)));
    EXPECT_TRUE(g.isUnitary(1e-10));

    Matrix rank1(4, 4);
    rank1(0, 0) = 1.0;
    rank1(2, 1) = Complex(0.0, 2.0);
    rank1(0, 1) = Complex(0.0, 2.0);
    rank1(2, 0) = 1.0;
    EXPECT_TRUE(polarDaggerInto(g, rank1));
    EXPECT_TRUE(g.isUnitary(1e-10));
    Matrix rank1Of2(2, 2);
    rank1Of2(1, 1) = Complex(0.0, -3.0);
    EXPECT_TRUE(polarDaggerInto(g, rank1Of2));
    EXPECT_TRUE(g.isUnitary(1e-10));
    EXPECT_TRUE(std::isfinite(g(0, 0).real()));
}

TEST(JacobiBitIdentityEdge, ZeroMatrixGivesZeroSingularValuesAndUnitaries)
{
    // Below a Frobenius norm of ~1e-154 the skip threshold underflows
    // to 0; an exactly zero pair must still skip, not rotate by 0/0.
    const auto finite = [](const Matrix &m) {
        for (std::size_t k = 0; k < m.size(); ++k)
            if (!std::isfinite(m.data()[k].real()) ||
                !std::isfinite(m.data()[k].imag()))
                return false;
        return true;
    };
    for (int n = 1; n <= Matrix::kInlineDim; ++n) {
        const SvdResult r = svd(Matrix(n, n));
        for (double s : r.s)
            EXPECT_EQ(s, 0.0) << "n " << n;
        EXPECT_TRUE(finite(r.u) && finite(r.v)) << "n " << n;
        EXPECT_TRUE(r.u.isUnitary(1e-12)) << "n " << n;
        EXPECT_TRUE(r.v.isUnitary(1e-12)) << "n " << n;

        Matrix g;
        EXPECT_TRUE(polarDaggerInto(g, Matrix(n, n))) << "n " << n;
        EXPECT_TRUE(finite(g)) << "n " << n;
        EXPECT_TRUE(g.isUnitary(1e-12)) << "n " << n;
    }
}

TEST(JacobiBitIdentityEdge, SizesPastTheInlineDimAreRejected)
{
    const Matrix big(Matrix::kInlineDim + 1, Matrix::kInlineDim + 1);
    Matrix g;
    EXPECT_THROW(svd(big), std::invalid_argument);
    EXPECT_THROW(eigh(big), std::invalid_argument);
    EXPECT_THROW(polarDaggerInto(g, big), std::invalid_argument);
    EXPECT_EQ(svd(Matrix()).s.size(), 0u);
    EXPECT_EQ(eigh(Matrix()).values.size(), 0u);
}
