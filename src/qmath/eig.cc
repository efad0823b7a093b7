#include "qmath/eig.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "qmath/fixed_dim.hh"

namespace reqisc::qmath
{

namespace
{

/**
 * One Jacobi sweep step on the N x N row-major Hermitian a: build the
 * 2x2 unitary that annihilates a(p,q) and apply it from both sides,
 * accumulating into v.
 */
template <int N>
void
jacobiRotate(Complex *a, Complex *v, int p, int q)
{
    const Complex apq = a[p * N + q];
    const double mag = std::abs(apq);
    if (mag == 0.0)
        return;
    const double app = a[p * N + p].real();
    const double aqq = a[q * N + q].real();
    // Phase that makes the off-diagonal entry real positive.
    const Complex phase = apq / mag;
    // Classic symmetric Jacobi angle on the phase-rotated problem;
    // the zeroing condition for this rotation convention is
    // tan(2*theta) = 2*mag / (app - aqq).
    const double zeta = (app - aqq) / (2.0 * mag);
    const double t = (zeta >= 0.0)
        ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
        : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
    const double c = 1.0 / std::sqrt(1.0 + t * t);
    const double s = t * c;
    const Complex sp = s * phase;

    // A <- J^dagger A J realised column-wise:
    //   col_p' = c*col_p + conj(sp)*col_q,
    //   col_q' = -sp*col_p + c*col_q,
    // then the matching row update.
    for (int i = 0; i < N; ++i) {
        const Complex aip = a[i * N + p];
        const Complex aiq = a[i * N + q];
        a[i * N + p] = c * aip + std::conj(sp) * aiq;
        a[i * N + q] = -sp * aip + c * aiq;
    }
    for (int j = 0; j < N; ++j) {
        const Complex apj = a[p * N + j];
        const Complex aqj = a[q * N + j];
        a[p * N + j] = c * apj + sp * aqj;
        a[q * N + j] = -std::conj(sp) * apj + c * aqj;
    }
    for (int i = 0; i < N; ++i) {
        const Complex vip = v[i * N + p];
        const Complex viq = v[i * N + q];
        v[i * N + p] = c * vip + std::conj(sp) * viq;
        v[i * N + q] = -sp * vip + c * viq;
    }
}

/**
 * Two-sided Jacobi eigendecomposition of the N x N Hermitian m in
 * local arrays, with the eigenpairs sorted ascending into r.
 */
template <int N>
void
jacobiEigN(const Matrix &m, EigResult &r)
{
    std::array<Complex, N * N> a;
    std::array<Complex, N * N> v{};
    std::copy_n(m.data(), N * N, a.begin());
    for (int i = 0; i < N; ++i)
        v[i * N + i] = Complex(1.0, 0.0);
    const double scale = std::max(m.frobeniusNorm(), 1e-300);
    for (int sweep = 0; sweep < 100; ++sweep) {
        // Sum of squared magnitudes of the off-diagonal entries.
        double off = 0.0;
        for (int i = 0; i < N; ++i)
            for (int j = 0; j < N; ++j)
                if (i != j)
                    off += std::norm(a[i * N + j]);
        if (std::sqrt(off) < 1e-15 * scale)
            break;
        for (int p = 0; p < N - 1; ++p)
            for (int q = p + 1; q < N; ++q)
                jacobiRotate<N>(a.data(), v.data(), p, q);
    }

    // Sort eigenpairs ascending by eigenvalue.
    std::array<double, N> w;
    std::array<int, N> order;
    for (int i = 0; i < N; ++i) {
        w[i] = a[i * N + i].real();
        order[i] = i;
    }
    std::sort(order.data(), order.data() + N,
              [&](int x, int y) { return w[x] < w[y]; });
    r.values.resize(N);
    r.vectors.resizeForOverwrite(N, N);
    for (int j = 0; j < N; ++j) {
        r.values[j] = w[order[j]];
        for (int i = 0; i < N; ++i)
            r.vectors(i, j) = v[i * N + order[j]];
    }
}

EigResult
jacobiEig(const Matrix &a)
{
    assert(a.rows() == a.cols());
    EigResult r;
    detail::withFixedDim(a.rows(), "eigh", [&](auto dim) {
        jacobiEigN<dim()>(a, r);
    });
    return r;
}

} // namespace

EigResult
eigh(const Matrix &a)
{
    assert(a.rows() == a.cols());
    assert(a.isHermitian(1e-8 * std::max(1.0, a.maxAbs())));
    return jacobiEig(a);
}

EigResult
eighReal(const Matrix &a)
{
    EigResult r = jacobiEig(a);
    // Rotations of a real matrix stay real; scrub numerical dust so the
    // caller can rely on exact realness.
    for (int i = 0; i < r.vectors.rows(); ++i)
        for (int j = 0; j < r.vectors.cols(); ++j)
            r.vectors(i, j) = Complex(r.vectors(i, j).real(), 0.0);
    return r;
}

Matrix
simultaneousDiagonalize(const Matrix &a, const Matrix &b)
{
    assert(a.rows() == a.cols() && b.rows() == b.cols());
    assert(a.rows() == b.rows());
    const int n = a.rows();

    // Diagonalize a first; then within each (near-)degenerate
    // eigenvalue cluster of a, diagonalize the restriction of b.
    EigResult ea = eighReal(a);
    Matrix q = ea.vectors;

    const double scale =
        std::max({a.maxAbs(), b.maxAbs(), 1.0});
    const double cluster_tol = 1e-7 * scale;

    int start = 0;
    while (start < n) {
        int end = start + 1;
        while (end < n &&
               std::abs(ea.values[end] - ea.values[start]) < cluster_tol)
            ++end;
        const int m = end - start;
        if (m > 1) {
            // Restrict b to the cluster subspace and diagonalize.
            Matrix sub(m, m);
            // sub = Qc^T b Qc where Qc are the cluster columns.
            for (int i = 0; i < m; ++i)
                for (int j = 0; j < m; ++j) {
                    Complex s(0.0, 0.0);
                    for (int r = 0; r < n; ++r)
                        for (int c = 0; c < n; ++c)
                            s += q(r, start + i) * b(r, c) *
                                 q(c, start + j);
                    sub(i, j) = Complex(s.real(), 0.0);
                }
            // Symmetrize against roundoff.
            Matrix subs = (sub + sub.transpose()) * Complex(0.5, 0.0);
            EigResult eb = eighReal(subs);
            // Rotate the cluster columns of q by eb.vectors.
            Matrix newcols(n, m);
            for (int r = 0; r < n; ++r)
                for (int j = 0; j < m; ++j) {
                    Complex s(0.0, 0.0);
                    for (int i = 0; i < m; ++i)
                        s += q(r, start + i) * eb.vectors(i, j);
                    newcols(r, j) = s;
                }
            for (int r = 0; r < n; ++r)
                for (int j = 0; j < m; ++j)
                    q(r, start + j) =
                        Complex(newcols(r, j).real(), 0.0);
        }
        start = end;
    }

    // Force det(q) = +1 by flipping the last column if necessary.
    // det of a real orthogonal matrix is +-1; compute via LU-free
    // cofactor-safe method: use the product of Householder-free
    // permanent... for small n, expansion by minors is fine.
    // Here we use the generic complex determinant helper below.
    auto det = [&]() {
        // Gaussian elimination determinant (n <= 8 in practice).
        Matrix t = q;
        Complex d(1.0, 0.0);
        for (int col = 0; col < n; ++col) {
            int piv = col;
            for (int r = col + 1; r < n; ++r)
                if (std::abs(t(r, col)) > std::abs(t(piv, col)))
                    piv = r;
            if (std::abs(t(piv, col)) < 1e-300)
                return Complex(0.0, 0.0);
            if (piv != col) {
                for (int c = 0; c < n; ++c)
                    std::swap(t(piv, c), t(col, c));
                d = -d;
            }
            d *= t(col, col);
            for (int r = col + 1; r < n; ++r) {
                const Complex f = t(r, col) / t(col, col);
                for (int c = col; c < n; ++c)
                    t(r, c) -= f * t(col, c);
            }
        }
        return d;
    };
    if (det().real() < 0.0)
        for (int r = 0; r < n; ++r)
            q(r, n - 1) = -q(r, n - 1);
    return q;
}

} // namespace reqisc::qmath
