#include "qmath/svd.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "qmath/fixed_dim.hh"

namespace reqisc::qmath
{

namespace
{

/**
 * One-sided Jacobi SVD of the N x N matrix a, in local row-major
 * arrays with no allocation. Writes the unit-column u (completed to a
 * unitary), the descending singular values s and v, all row-major.
 *
 * @return true iff some column of u had to be completed (a is
 *         numerically rank-deficient)
 */
template <int N>
bool
jacobiSvd(const Matrix &a, Complex *uo, double *so, Complex *vo)
{
    std::array<Complex, N * N> u;      // becomes U * Sigma
    std::array<Complex, N * N> v{};    // accumulates V
    std::copy_n(a.data(), N * N, u.begin());
    for (int i = 0; i < N; ++i)
        v[i * N + i] = Complex(1.0, 0.0);

    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    // A pair with |cpq| below this is not rotated. scale * scale
    // underflows to 0 below a norm of about 1e-154; the floor keeps an
    // exactly orthogonal pair skipped there, whose rotation phase would
    // be 0/0. For |cpq| >= 0 the test is `mag == 0.0 || mag < 1e-18 *
    // scale * scale`, with one comparison.
    const double skip_below =
        std::max(1e-18 * scale * scale,
                 std::numeric_limits<double>::denorm_min());
    for (int sweep = 0; sweep < 120; ++sweep) {
        double off = 0.0;
        for (int p = 0; p < N - 1; ++p) {
            for (int q = p + 1; q < N; ++q) {
                // 2x2 Gram matrix of columns p, q.
                Complex cpq(0.0, 0.0);
                double app = 0.0, aqq = 0.0;
                for (int i = 0; i < N; ++i) {
                    app += std::norm(u[i * N + p]);
                    aqq += std::norm(u[i * N + q]);
                    cpq += std::conj(u[i * N + p]) * u[i * N + q];
                }
                const double mag = std::abs(cpq);
                off = std::max(off, mag);
                if (mag < skip_below)
                    continue;
                const Complex phase = cpq / mag;
                const double zeta = (app - aqq) / (2.0 * mag);
                const double t = (zeta >= 0.0)
                    ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
                    : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;
                const Complex sp = s * phase;
                for (int i = 0; i < N; ++i) {
                    const Complex uip = u[i * N + p];
                    const Complex uiq = u[i * N + q];
                    u[i * N + p] = c * uip + std::conj(sp) * uiq;
                    u[i * N + q] = -sp * uip + c * uiq;
                }
                for (int i = 0; i < N; ++i) {
                    const Complex vip = v[i * N + p];
                    const Complex viq = v[i * N + q];
                    v[i * N + p] = c * vip + std::conj(sp) * viq;
                    v[i * N + q] = -sp * vip + c * viq;
                }
            }
        }
        if (off < 1e-15 * scale * scale)
            break;
    }

    // Column norms of U*Sigma are the singular values.
    std::array<double, N> nrm;
    std::array<int, N> order;
    for (int j = 0; j < N; ++j) {
        double s2 = 0.0;
        for (int i = 0; i < N; ++i)
            s2 += std::norm(u[i * N + j]);
        nrm[j] = std::sqrt(s2);
        order[j] = j;
    }

    // Sort singular values descending, permuting u and v columns
    // (normalizing u's as they land).
    std::sort(order.data(), order.data() + N,
              [&](int x, int y) { return nrm[x] > nrm[y]; });
    std::fill_n(uo, N * N, Complex(0.0, 0.0));
    for (int j = 0; j < N; ++j) {
        const int src = order[j];
        so[j] = nrm[src];
        for (int i = 0; i < N; ++i)
            vo[i * N + j] = v[i * N + src];
        if (nrm[src] > 1e-300)
            for (int i = 0; i < N; ++i)
                uo[i * N + j] = u[i * N + src] / nrm[src];
    }

    // Complete zero columns of u into an orthonormal basis so u is
    // always exactly unitary (needed by the polar factor of a
    // singular a).
    bool completed = false;
    for (int j = 0; j < N; ++j) {
        double cn = 0.0;
        for (int i = 0; i < N; ++i)
            cn += std::norm(uo[i * N + j]);
        if (cn > 0.5)
            continue;
        completed = true;
        // Gram-Schmidt a unit vector against the existing columns.
        for (int cand = 0; cand < N; ++cand) {
            std::array<Complex, N> e{};
            e[cand] = 1.0;
            for (int k = 0; k < N; ++k) {
                if (k == j)
                    continue;
                Complex proj(0.0, 0.0);
                for (int i = 0; i < N; ++i)
                    proj += std::conj(uo[i * N + k]) * e[i];
                for (int i = 0; i < N; ++i)
                    e[i] -= proj * uo[i * N + k];
            }
            double e2 = 0.0;
            for (int i = 0; i < N; ++i)
                e2 += std::norm(e[i]);
            const double en = std::sqrt(e2);
            if (en > 1e-6) {
                for (int i = 0; i < N; ++i)
                    uo[i * N + j] = e[i] / en;
                break;
            }
        }
    }
    return completed;
}

/**
 * dst = v * u^dagger for N x N row-major u, v, accumulated exactly as
 * kernels::mulInto(dst, v, dagger(u)) accumulates it: each element's
 * real and imaginary chains start at +0.0 and add one cmulAcc term per
 * k, k ascending (this TU builds with -ffp-contract=off, like the
 * kernels).
 */
template <int N>
void
mulDaggerInto(Matrix &dst, const Complex *v, const Complex *u)
{
    dst.resizeForOverwrite(N, N);
    const double *vd = reinterpret_cast<const double *>(v);
    const double *ud = reinterpret_cast<const double *>(u);
    double *rd = reinterpret_cast<double *>(dst.data());
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j) {
            double re = 0.0, im = 0.0;
            for (int k = 0; k < N; ++k) {
                const double are = vd[2 * (i * N + k)];
                const double aim = vd[2 * (i * N + k) + 1];
                const double bre = ud[2 * (j * N + k)];
                const double bim = -ud[2 * (j * N + k) + 1];
                re += are * bre - aim * bim;
                im += are * bim + aim * bre;
            }
            rd[2 * (i * N + j)] = re;
            rd[2 * (i * N + j) + 1] = im;
        }
}

} // namespace

SvdResult
svd(const Matrix &a)
{
    assert(a.rows() == a.cols());
    const int n = a.rows();
    SvdResult out;
    out.s.resize(n);
    out.u.resizeForOverwrite(n, n);
    out.v.resizeForOverwrite(n, n);
    detail::withFixedDim(n, "svd", [&](auto dim) {
        jacobiSvd<dim()>(a, out.u.data(), out.s.data(), out.v.data());
    });
    return out;
}

bool
polarDaggerInto(Matrix &dst, const Matrix &a)
{
    assert(a.rows() == a.cols());
    assert(&dst != &a);
    return detail::withFixedDim(a.rows(), "polarDaggerInto",
                                [&](auto dim) {
        constexpr int N = dim();
        std::array<Complex, N * N> u, v;
        std::array<double, N> s;
        const bool completed =
            jacobiSvd<N>(a, u.data(), s.data(), v.data());
        mulDaggerInto<N>(dst, v.data(), u.data());
        return completed;
    });
}

Matrix
polarUnitary(const Matrix &a)
{
    SvdResult r = svd(a);
    return r.u * r.v.dagger();
}

} // namespace reqisc::qmath
