/**
 * @file
 * Internal runtime-n to compile-time-N dispatch for the fixed-size
 * Jacobi kernels (svd.cc, eig.cc). Not part of the qmath API.
 */

#ifndef REQISC_QMATH_FIXED_DIM_HH
#define REQISC_QMATH_FIXED_DIM_HH

#include <stdexcept>
#include <string>
#include <type_traits>

#include "qmath/matrix.hh"

namespace reqisc::qmath::detail
{

/**
 * Call fn(std::integral_constant<int, N>{}) with N == n, for every n
 * in [0, Matrix::kInlineDim]. A larger n throws std::invalid_argument
 * naming `what`: no caller of the kernels goes past the inline size.
 */
template <typename Fn>
decltype(auto)
withFixedDim(int n, const char *what, Fn &&fn)
{
    static_assert(Matrix::kInlineDim == 8, "extend the switch below");
    switch (n) {
      case 0: return fn(std::integral_constant<int, 0>{});
      case 1: return fn(std::integral_constant<int, 1>{});
      case 2: return fn(std::integral_constant<int, 2>{});
      case 3: return fn(std::integral_constant<int, 3>{});
      case 4: return fn(std::integral_constant<int, 4>{});
      case 5: return fn(std::integral_constant<int, 5>{});
      case 6: return fn(std::integral_constant<int, 6>{});
      case 7: return fn(std::integral_constant<int, 7>{});
      case 8: return fn(std::integral_constant<int, 8>{});
      default: break;
    }
    throw std::invalid_argument(
        std::string(what) + ": dimension " + std::to_string(n) +
        " exceeds " + std::to_string(Matrix::kInlineDim));
}

} // namespace reqisc::qmath::detail

#endif // REQISC_QMATH_FIXED_DIM_HH
