#pragma once

/// \file static_dot.hpp
/// The one kernel behind the folded bias c = W_s·x_s + b of a
/// static-prefix layer (DenseLayer::configureStaticPrefix), and the row
/// split both of its callers use. The full refold and the optimizer's
/// fused sweep (FactoredPrefixGrad) accumulate each row's static dot
/// through it, so the two paths agree bit for bit by construction.

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "src/common/thread_pool.hpp"

namespace dqndock::nn {

/// Rows one call interleaves. Every row keeps its own accumulation chain
/// in serial column order; interleaving only lets independent chains
/// hide the add latency that a single serial chain is bound by.
inline constexpr std::size_t kStaticDotRows = 4;

namespace detail {
template <std::size_t R>
inline void staticDotFixed(const double* w, std::size_t ld, const double* x, std::size_t n,
                           double* acc) {
  double a[R];
  for (std::size_t k = 0; k < R; ++k) a[k] = acc[k];
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = x[j];
    for (std::size_t k = 0; k < R; ++k) a[k] += w[k * ld + j] * xj;
  }
  for (std::size_t k = 0; k < R; ++k) acc[k] = a[k];
}
}  // namespace detail

/// acc[k] += w[k·ld + j]·x[j] for j = 0, 1, ..., n-1 in that order, for
/// each of the `rows` (1..kStaticDotRows) rows starting at `w`. Calling
/// it on consecutive column blocks with the same accumulators gives the
/// same bits as one call over the whole row.
inline void staticDotRows(const double* w, std::size_t ld, std::size_t rows, const double* x,
                          std::size_t n, double* acc) {
  static_assert(kStaticDotRows == 4, "staticDotRows dispatches up to 4 rows");
  switch (rows) {
    case 4: detail::staticDotFixed<4>(w, ld, x, n, acc); break;
    case 3: detail::staticDotFixed<3>(w, ld, x, n, acc); break;
    case 2: detail::staticDotFixed<2>(w, ld, x, n, acc); break;
    case 1: detail::staticDotFixed<1>(w, ld, x, n, acc); break;
    default: break;
  }
}

/// Run fn(r0, r1) over [0, rows) in groups of kStaticDotRows rows. Up to
/// pool->threadCount() threads claim groups one at a time (inline when
/// `pool` is null), so a thread that is descheduled or stalls holds back
/// one group, not a fixed share of the rows. Rows are independent, so
/// the results do not depend on which thread runs which group.
template <class Fn>
void forEachRowGroup(ThreadPool* pool, std::size_t rows, const Fn& fn) {
  const std::size_t groups = (rows + kStaticDotRows - 1) / kStaticDotRows;
  std::atomic<std::size_t> next{0};
  auto claimGroups = [&](std::size_t, std::size_t) {
    for (std::size_t g; (g = next.fetch_add(1, std::memory_order_relaxed)) < groups;) {
      const std::size_t r0 = g * kStaticDotRows;
      fn(r0, std::min(rows, r0 + kStaticDotRows));
    }
  };
  const std::size_t slots = pool != nullptr ? std::min(groups, pool->threadCount()) : 1;
  if (slots > 1) {
    pool->parallelFor(0, slots, slots, claimGroups);
  } else {
    claimGroups(0, slots);
  }
}

}  // namespace dqndock::nn
