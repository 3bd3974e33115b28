"""Adaptive Gauss-Kronrod quadrature for array-valued integrands.

Built for spectra with a handful of very narrow Lorentzian features: the
caller seeds breakpoints at the known feature locations and widths, and the
(7, 15)-point rule refines whichever segments dominate the error until every
component of the integral meets a combined absolute/relative tolerance.

Each segment's Kronrod value and its |K - G| error estimate come from one
product: the (2, 15) weight matrix [w_K; w_K - w_G] times the segment's
(15, components) integrand values, scaled by its half width.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged

RTOL = 1e-9  # componentwise tolerances, see integrate_adaptive
ATOL = 1e-9
FLOOR = 1e-4
MAX_SEGMENTS = 20000  # segment budget of every integral

# (7, 15) Gauss-Kronrod nodes and weights on [-1, 1]
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# embedded 7-point Gauss weights live on the odd Kronrod nodes
_WG = np.zeros(15)
_WG[1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119,
             0.417959183673469, 0.381830050505119, 0.279705391489277,
             0.129484966168870]


# rows: the Kronrod weights, and their excess over the embedded Gauss weights
_WEIGHTS = np.array([_WGK, _WGK - _WG])


def _evaluate_segments(f: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Kronrod value and |K - G| error estimate of each segment [lo_i, hi_i].

    Returns a (segments, 2, *component_shape) array, value then error. Both
    come from one (2, 15) @ (segments, 15, components) product of
    ``_WEIGHTS`` with the integrand values at the Kronrod nodes, scaled by
    each segment's half width.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    y = np.asarray(f(nodes.ravel()))
    # a non-finite y gives a non-finite sum, which integrate_adaptive reports
    with np.errstate(invalid="ignore", over="ignore"):
        sums = _WEIGHTS @ y.reshape(lo.size, _XGK.size, -1)
        sums *= half[:, None, None]
        np.abs(sums[:, 1], out=sums[:, 1])
    return sums.reshape((lo.size, 2) + y.shape[1:])


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate an array-valued ``f`` over the span of ``breakpoints``.

    ``f`` maps a flat array of abscissae to values of shape
    ``(n_points, *component_shape)``. Initial segments are the intervals
    between consecutive breakpoints; segments are bisected (worst first)
    until, componentwise, the summed error satisfies
    ``err <= ATOL + RTOL * max(|integral|, FLOOR * max |integral|)``: a
    component near zero is resolved relative to the largest one, whose
    size sets the rounding error of every segment.

    Returns ``(integral, error_estimate)``; raises QuadratureNotConverged
    with the achieved error if the budget of MAX_SEGMENTS segments runs out,
    and at once if the summed value or error estimate is not finite.
    """
    pts = np.asarray(breakpoints, dtype=float).ravel()
    if not (pts[1:] > pts[:-1]).all():
        pts = np.unique(pts)
    if pts.size < 2:
        raise ValueError("need at least two distinct breakpoints")
    lo, hi = pts[:-1], pts[1:]
    sums = _evaluate_segments(f, lo, hi)

    while True:
        both = sums.sum(axis=0)
        total, toterr = both
        if not np.isfinite(both).all():
            # bisection cannot mend a NaN or an infinity, only spend the budget
            raise QuadratureNotConverged(
                "non-finite integrand (integral or error estimate not finite)",
                achieved_error=float(np.max(toterr)))
        size = np.abs(total)
        tol = ATOL + RTOL * np.maximum(size, FLOOR * size.max())
        ratio = toterr / tol
        worst = float(ratio.max())
        if worst <= 1.0:
            return total, toterr
        if lo.size >= MAX_SEGMENTS:
            raise QuadratureNotConverged(
                f"segment budget {MAX_SEGMENTS} exhausted",
                achieved_error=float(toterr.max()))
        # bisect every segment contributing meaningfully to an offending component
        seg_score = (sums[:, 1] / tol).reshape(lo.size, -1).max(axis=1)
        order = np.argsort(seg_score)[::-1]
        n_split = max(1, min(int(np.sum(seg_score > 0.5 / lo.size)),
                             64, MAX_SEGMENTS - lo.size))
        split = order[:n_split]
        keep = np.ones(lo.size, bool)
        keep[split] = False
        # the kept segments, then the left and the right halves of the split ones
        split_lo, split_hi = lo[split], hi[split]
        mid = 0.5 * (split_lo + split_hi)
        lo = np.concatenate([lo[keep], split_lo, mid])
        hi = np.concatenate([hi[keep], mid, split_hi])
        sums = np.concatenate([sums[keep], _evaluate_segments(
            f, lo[-2 * n_split:], hi[-2 * n_split:])])
