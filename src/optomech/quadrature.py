"""Adaptive Gauss-Kronrod quadrature for array-valued integrands.

Built for spectra with a handful of very narrow Lorentzian features: the
caller seeds breakpoints at the known feature locations and widths, and the
(7, 15)-point rule refines whichever segments dominate the error until every
component of the integral meets a combined absolute/relative tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged

RTOL = 1e-9  # componentwise tolerances, see integrate_adaptive
ATOL = 1e-9
FLOOR = 1e-4
MAX_SEGMENTS = 20000  # default segment budget

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


def _evaluate_segments(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Kronrod value and |K - G| error estimate for each [lo_i, hi_i]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    y = np.asarray(f(nodes.ravel()))
    y = y.reshape(nodes.shape + y.shape[1:])
    scale = half.reshape((-1,) + (1,) * (y.ndim - 2))
    wk = _WGK.reshape((1, -1) + (1,) * (y.ndim - 2))
    wg = _WG.reshape((1, -1) + (1,) * (y.ndim - 2))
    val = scale * np.sum(wk * y, axis=1)
    err = np.abs(val - scale * np.sum(wg * y, axis=1))
    return val, err


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints,
    max_segments: int = MAX_SEGMENTS,
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
    with the achieved error if the segment budget runs out.
    """
    pts = np.unique(np.asarray(breakpoints, dtype=float))
    if pts.size < 2:
        raise ValueError("need at least two distinct breakpoints")
    lo, hi = pts[:-1].copy(), pts[1:].copy()
    vals, errs = _evaluate_segments(f, lo, hi)

    while True:
        total = vals.sum(axis=0)
        toterr = errs.sum(axis=0)
        size = np.abs(total)
        tol = ATOL + RTOL * np.maximum(size, FLOOR * size.max())
        ratio = toterr / tol
        worst = float(ratio.max())
        if worst <= 1.0:
            return total, toterr
        if lo.size >= max_segments:
            raise QuadratureNotConverged(
                f"segment budget {max_segments} exhausted",
                achieved_error=float(toterr.max()))
        # bisect every segment contributing meaningfully to an offending component
        seg_score = (errs / tol).reshape(errs.shape[0], -1).max(axis=1)
        order = np.argsort(seg_score)[::-1]
        n_split = max(1, min(int(np.sum(seg_score > 0.5 / lo.size)),
                             64, max_segments - lo.size))
        split = order[:n_split]
        keep = np.setdiff1d(np.arange(lo.size), split)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[keep], lo[split], mid])
        new_hi = np.concatenate([hi[keep], mid, hi[split]])
        new_vals, new_errs = _evaluate_segments(f, np.concatenate([lo[split], mid]),
                                                np.concatenate([mid, hi[split]]))
        vals = np.concatenate([vals[keep], new_vals], axis=0)
        errs = np.concatenate([errs[keep], new_errs], axis=0)
        lo, hi = new_lo, new_hi
