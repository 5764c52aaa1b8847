"""Central finite-difference gradient checking.

`numeric_grad` perturbs one element at a time with a step scaled to the
element's magnitude (h = 1e-5 * max(1, |x|)) and compares a scalar loss.
`max_rel_err` reports the worst relative error, treating pairs where
both gradients are below a noise floor as agreeing (the floor absorbs
finite-difference cancellation noise on exactly-zero gradients).
The checks built on them are registered in `checks.SCOPES`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .rng import Rng

BASE_STEP = 1e-5
# Denominator floor for the relative error: entries where both gradients
# sit below the floor are compared absolutely against floor * tol, which
# keeps central-difference noise (~1e-11 absolute at BASE_STEP)
# from failing healthy tiny gradients at every tolerance tier in use.
ZERO_FLOOR = 1e-5


def numeric_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                 indices=None, refine: bool = False) -> np.ndarray:
    """Central-difference gradient of scalar f at x (elementwise).

    `indices` optionally restricts the check to a flat-index subset
    (entries outside it are left as NaN so callers can mask them).

    `refine` guards against piecewise-linear kinks (ReLU) sitting inside
    the difference interval: the estimate is recomputed at shrinking
    steps until two consecutive estimates agree, and elements where the
    difference quotient never converges are reported as NaN, i.e.
    excluded as unverifiable by finite differences at that point.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    if indices is None:
        indices = range(flat.size)
        grad = np.empty(flat.size, dtype=np.float64)
    else:
        grad = np.full(flat.size, np.nan)
    work = flat.copy()

    def fd(i: int, h: float) -> float:
        work[i] = flat[i] + h
        fp = f(work.reshape(x.shape))
        work[i] = flat[i] - h
        fm = f(work.reshape(x.shape))
        work[i] = flat[i]
        return (fp - fm) / (2.0 * h)

    for i in indices:
        h = BASE_STEP * max(1.0, abs(flat[i]))
        if not refine:
            grad[i] = fd(i, h)
            continue
        value = np.nan
        for base in (h, h / 8.0):
            d1 = fd(i, base)
            d2 = fd(i, base / 2.0)
            if abs(d1 - d2) <= 1e-4 * max(abs(d1), abs(d2), ZERO_FLOOR):
                # Richardson-extrapolate the pair: cancels the h^2
                # truncation term, leaving only rounding noise.
                value = (4.0 * d2 - d1) / 3.0
                break
        grad[i] = value
    return grad.reshape(x.shape)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case error, relative for healthy magnitudes and absolute
    (scaled by the floor) once both gradients drop below it. Tiny
    gradients then only need to agree to floor * tol absolutely, which
    is what central differences can actually resolve.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    mask = ~np.isnan(n)
    a, n = a[mask], n[mask]
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), ZERO_FLOOR)
    rel = np.abs(a - n) / scale
    return float(rel.max()) if rel.size else 0.0


class CheckResult(NamedTuple):
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def random_sample_indices(rng: Rng, size: int, count: int) -> list[int]:
    """Deterministic flat-index sample for spot-checking large tensors."""
    if count >= size:
        return list(range(size))
    return sorted(int(i) for i in rng.permutation(size)[:count])
