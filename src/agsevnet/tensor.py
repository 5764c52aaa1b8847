"""Dense 5-axis float tensors.

A "tensor5" is a plain float64 numpy array with axes fixed as
(batch, depth z, height h, width w, channel c), row-major. Every module
in the kit works on this layout; serialization (npyio) depends on it.
Operations treat their inputs as immutable values and return fresh
arrays, so tensors are safe to share across threads for reading.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


def as_tensor5(x, name: str = "tensor") -> np.ndarray:
    """Validate and return `x` as a float64 (n, z, h, w, c) array."""
    arr = np.asarray(x, dtype=DTYPE)
    if arr.ndim != 5:
        raise ShapeError(f"{name}: expected 5 axes (batch,z,h,w,c), got shape {arr.shape}")
    if any(e < 1 for e in arr.shape):
        raise ShapeError(f"{name}: all extents must be >= 1, got shape {arr.shape}")
    return np.ascontiguousarray(arr)
