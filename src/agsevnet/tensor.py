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


def grad_like(gy, shape: tuple, name: str) -> np.ndarray:
    """The gradient `gy` that op `name`'s backward received for an output
    of `shape` (so a closure keeps the shape, not the output), as float64;
    another shape raises ShapeError."""
    gy = np.asarray(gy, dtype=DTYPE)
    if gy.shape != shape:
        raise ShapeError(f"{name} backward: gradient shape {gy.shape} != output {shape}")
    return gy


def voxel_sum(x: np.ndarray, pooled: bool = False) -> np.ndarray:
    """Per-(batch, channel) sums of a tensor5 over z, h and w, shape (n, c);
    `pooled` also sums over the batch, shape (c,).

    Bitwise equal to `x.sum(axis=(1, 2, 3))` and `x.sum(axis=(0, 1, 2, 3))`:
    einsum adds each channel's voxels in C order, as numpy's strided
    reduction does, but without running numpy's inner loop on the few
    channels of one voxel at a time. One channel is a contiguous axis,
    which numpy sums pairwise and einsum does not, so it keeps `x.sum`.
    """
    c = x.shape[-1]
    if c == 1:
        return x.sum(axis=(0, 1, 2, 3) if pooled else (1, 2, 3))
    if pooled:
        return np.einsum("vc->c", x.reshape(-1, c))
    return np.einsum("nvc->nc", x.reshape(x.shape[0], -1, c))


def channel_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last (channel) axis, kept as an axis of 1.

    Bitwise equal to `x.sum(axis=-1, keepdims=True)`. Below 8 channels
    numpy adds them one at a time onto 0.0, which the whole channel
    slices do here in one pass each; from 8 it switches to its
    8-accumulator loop, so the sum stays numpy's.
    """
    c = x.shape[-1]
    if c >= 8:
        return x.sum(axis=-1, keepdims=True)
    out = x[..., :1] + 0.0  # numpy's start: 0.0 + -0.0 is 0.0
    for k in range(1, c):
        out += x[..., k : k + 1]
    return out
