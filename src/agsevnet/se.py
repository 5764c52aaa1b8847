"""Squeeze-and-Excitation channel recalibration.

Squeeze: global spatial mean per channel. Excite: a two-layer gating
bottleneck (c -> c/m -> c) with ReLU between and a sigmoid at the end.
Scale: each channel of the input is multiplied by its gate, so the
block can only attenuate (gates lie strictly in (0, 1)) and never
changes the tensor shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import DenseParams, LayerGrad, activation, dense, record
from .tensor import ShapeError, as_tensor5, grad_like, voxel_sum


@dataclass
class SeParams:
    fc1: DenseParams  # c -> c // m
    fc2: DenseParams  # c // m -> c


def effective_reduction(channels: int, reduction: int) -> int:
    """Clamp the reduction to the channel count so tiny configs stay valid."""
    m = min(reduction, channels)
    if channels % m != 0:
        raise ShapeError(f"SE reduction {m} does not divide channel count {channels}")
    return m


def se_forward(u: np.ndarray, p: SeParams) -> LayerGrad:
    """Gate each channel by a squeeze-excite scale.

    backward(gy) returns (gu, {"fc1.weight", "fc1.bias", "fc2.weight",
    "fc2.bias"}).
    """
    u = as_tensor5(u, "se input")
    n, z, h, w, c = u.shape
    if p.fc1.weight.shape[0] != c:
        raise ShapeError(
            f"se_forward: input has {c} channels but fc1 expects {p.fc1.weight.shape[0]}"
        )
    voxels = z * h * w

    zvec = voxel_sum(u) / voxels  # (n, c) squeeze: u.mean(axis=(1, 2, 3))
    lg1 = dense(zvec, p.fc1)
    lgr = activation(lg1.output, "relu")
    lg2 = dense(lgr.output, p.fc2)
    lgs = activation(lg2.output, "sigmoid")
    s = lgs.output  # (n, c) gates in (0, 1)
    gate = s[:, None, None, None, :]
    y = u * gate

    def backward(gy: np.ndarray):
        gy = grad_like(gy, u.shape, "se")  # the output has u's shape
        gu = gy * gate
        gs = voxel_sum(gy * u)  # (n, c)
        grads = {}
        g2, _ = lgs.backward(gs)
        g1 = record(grads, "fc2", lg2.backward(g2))
        g0, _ = lgr.backward(g1)
        gz = record(grads, "fc1", lg1.backward(g0))
        gu += gz[:, None, None, None, :] / voxels
        return gu, grads

    return LayerGrad(y, backward)
