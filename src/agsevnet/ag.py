"""Attention Guided Filter: attention-weighted guided image filtering
that fuses an encoder skip (the guidance I) with the upsampled decoder
map (the filtered map O) on their shared grid.

Pipeline: an attention map T is computed from I and O; per cubic
window a ridge regression weighted by T^2 fits O as an affine function
of I; the per-window coefficients are averaged over covering windows
and applied as output = A * I + B. The network deconvolves before the
filter, so I and O always share one grid and one channel count.

The squared attention weights are normalized by their global mean (per
batch item) before entering the fit. This keeps the regularizer on the
same scale as the data term whatever the overall magnitude of T, so the
coefficients depend only on *relative* attention, and a constant T
reduces the fit exactly to the classical unweighted guided filter with
slope cov/(var + eps).

Window sums use clipped cubic windows (side 2r+1, in-volume voxels
only), computed by one band-matrix GEMM per axis (see box_sum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Conv3dParams, LayerGrad, activation, conv3d_forward, record
from .tensor import DTYPE, ShapeError, as_tensor5, channel_sum

DEGENERATE_WEIGHT_SUM = 1e-12


@dataclass
class AgParams:
    radius: int  # window radius r
    eps: float  # ridge regularization
    attn_o: Conv3dParams  # 1x1x1 transform of the filtered map O
    attn_i: Conv3dParams  # 1x1x1 transform of the guidance
    attn_gate: Conv3dParams  # 1x1x1 collapse to the single-channel attention map

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"AG radius must be >= 1, got {self.radius}")
        if self.eps <= 0:
            raise ValueError(f"AG eps must be > 0, got {self.eps}")
        if self.attn_gate.kernel.shape[4] != 1:
            raise ShapeError("AG attention gate must produce exactly 1 channel")


# ---------------------------------------------------------------------------
# windowed sums

def box_sum(x: np.ndarray, r: int) -> np.ndarray:
    """Sum of each cubic window of radius r, clipped at the volume border.

    out[v] = sum of x over {u : |u - v|_inf <= r} intersected with the
    volume, per batch item and channel. One GEMM per axis of extent m
    with the 0/1 band Band[u, v] = (|u - v| <= r), whose finite size
    clips at the border: 2*(z+h+w) flops per element and no prefix sums,
    so no cancellation. Band is symmetric, so the map is self-adjoint,
    which the fit backward relies on.
    """
    x = as_tensor5(x, "box_sum input")
    if r < 1:
        raise ValueError(f"box_sum radius must be >= 1, got {r}")
    n, z, h, w, c = x.shape
    for lead, m, trail in ((n, z, h * w * c), (n * z, h, w * c), (n * z * h, w, c)):
        v = np.arange(m)
        band = (np.abs(v[:, None] - v) <= r).astype(DTYPE)
        x = band @ x.reshape(lead, m, trail)
    return x.reshape(n, z, h, w, c)


def window_counts(spatial: tuple[int, int, int], r: int) -> np.ndarray:
    """Number of in-volume voxels in each clipped window, shape (1,z,h,w,1)."""
    ones = np.ones((1, *spatial, 1), dtype=DTYPE)
    return box_sum(ones, r)


# ---------------------------------------------------------------------------
# attention map

def attention_map(i: np.ndarray, o: np.ndarray, p: AgParams) -> LayerGrad:
    """Single-channel attention in (0,1) from the guidance i and filtered map o.

    T = sigmoid(gate(relu(conv_o(o) + conv_i(i)))). backward(gt)
    returns ((gi, go), grads) with grads keyed attn_o.kernel etc.
    """
    i = as_tensor5(i, "attention input i")
    o = as_tensor5(o, "attention input o")
    if i.shape[:4] != o.shape[:4]:
        raise ShapeError(f"attention_map: spatial mismatch {i.shape} vs {o.shape}")
    lg_o = conv3d_forward(o, p.attn_o)
    lg_i = conv3d_forward(i, p.attn_i)
    lg_r = activation(lg_o.output + lg_i.output, "relu")
    lg_g = conv3d_forward(lg_r.output, p.attn_gate)
    lg_s = activation(lg_g.output, "sigmoid")

    def backward(gt: np.ndarray):
        grads = {}
        gg, _ = lg_s.backward(gt)
        gr = record(grads, "attn_gate", lg_g.backward(gg))
        gsum, _ = lg_r.backward(gr)
        go = record(grads, "attn_o", lg_o.backward(gsum))
        gi = record(grads, "attn_i", lg_i.backward(gsum))
        return (gi, go), grads

    return LayerGrad(lg_s.output, backward)


# ---------------------------------------------------------------------------
# attention-weighted window fit

def _fit_forward(i: np.ndarray, o: np.ndarray, t: np.ndarray, r: int, eps: float):
    """Weighted per-window affine fit plus covering-window averaging.

    Returns (A, B, backward) where backward(gA, gB) -> (gI, gO, gT).
    Windows whose normalized weight mass falls below a floor get the
    documented fallback: slope 0 and the unweighted window mean of O.
    Full-size terms live in a few reused buffers, updated with the
    operators of `fit_forward_oracle` (tests/oracles.py) in its order, so
    results are bitwise equal; `a += (-b) * c` runs as `a -= b * c`, the
    same number.
    """
    spatial = i.shape[1:4]
    voxels = float(np.prod(spatial))

    q0 = t * t
    s2 = q0.sum(axis=(1, 2, 3, 4), keepdims=True)  # per batch item
    live = s2 > 0.0
    s2_safe = np.where(live, s2, 1.0)
    q = np.where(live, q0 * (voxels / s2_safe), 0.0)

    counts = window_counts(spatial, r)
    s = box_sum(q, r)
    qi, buf = q * i, np.empty_like(i)
    p1 = box_sum(qi, r)
    p2 = box_sum(np.multiply(q, o, out=buf), r)
    p3 = box_sum(np.multiply(qi, i, out=buf), r)
    p4 = box_sum(np.multiply(qi, o, out=buf), r)

    degenerate = s < DEGENERATE_WEIGHT_SUM  # (n,z,h,w,1)
    s_safe = np.where(degenerate, 1.0, s)
    mean_i, mean_o, e_ii, e_io = (np.divide(p, s_safe, out=p) for p in (p1, p2, p3, p4))
    denom = np.subtract(e_ii, np.multiply(mean_i, mean_i, out=qi), out=qi)  # var
    denom += eps * counts / s_safe
    a_w = np.subtract(e_io, np.multiply(mean_i, mean_o, out=buf), out=buf)  # cov
    a_w /= denom
    b = a_w * mean_i
    np.subtract(mean_o, b, out=b)  # b_w; degenerate windows: the window mean of O
    box_o = box_sum(o, r)
    np.copyto(b, np.divide(box_o, counts, out=box_o), where=degenerate)
    coeff_a, coeff_b = (np.divide(v, counts, out=v)
                        for v in (box_sum(np.where(degenerate, 0.0, a_w), r), box_sum(b, r)))

    def backward(g_a: np.ndarray, g_b: np.ndarray):
        da = box_sum(g_a / counts, r)
        db = box_sum(g_b / counts, r)
        # db reaches the fit on fitted windows and the mean of O on degenerate ones
        d_mean_o = np.where(degenerate, 0.0, db)
        np.copyto(db, 0.0, where=~degenerate)
        g_deg = box_sum(np.divide(db, counts, out=db), r)
        da_n = np.subtract(da, np.multiply(d_mean_o, mean_i, out=db), out=da)
        np.copyto(da_n, 0.0, where=degenerate)
        d_mean_i = np.multiply(np.negative(d_mean_o, out=db), a_w)
        ddenom = np.divide(np.multiply(np.negative(da_n, out=db), a_w, out=db), denom)
        dcov = np.divide(da_n, denom, out=da_n)
        d_mean_i -= np.multiply(dcov, mean_o, out=db)
        d_mean_o -= np.multiply(dcov, mean_i, out=db)
        d_mean_i -= np.multiply(np.multiply(ddenom, 2.0, out=db), mean_i, out=db)

        # ds = ds_eps - (the four moment terms) / s_safe, on the fitted windows
        ds = d_mean_i * mean_i
        for d, m in ((d_mean_o, mean_o), (ddenom, e_ii), (dcov, e_io)):
            ds += np.multiply(d, m, out=db)
        ds /= s_safe
        ds = np.subtract(np.multiply(ddenom, -eps * counts / (s_safe * s_safe), out=db), ds, out=ds)
        np.copyto(ds, 0.0, where=degenerate)
        w1, w2, w3, w4 = (box_sum(np.divide(d, s_safe, out=d), r)
                          for d in (d_mean_i, d_mean_o, ddenom, dcov))
        ws = box_sum(channel_sum(ds), r)

        g_i = np.multiply(np.multiply(i, 2.0, out=d_mean_i), w3, out=d_mean_i)
        g_i += w1
        g_i += np.multiply(o, w4, out=db)
        g_i *= q
        g_o = np.add(w2, np.multiply(i, w4, out=d_mean_o), out=d_mean_o)
        g_o *= q
        g_o += g_deg

        dq = np.multiply(i, w1, out=ds)
        dq += np.multiply(o, w2, out=db)
        dq += np.multiply(np.multiply(i, i, out=db), w3, out=db)
        dq += np.multiply(np.multiply(i, o, out=db), w4, out=db)
        dq = channel_sum(dq) + ws
        # q = q0 * voxels / sum(q0): distribute through the normalization
        inner = (dq * q0).sum(axis=(1, 2, 3, 4), keepdims=True)
        dq0 = np.where(live, (voxels / s2_safe) * (dq - inner / s2_safe), 0.0)
        g_t = 2.0 * t * dq0
        return g_i, g_o, g_t

    return coeff_a, coeff_b, backward


def effective_radius(radius: int, spatial: tuple[int, int, int]) -> int:
    """Scale the configured radius down so windows fit desk-size volumes."""
    return max(1, min(radius, min(spatial) // 2))


def ag_forward(i: np.ndarray, o: np.ndarray, p: AgParams) -> LayerGrad:
    """Full attention-guided filtering of the guidance/filtered pair.

    `i` is the guidance, `o` the filtered map; both share one shape and
    so does the output. backward(gy) returns ((gi, go), grads) with
    grads keyed attn_o.kernel etc.
    """
    i = as_tensor5(i, "ag guidance")
    o = as_tensor5(o, "ag filtered map")
    if i.shape != o.shape:
        raise ShapeError(
            f"ag_forward: guidance {i.shape} and filtered map {o.shape} must share "
            f"one grid and channel count"
        )
    lg_attn = attention_map(i, o, p)
    r_eff = effective_radius(p.radius, o.shape[1:4])
    coeff_a, coeff_b, fit_backward = _fit_forward(i, o, lg_attn.output, r_eff, p.eps)
    y = coeff_a * i + coeff_b

    def backward(gy: np.ndarray):
        gy = np.asarray(gy, dtype=DTYPE)
        if gy.shape != y.shape:
            raise ShapeError(f"ag backward: gradient shape {gy.shape} != output {y.shape}")
        g_i, g_o, g_t = fit_backward(gy * i, gy)
        (g_i_attn, g_o_attn), grads = lg_attn.backward(g_t)
        return (gy * coeff_a + (g_i + g_i_attn), g_o + g_o_attn), grads

    return LayerGrad(y, backward)
