"""Differentiable 3D layers with explicit analytic backward passes.

Every layer returns a `LayerGrad`: the forward output plus a closure
mapping an output-shaped gradient to (input gradient, parameter
gradients). Closures capture only what the backward needs; they are
pure, linear in the incoming gradient, and safe to call repeatedly.

Kernel layouts (channels last, matching the tensor axis order):
    conv:   (kz, kh, kw, c_in, c_out)
    deconv: (kz, kh, kw, c_out, c_in)
The deconv layout is flipped on the channel axes so that a convolution
and a transposed convolution sharing one kernel array are exact adjoint
linear maps: <deconv_W(x), y> == <x, conv_W(y)>.

Both run on one shift-GEMM kernel. The zero-padded input is split once
into s0*s1*s2 phase grids (phase (r0, r1, r2) holds the padded voxels
(r0 + s0*i, r1 + s1*j, r2 + s2*k)), each flattened with the batch into
the rows of a (rows, channels) matrix. Kernel offset (a, b, c) reads
phase (a%s0, b%s1, c%s2) at the constant row shift of (a//s0, b//s1,
c//s2), so every stride is a stride-1 correlation: one product of a
contiguous row block with the offset's channel matrix per offset, with
no im2col copy. Conv forward and deconv input-gradient gather; conv
input-gradient and deconv forward scatter (gather's adjoint); both
kernel gradients are one `_kgrad`. Memory: the phase rows (one padded
copy of the input) and the output on the phase row pitch, plus one
tile: the products run TILE_BYTES of rows at a time, every offset in
kernel order within a tile, so each element is summed in the same order
as by one product per offset over all rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .rng import Rng
from .tensor import DTYPE, ShapeError, as_tensor5, channel_sum, voxel_sum


class LayerGrad(NamedTuple):
    """Forward output paired with its backward closure.

    `backward(gy)` returns `(grad_input, grad_params)` where
    `grad_params` is a dict keyed like the layer's parameter fields
    (empty for parameter-free ops). Multi-input ops return a tuple of
    input gradients; each layer documents its exact signature.
    """

    output: np.ndarray
    backward: Callable


def record(grads: dict, prefix: str, result):
    """Store a layer's (g, part) parameter gradients in `grads` under
    `prefix` (`prefix.key` for each key of part); return g."""
    g, part = result
    for key, val in part.items():
        grads[f"{prefix}.{key}"] = val
    return g


# Bytes of one shift-GEMM row tile: the tile's accumulator, one product and
# the rows it reads stay in cache across the 27 kernel offsets.
TILE_BYTES = 256 * 1024


def _triple(v) -> tuple[int, int, int]:
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected int or length-3 tuple, got {v!r}")
    return t


def _geometry(stride, padding):
    """(stride, padding) as triples, strides >= 1 and paddings >= 0."""
    s, p = _triple(stride), _triple(padding)
    if min(s) < 1 or min(p) < 0:
        raise ShapeError(f"stride {s} must be >= 1 and padding {p} >= 0 on every axis")
    return s, p


@dataclass
class Conv3dParams:
    kernel: np.ndarray  # (kz, kh, kw, c_in, c_out)
    bias: np.ndarray  # (c_out,)
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        self.stride, self.padding = _geometry(self.stride, self.padding)
        if self.kernel.ndim != 5:
            raise ShapeError(f"conv kernel must have 5 axes, got {self.kernel.shape}")
        if self.bias.shape != (self.kernel.shape[4],):
            raise ShapeError(
                f"conv bias shape {self.bias.shape} does not match c_out {self.kernel.shape[4]}"
            )


@dataclass
class Deconv3dParams:
    kernel: np.ndarray  # (kz, kh, kw, c_out, c_in)
    bias: np.ndarray  # (c_out,)
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)
    output_padding: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        self.stride, self.padding = _geometry(self.stride, self.padding)
        self.output_padding = _triple(self.output_padding)
        if self.kernel.ndim != 5:
            raise ShapeError(f"deconv kernel must have 5 axes, got {self.kernel.shape}")
        for op, s in zip(self.output_padding, self.stride):
            if not 0 <= op < s:
                raise ShapeError(
                    f"output_padding {self.output_padding} must lie in [0, stride) per axis"
                )
        if self.bias.shape != (self.kernel.shape[3],):
            raise ShapeError(
                f"deconv bias shape {self.bias.shape} does not match c_out {self.kernel.shape[3]}"
            )


@dataclass
class DenseParams:
    weight: np.ndarray  # (c_in, c_out)
    bias: np.ndarray  # (c_out,)


def conv_output_extent(i: int, k: int, s: int, p: int) -> int:
    return (i + 2 * p - k) // s + 1


def deconv_output_extent(i: int, k: int, s: int, p: int, op: int) -> int:
    return s * (i - 1) + k - 2 * p + op


class _Grid(NamedTuple):
    """Shift-GEMM layout of one convolution. Output voxel (z, h, w) of batch
    item j is phase row j*Zq*Hq*Wq + (z*Hq + h)*Wq + w; the rows between
    output voxels are padding."""

    n: int
    ext: tuple  # unpadded input extent
    out: tuple  # output extent
    q: tuple  # phase grid extent (Zq, Hq, Wq)
    stride: tuple
    pad: tuple
    taps: tuple  # (phase, row shift) per kernel offset, in kernel order
    rows: int  # rows each shifted product covers: through the last output voxel


def _grid(n: int, ext, k, s, pad) -> _Grid:
    out = tuple(conv_output_extent(*v) for v in zip(ext, k, s, pad))
    q = tuple(-(-(e + 2 * p) // st) for e, p, st in zip(ext, pad, s))
    taps = tuple(
        (((a % s[0]) * s[1] + b % s[1]) * s[2] + c % s[2],
         ((a // s[0]) * q[1] + b // s[1]) * q[2] + c // s[2])
        for a, b, c in np.ndindex(*k)
    )
    last = ((out[0] - 1) * q[1] + out[1] - 1) * q[2] + out[2]
    return _Grid(n, tuple(ext), out, q, s, pad, taps, (n - 1) * q[0] * q[1] * q[2] + last)


def _split(x: np.ndarray, g: _Grid) -> np.ndarray:
    """Zero-pad x and split it into phase rows, shape (s0*s1*s2, rows, c)."""
    (q0, q1, q2), (s0, s1, s2), (p0, p1, p2) = g.q, g.stride, g.pad
    xp = x
    if (q0 * s0, q1 * s1, q2 * s2) != x.shape[1:4]:
        xp = np.zeros((g.n, q0 * s0, q1 * s1, q2 * s2, x.shape[4]), dtype=DTYPE)
        xp[:, p0 : p0 + g.ext[0], p1 : p1 + g.ext[1], p2 : p2 + g.ext[2]] = x
    ph = xp.reshape(g.n, q0, s0, q1, s1, q2, s2, -1).transpose(2, 4, 6, 0, 1, 3, 5, 7)
    return np.ascontiguousarray(ph).reshape(s0 * s1 * s2, -1, x.shape[4])


def _pitch(y: np.ndarray, g: _Grid) -> np.ndarray:
    """Output-shaped y on the phase row pitch, zero between output voxels."""
    rows = np.zeros((g.n, *g.q, y.shape[4]), dtype=DTYPE)
    rows[:, : g.out[0], : g.out[1], : g.out[2]] = y
    return rows.reshape(-1, y.shape[4])


def _tile_rows(kernel: np.ndarray) -> int:
    """Rows per tile of the shift-GEMM: TILE_BYTES of its widest channel side."""
    return max(1, TILE_BYTES // (8 * max(kernel.shape[3:])))


def _product(src: np.ndarray, lo: int, hi: int, kk: np.ndarray, out: np.ndarray) -> np.ndarray:
    """src[lo:hi] @ kk, written to the head of out. numpy runs a one-row
    product as gemv, whose sums differ from gemm's, so one row of a
    longer src is cut from a two-row product: every row then rounds as in
    one product over all of src."""
    if hi - lo == 1 and len(src) > 1:
        start = min(lo, len(src) - 2)
        return np.matmul(src[start : start + 2], kk, out=out[:2])[lo - start : hi - start]
    return np.matmul(src[lo:hi], kk, out=out[: hi - lo])


def _gather(ph: np.ndarray, kernel: np.ndarray, g: _Grid) -> np.ndarray:
    """Output-shaped correlation of the phases with a (kz, kh, kw, c_a, c_b)
    kernel: row j sums ph[phase, j + shift] @ kernel[offset] over offsets,
    in kernel order, one tile of rows at a time."""
    k = kernel.reshape(len(g.taps), *kernel.shape[3:])
    rows = np.zeros((ph.shape[1], k.shape[2]), dtype=DTYPE)
    tile = _tile_rows(kernel)
    buf = np.empty((max(2, tile), k.shape[2]), dtype=DTYPE)
    for lo in range(0, g.rows, tile):
        hi = min(lo + tile, g.rows)
        acc = rows[lo:hi]
        for kk, (r, d) in zip(k, g.taps):
            acc += _product(ph[r, d : d + g.rows], lo, hi, kk, buf)
    y = rows.reshape(g.n, *g.q, -1)[:, : g.out[0], : g.out[1], : g.out[2]]
    return np.ascontiguousarray(y)


def _scatter(rows: np.ndarray, kernel: np.ndarray, g: _Grid) -> np.ndarray:
    """Adjoint of _gather in its input, from pitch rows: every row j adds
    rows[j] @ kernel[offset]^T to ph[phase, j + shift], in kernel order,
    one tile of destination rows at a time; the phases are then
    interleaved and the padding cropped."""
    (q0, q1, q2), (s0, s1, s2), (p0, p1, p2) = g.q, g.stride, g.pad
    # transposed once into C order: products with a C-order operand are faster
    k = np.swapaxes(kernel.reshape(len(g.taps), *kernel.shape[3:]), 1, 2).copy()
    ph = np.zeros((s0 * s1 * s2, rows.shape[0], k.shape[2]), dtype=DTYPE)
    src = rows[: g.rows]
    tile = _tile_rows(kernel)
    buf = np.empty((max(2, tile), k.shape[2]), dtype=DTYPE)
    for start in range(0, rows.shape[0], tile):
        stop = start + tile
        for kk, (r, d) in zip(k, g.taps):
            lo, hi = max(start - d, 0), min(stop - d, g.rows)
            if lo < hi:
                ph[r, lo + d : hi + d] += _product(src, lo, hi, kk, buf)
    xp = ph.reshape(s0, s1, s2, g.n, q0, q1, q2, -1).transpose(3, 4, 0, 5, 1, 6, 2, 7)
    xp = xp.reshape(g.n, q0 * s0, q1 * s1, q2 * s2, -1)
    return np.ascontiguousarray(xp[:, p0 : p0 + g.ext[0], p1 : p1 + g.ext[1], p2 : p2 + g.ext[2]])


def _kgrad(ph: np.ndarray, rows: np.ndarray, g: _Grid, shape) -> np.ndarray:
    """Adjoint of _gather in its kernel: per offset, the sum over j of
    ph[phase, j + shift]^T rows[j], with rows from _pitch."""
    src = rows[: g.rows]
    return np.stack([ph[r, d : d + g.rows].T @ src for r, d in g.taps]).reshape(shape)


def conv3d_forward(x: np.ndarray, p: Conv3dParams) -> LayerGrad:
    """Strided zero-padded cross-correlation.

    Output extent per axis is floor((i + 2p - k)/s) + 1. backward(gy)
    returns (gx, {"kernel": gk, "bias": gb}).
    """
    x = as_tensor5(x, "conv input")
    kz, kh, kw, c_in, c_out = p.kernel.shape
    if x.shape[4] != c_in:
        raise ShapeError(f"conv: input has {x.shape[4]} channels, kernel expects {c_in}")
    g = _grid(x.shape[0], x.shape[1:4], (kz, kh, kw), p.stride, p.padding)
    if min(g.out) < 1:
        raise ShapeError(f"conv: non-positive output extent {g.out} for input {g.ext}, "
                         f"kernel {(kz, kh, kw)}, stride {p.stride}, padding {p.padding}")
    ph = _split(x, g)
    y = _gather(ph, p.kernel, g) + p.bias

    def backward(gy: np.ndarray):
        gy = np.asarray(gy, dtype=DTYPE)
        if gy.shape != y.shape:
            raise ShapeError(f"conv backward: gradient shape {gy.shape} != output {y.shape}")
        rows = _pitch(gy, g)
        gx = _scatter(rows, p.kernel, g)
        gk = _kgrad(ph, rows, g, p.kernel.shape)
        return gx, {"kernel": gk, "bias": voxel_sum(gy, pooled=True)}

    return LayerGrad(y, backward)


def deconv3d_forward(x: np.ndarray, p: Deconv3dParams) -> LayerGrad:
    """Transposed convolution (the adjoint of conv3d as a forward op).

    Output extent per axis is s*(i-1) + k - 2p + op; with k=3, s=2, p=1,
    op=1 each spatial extent exactly doubles. backward(gy) returns
    (gx, {"kernel": gk, "bias": gb}).
    """
    x = as_tensor5(x, "deconv input")
    kz, kh, kw, c_out, c_in = p.kernel.shape
    if x.shape[4] != c_in:
        raise ShapeError(f"deconv: input has {x.shape[4]} channels, kernel expects {c_in}")
    out_ext = tuple(
        deconv_output_extent(i, k, st, pd, op)
        for i, k, st, pd, op in zip(x.shape[1:4], (kz, kh, kw), p.stride, p.padding,
                                    p.output_padding)
    )
    if min(out_ext) < 1:
        raise ShapeError(f"deconv: non-positive output extent {out_ext}")
    # the grid of the conv this op is the adjoint of: its input is our output
    g = _grid(x.shape[0], out_ext, (kz, kh, kw), p.stride, p.padding)
    rows = _pitch(x, g)
    y = _scatter(rows, p.kernel, g) + p.bias

    def backward(gy: np.ndarray):
        gy = np.asarray(gy, dtype=DTYPE)
        if gy.shape != y.shape:
            raise ShapeError(f"deconv backward: gradient shape {gy.shape} != output {y.shape}")
        ph = _split(gy, g)
        gx = _gather(ph, p.kernel, g)
        gk = _kgrad(ph, rows, g, p.kernel.shape)
        return gx, {"kernel": gk, "bias": voxel_sum(gy, pooled=True)}

    return LayerGrad(y, backward)


def activation(x: np.ndarray, kind: str) -> LayerGrad:
    """relu, sigmoid, or softmax_channel (normalizes over the channel axis).

    backward(gy) returns (gx, {}).
    """
    x = np.asarray(x, dtype=DTYPE)
    if kind == "relu":
        y = np.maximum(x, 0.0)

        def backward(gy):
            return np.where(x > 0.0, gy, 0.0), {}

    elif kind == "sigmoid":
        # e = exp(-|x|) never overflows: 1/(1+e) for x >= 0, e/(1+e) below;
        # min(x, -x) keeps a NaN's sign, which -abs(x) would flip
        e = np.exp(np.minimum(x, -x))
        d = 1.0 + e
        y = np.where(x >= 0, np.divide(1.0, d), np.divide(e, d, out=e))

        def backward(gy):
            return gy * y * (1.0 - y), {}

    elif kind == "softmax_channel":
        peak = x[..., :1].copy()
        for k in range(1, x.shape[-1]):
            np.maximum(peak, x[..., k : k + 1], out=peak)
        e = np.exp(x - peak)
        y = e / channel_sum(e)

        def backward(gy):
            return y * (gy - channel_sum(gy * y)), {}

    else:
        raise ValueError(f"unknown activation kind {kind!r}")
    return LayerGrad(y, backward)


def instance_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> LayerGrad:
    """Normalize each (batch, channel) slab over its spatial voxels.

    backward(gy) returns (gx, {"gamma": gg, "beta": gb}). Each pass works
    in two full-size buffers, bitwise equal to `instance_norm_oracle` in
    tests/oracles.py.
    """
    x = as_tensor5(x, "instance_norm input")
    if eps <= 0:
        raise ValueError(f"instance_norm eps must be > 0, got {eps}")
    gamma = np.asarray(gamma, dtype=DTYPE)
    beta = np.asarray(beta, dtype=DTYPE)
    voxels = x.shape[1] * x.shape[2] * x.shape[3]

    def mean(a):  # a.mean(axis=(1, 2, 3), keepdims=True), bitwise
        return voxel_sum(a)[:, None, None, None, :] / voxels

    xhat = x - mean(x)
    y = np.square(xhat)
    inv = 1.0 / np.sqrt(mean(y) + eps)  # x.var's arithmetic
    xhat *= inv
    y = np.add(np.multiply(xhat, gamma, out=y), beta, out=y)

    def backward(gy):
        gy = np.asarray(gy, dtype=DTYPE)
        gx = gy * gamma
        buf = gx * xhat
        m2 = mean(buf)
        gx -= mean(gx)
        gx -= np.multiply(xhat, m2, out=buf)
        gx *= inv
        gg = voxel_sum(np.multiply(gy, xhat, out=buf), pooled=True)
        return gx, {"gamma": gg, "beta": voxel_sum(gy, pooled=True)}

    return LayerGrad(y, backward)


def dropout(x: np.ndarray, rate: float, rng: Rng) -> LayerGrad:
    """Inverted dropout: survivors are scaled by 1/(1-rate), so rate 0,
    the inference setting, is the identity and draws nothing from rng.
    backward(gy) returns (gx, {}).
    """
    x = np.asarray(x, dtype=DTYPE)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return LayerGrad(x, lambda gy: (np.asarray(gy, dtype=DTYPE), {}))
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    mask = keep * scale
    return LayerGrad(x * mask, lambda gy: (np.asarray(gy, dtype=DTYPE) * mask, {}))


def dense(x: np.ndarray, p: DenseParams) -> LayerGrad:
    """Fully connected layer over (n, c_in) row vectors: y = x W + b.

    backward(gy) returns (gx, {"weight": gw, "bias": gb}).
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 2 or x.shape[1] != p.weight.shape[0]:
        raise ShapeError(
            f"dense: input shape {x.shape} incompatible with weight {p.weight.shape}"
        )
    y = x @ p.weight + p.bias

    def backward(gy):
        gy = np.asarray(gy, dtype=DTYPE)
        return gy @ p.weight.T, {"weight": x.T @ gy, "bias": gy.sum(axis=0)}

    return LayerGrad(y, backward)

