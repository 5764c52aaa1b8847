"""Oracles that only the tests call: the slower or allocating forms that a
fast path in `agsevnet` replaced, kept so the tests can require equal
results (bitwise where the arithmetic is unchanged).

The oracles of the `agsevnet gradcheck` command stay in `agsevnet.checks`.
"""

from __future__ import annotations

import dataclasses
import types
from pathlib import Path

import numpy as np

from agsevnet.ag import DEGENERATE_WEIGHT_SUM, box_sum, window_counts
from agsevnet.layers import LayerGrad, _Grid, activation
from agsevnet.losses import LABEL_VALUES, SMOOTH, _check_pair, surface_voxels
from agsevnet.network import NetConfig, forward, load_params, save_params
from agsevnet.pipeline import PatchSpec, cut_patch, patch_starts, stitch_patches
from agsevnet.tensor import DTYPE, ShapeError, as_tensor5


def soft_dice_per_class(p: np.ndarray, g: np.ndarray, smooth: float = SMOOTH) -> np.ndarray:
    """Squared-denominator soft Dice per class, summed over batch and voxels:
    the per-class score inside `dice_loss`, computed on its own for tests.

    Classes absent from the truth score exactly 0 (documented empty-class
    rule) rather than the near-zero value the raw ratio would give.
    """
    p, g = _check_pair(p, g)
    inter = (p * g).sum(axis=(0, 1, 2, 3))
    pp = (p * p).sum(axis=(0, 1, 2, 3))
    gg = (g * g).sum(axis=(0, 1, 2, 3))
    present = gg > 0.0
    denom = np.where(present, pp + gg + smooth, 1.0)
    return np.where(present, 2.0 * inter / denom, 0.0)


def stitched_probs_oracle(x: np.ndarray, params, config: NetConfig, spec: PatchSpec) -> np.ndarray:
    """The serial path infer.stitched_probs replaces: every patch cut up
    front, one forward with backward state per patch on the calling
    thread, the probability patches stitched as a list."""
    probs = [forward(cut_patch(x, start, spec), params, config).output
             for start in patch_starts(x.shape[1:4], spec)]
    return stitch_patches(probs, (*x.shape[:4], len(LABEL_VALUES)), spec)


def to_pre_bias_removal_layout(checkpoint: Path) -> None:
    """Rewrite a checkpoint in the layout written while every conv and
    deconv that feeds an instance norm had a bias: a zero `<conv>.bias`
    after each such kernel (its Adam moments included), and the
    `num_classes=4` key in config.txt and, if present, train_config.txt."""
    new, old = load_params(checkpoint), {}
    for name, arr in new.items():
        old[name] = arr
        conv = name.removesuffix(".kernel")
        if f"{conv}.gamma" in new:
            old[f"{conv}.bias"] = np.zeros_like(new[f"{conv}.gamma"])
    save_params(checkpoint, old)
    for name, prefix in (("config.txt", ""), ("train_config.txt", "net.")):
        path, key = checkpoint / name, f"\n{prefix}base_width="
        if path.exists():
            path.write_text(path.read_text().replace(key, f"\n{prefix}num_classes=4{key}"))


def surface_distance_pool(pred: np.ndarray, truth: np.ndarray,
                          spacing=(1.0, 1.0, 1.0)):
    """All-pairs pooled directed surface distances (truth to pred, then
    pred to truth), one block of rows at a time; None when either mask
    is empty. Quadratic in surface size: the oracle for hausdorff95.
    """
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ShapeError(f"hausdorff: shape mismatch {pred.shape} vs {truth.shape}")
    if not pred.any() or not truth.any():
        return None
    sp = np.asarray(spacing, dtype=np.float64)
    ps = surface_voxels(pred) * sp
    ts = surface_voxels(truth) * sp

    def directed(src, dst):
        out = np.empty(len(src))
        chunk = max(1, 2_000_000 // len(dst))
        for start in range(0, len(src), chunk):
            block = src[start : start + chunk]
            d2 = ((block[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
            out[start : start + len(block)] = np.sqrt(d2.min(axis=1))
        return out

    return np.concatenate([directed(ts, ps), directed(ps, ts)])


def hd95_all_pairs(pred: np.ndarray, truth: np.ndarray, spacing=(1.0, 1.0, 1.0)):
    """95th percentile (linear) of the all-pairs pool, or None."""
    pool = surface_distance_pool(pred, truth, spacing)
    return None if pool is None else float(np.percentile(pool, 95.0, method="linear"))


def closure_arrays(fn) -> list[np.ndarray]:
    """Every array a backward closure retains, once each: through nested
    closures and the tuples (LayerGrads, grids) and parameter dataclasses
    they hold. Tests copy them before a backward to see that it leaves
    them unchanged."""
    found, seen = [], set()

    def walk(v):
        if id(v) in seen:
            return
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (tuple, list)):
            for e in v:
                walk(e)
        elif dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                walk(getattr(v, f.name))
        elif isinstance(v, types.FunctionType):
            for cell in v.__closure__ or ():
                walk(cell.cell_contents)

    walk(fn)
    return found


def retained_bytes(backward) -> int:
    """Bytes a backward closure keeps alive through the arrays it retains
    (`closure_arrays`): a view keeps its base, so each array counts as its
    base, and each base counts once."""
    bases = {}
    for a in closure_arrays(backward):
        while isinstance(a.base, np.ndarray):
            a = a.base
        bases[id(a)] = a.nbytes
    return sum(bases.values())


def instance_norm_oracle(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                         eps: float) -> LayerGrad:
    """The allocating arithmetic `layers.instance_norm` replaced: one fresh
    array per operator, in the same order, so outputs and gradients must
    match bitwise."""
    x = as_tensor5(x, "instance_norm input")
    gamma = np.asarray(gamma, dtype=DTYPE)
    beta = np.asarray(beta, dtype=DTYPE)
    axes = (1, 2, 3)
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    y = gamma * xhat + beta

    def backward(gy):
        gy = np.asarray(gy, dtype=DTYPE)
        gg = (gy * xhat).sum(axis=(0, 1, 2, 3))
        gb = gy.sum(axis=(0, 1, 2, 3))
        gxhat = gy * gamma
        m1 = gxhat.mean(axis=axes, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=axes, keepdims=True)
        gx = inv * (gxhat - m1 - xhat * m2)
        return gx, {"gamma": gg, "beta": gb}

    return LayerGrad(y, backward)


def fit_forward_oracle(i: np.ndarray, o: np.ndarray, t: np.ndarray, r: int, eps: float):
    """The allocating arithmetic `ag._fit_forward` replaced: one fresh array
    per operator, in the same order, so (A, B) and backward(gA, gB) ->
    (gI, gO, gT) must match bitwise."""
    n, z, h, w, c = i.shape
    spatial = (z, h, w)
    voxels = float(z * h * w)

    q0 = t * t
    s2 = q0.sum(axis=(1, 2, 3, 4), keepdims=True)  # per batch item
    live = s2 > 0.0
    s2_safe = np.where(live, s2, 1.0)
    q = np.where(live, q0 * (voxels / s2_safe), 0.0)

    counts = window_counts(spatial, r)
    s = box_sum(q, r)
    p1 = box_sum(q * i, r)
    p2 = box_sum(q * o, r)
    p3 = box_sum(q * i * i, r)
    p4 = box_sum(q * i * o, r)

    degenerate = s < DEGENERATE_WEIGHT_SUM  # (n,z,h,w,1)
    s_safe = np.where(degenerate, 1.0, s)
    mean_i = p1 / s_safe
    mean_o = p2 / s_safe
    e_ii = p3 / s_safe
    e_io = p4 / s_safe
    var = e_ii - mean_i * mean_i
    cov = e_io - mean_i * mean_o
    denom = var + eps * counts / s_safe
    a_w = cov / denom
    b_w = mean_o - a_w * mean_i

    box_o = box_sum(o, r)
    a = np.where(degenerate, 0.0, a_w)
    b = np.where(degenerate, box_o / counts, b_w)

    coeff_a = box_sum(a, r) / counts
    coeff_b = box_sum(b, r) / counts

    def backward(g_a: np.ndarray, g_b: np.ndarray):
        da = box_sum(g_a / counts, r)
        db = box_sum(g_b / counts, r)

        ok = ~degenerate
        da_n = np.where(ok, da - db * mean_i, 0.0)
        db_n = np.where(ok, db, 0.0)
        d_mean_o = db_n.copy()
        d_mean_i = -db_n * a_w
        dcov = da_n / denom
        ddenom = -da_n * a_w / denom
        d_mean_i += -dcov * mean_o
        d_mean_o += -dcov * mean_i
        d_e_io = dcov
        d_e_ii = ddenom
        d_mean_i += -2.0 * ddenom * mean_i
        ds_eps = ddenom * (-eps * counts / (s_safe * s_safe))

        dp1 = d_mean_i / s_safe
        dp2 = d_mean_o / s_safe
        dp3 = d_e_ii / s_safe
        dp4 = d_e_io / s_safe
        ds = (
            -(d_mean_i * mean_i + d_mean_o * mean_o + d_e_ii * e_ii + d_e_io * e_io)
            / s_safe
            + ds_eps
        )
        ds = np.where(ok, ds, 0.0).sum(axis=4, keepdims=True)

        w1 = box_sum(dp1, r)
        w2 = box_sum(dp2, r)
        w3 = box_sum(dp3, r)
        w4 = box_sum(dp4, r)
        ws = box_sum(ds, r)

        g_i = q * (w1 + 2.0 * i * w3 + o * w4)
        g_o = q * (w2 + i * w4)
        # degenerate windows: b is the unweighted window mean of O
        db_deg = np.where(degenerate, db, 0.0)
        g_o += box_sum(db_deg / counts, r)

        dq = (i * w1 + o * w2 + i * i * w3 + i * o * w4).sum(
            axis=4, keepdims=True
        ) + ws
        # q = q0 * voxels / sum(q0): distribute through the normalization
        inner = (dq * q0).sum(axis=(1, 2, 3, 4), keepdims=True)
        dq0 = np.where(live, (voxels / s2_safe) * (dq - inner / s2_safe), 0.0)
        g_t = 2.0 * t * dq0
        return g_i, g_o, g_t

    return coeff_a, coeff_b, backward


def gather_untiled(ph: np.ndarray, kernel: np.ndarray, g: _Grid) -> np.ndarray:
    """`layers._gather` without row tiles: each kernel offset adds its
    product over every output row before the next offset starts."""
    k = kernel.reshape(len(g.taps), *kernel.shape[3:])
    rows = np.zeros((ph.shape[1], k.shape[2]), dtype=DTYPE)
    acc = rows[: g.rows]
    for kk, (r, d) in zip(k, g.taps):
        acc += ph[r, d : d + g.rows] @ kk
    y = rows.reshape(g.n, *g.q, -1)[:, : g.out[0], : g.out[1], : g.out[2]]
    return np.ascontiguousarray(y)


def scatter_untiled(rows: np.ndarray, kernel: np.ndarray, g: _Grid) -> np.ndarray:
    """`layers._scatter` without row tiles: each kernel offset adds its
    product of all source rows before the next offset starts."""
    (q0, q1, q2), (s0, s1, s2), (p0, p1, p2) = g.q, g.stride, g.pad
    k = np.swapaxes(kernel.reshape(len(g.taps), *kernel.shape[3:]), 1, 2).copy()
    ph = np.zeros((s0 * s1 * s2, rows.shape[0], k.shape[2]), dtype=DTYPE)
    src = rows[: g.rows]
    for kk, (r, d) in zip(k, g.taps):
        ph[r, d : d + g.rows] += src @ kk
    xp = ph.reshape(s0, s1, s2, g.n, q0, q1, q2, -1).transpose(3, 4, 0, 5, 1, 6, 2, 7)
    xp = xp.reshape(g.n, q0 * s0, q1 * s1, q2 * s2, -1)
    return np.ascontiguousarray(xp[:, p0 : p0 + g.ext[0], p1 : p1 + g.ext[1], p2 : p2 + g.ext[2]])


def voxel_sum_numpy(x: np.ndarray, pooled: bool = False) -> np.ndarray:
    """numpy's own reduction that `tensor.voxel_sum` must match bitwise."""
    return x.sum(axis=(0, 1, 2, 3) if pooled else (1, 2, 3))


def channel_sum_numpy(x: np.ndarray) -> np.ndarray:
    """numpy's own reduction that `tensor.channel_sum` must match bitwise."""
    return x.sum(axis=-1, keepdims=True)


def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """The boolean-mask sigmoid `layers.activation` replaced."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def activation_oracle(x: np.ndarray, kind: str) -> LayerGrad:
    """`layers.activation` as it was before the one-pass sigmoid and the
    channel-slice softmax reductions: the masked sigmoid and numpy's
    channel max and sums, so outputs and gradients must match bitwise."""
    x = np.asarray(x, dtype=DTYPE)
    if kind == "sigmoid":
        y = sigmoid_masked(x)
        return LayerGrad(y, lambda gy: (gy * y * (1.0 - y), {}))
    if kind == "softmax_channel":
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
        return LayerGrad(y, lambda gy: (y * (gy - (gy * y).sum(axis=-1, keepdims=True)), {}))
    return activation(x, kind)
