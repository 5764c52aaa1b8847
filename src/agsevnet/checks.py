"""Registered verification checks for the gradcheck command.

Each scope of `SCOPES` bundles the finite-difference and oracle
comparisons for one subsystem at desk scale; `run_checks` runs one scope
or all of them. The same functions back the test suite, so the CLI
surface and pytest agree by construction.
"""

from __future__ import annotations

import numpy as np

from .ag import AgParams, _fit_forward, ag_forward, box_sum
from .gradcheck import CheckResult, max_rel_err, numeric_grad, random_sample_indices
from .layers import (
    Conv3dParams,
    Deconv3dParams,
    DenseParams,
    activation,
    conv3d_forward,
    conv_output_extent,
    deconv3d_forward,
    deconv_output_extent,
    dense,
    instance_norm,
)
from .losses import CLASS_WEIGHTS, SMOOTH, _check_pair, dice_loss
from .network import NetConfig, build, forward
from .rng import Rng
from .se import SeParams, se_forward


def _rand(rng: Rng, shape):
    return rng.uniform(-1.0, 1.0, shape)


def _away_from_kinks(x: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Nudge values off the ReLU kink so finite differences stay clean."""
    return np.where(np.abs(x) < margin, np.sign(x) * margin + (x == 0) * margin, x)


def _probe_check(name, analytic, f, arr, probe, tol=1e-5, refine=False) -> CheckResult:
    """Analytic gradient of <f(v).output, probe> at v = arr against central
    differences."""
    numeric = numeric_grad(lambda v: float((f(v).output * probe).sum()), arr, refine=refine)
    return CheckResult(name, max_rel_err(analytic, numeric), tol)


def check_layers(seed: int = 0) -> list[CheckResult]:
    rng = Rng(seed).derive("layers")

    # conv3d: input and parameter gradients, stride 1 and 2
    x = _rand(rng.derive("conv_x"), (1, 4, 5, 4, 2))
    kernel = _rand(rng.derive("conv_k"), (3, 3, 3, 2, 3)) * 0.5
    bias = _rand(rng.derive("conv_b"), (3,)) * 0.1
    probe = rng.derive("conv_probe").normal((1, 4, 5, 4, 3))

    def conv(xv, kv=kernel, bv=bias, s=1):
        return conv3d_forward(xv, Conv3dParams(kv, bv, stride=s, padding=1))

    gx, gp = conv(x).backward(probe)
    xs = _rand(rng.derive("convs_x"), (1, 6, 6, 6, 2))
    probe_s = rng.derive("convs_probe").normal((1, 3, 3, 3, 3))
    gxs, _ = conv(xs, bv=None, s=2).backward(probe_s)  # the network's convs have no bias
    results = [
        _probe_check("conv3d/input", gx, conv, x, probe),
        _probe_check("conv3d/kernel", gp["kernel"], lambda v: conv(x, v), kernel, probe),
        _probe_check("conv3d/bias", gp["bias"], lambda v: conv(x, kernel, v), bias, probe),
        _probe_check("conv3d/strided_input", gxs, lambda v: conv(v, bv=None, s=2), xs, probe_s),
    ]

    # deconv3d
    xd = _rand(rng.derive("dec_x"), (1, 3, 3, 3, 3))
    kd = _rand(rng.derive("dec_k"), (3, 3, 3, 2, 3)) * 0.5

    def dec(xv, kv=kd):
        return deconv3d_forward(xv, Deconv3dParams(kv, stride=2, padding=1, output_padding=1))

    probe_d = rng.derive("dec_probe").normal(dec(xd).output.shape)
    gx, gp = dec(xd).backward(probe_d)
    results.append(_probe_check("deconv3d/input", gx, dec, xd, probe_d))
    results.append(_probe_check("deconv3d/kernel", gp["kernel"], lambda v: dec(xd, v), kd, probe_d))

    # forward passes against the direct-loop oracles
    for name, xv, layer, params, oracle in (
        ("conv3d/oracle_stride1", x, conv3d_forward, Conv3dParams(kernel, bias, 1, 1),
         conv3d_oracle),
        ("conv3d/oracle_stride2", xs, conv3d_forward, Conv3dParams(kernel, bias, 2, 1),
         conv3d_oracle),
        ("conv3d/oracle_unbiased", x, conv3d_forward, Conv3dParams(kernel), conv3d_oracle),
        ("deconv3d/oracle", xd, deconv3d_forward, Deconv3dParams(kd, 2, 1, 1),
         deconv3d_oracle),
    ):
        want = oracle(xv, params)
        err = float(np.abs(layer(xv, params).output - want).max() / np.abs(want).max())
        results.append(CheckResult(name, err, 1e-12))

    # dense
    xv = _rand(rng.derive("dense_x"), (3, 6))
    wv = _rand(rng.derive("dense_w"), (6, 4))
    bv = _rand(rng.derive("dense_b"), (4,))
    probe_f = rng.derive("dense_probe").normal((3, 4))
    gx, gp = dense(xv, DenseParams(wv, bv)).backward(probe_f)
    results.append(_probe_check(
        "dense/input", gx, lambda v: dense(v, DenseParams(wv, bv)), xv, probe_f))
    results.append(_probe_check(
        "dense/weight", gp["weight"], lambda v: dense(xv, DenseParams(v, bv)), wv, probe_f))

    # instance norm
    xn = _rand(rng.derive("in_x"), (2, 3, 4, 3, 2)) * 2.0
    gamma = _rand(rng.derive("in_g"), (2,)) + 1.5
    beta = _rand(rng.derive("in_b"), (2,))
    probe_n = rng.derive("in_probe").normal(xn.shape)
    gx, gp = instance_norm(xn, gamma, beta, 1e-5).backward(probe_n)
    results.append(_probe_check(
        "instance_norm/input", gx, lambda v: instance_norm(v, gamma, beta, 1e-5), xn, probe_n))
    results.append(_probe_check(
        "instance_norm/gamma", gp["gamma"], lambda v: instance_norm(xn, v, beta, 1e-5), gamma,
        probe_n))

    # activations (relu probed away from its kink)
    xa = _away_from_kinks(_rand(rng.derive("act_x"), (1, 3, 3, 3, 4)))
    probe_a = rng.derive("act_probe").normal(xa.shape)
    for kind in ("relu", "sigmoid", "softmax_channel"):
        ga, _ = activation(xa, kind).backward(probe_a)
        results.append(_probe_check(
            f"activation/{kind}", ga, lambda v, k=kind: activation(v, k), xa, probe_a))
    return results


def check_se(seed: int = 0) -> list[CheckResult]:
    rng = Rng(seed).derive("se")
    c, m = 8, 4
    u = _rand(rng.derive("u"), (2, 2, 3, 2, c))
    p = SeParams(
        DenseParams(_rand(rng.derive("w1"), (c, c // m)), _rand(rng.derive("b1"), (c // m,)) * 0.1),
        DenseParams(_rand(rng.derive("w2"), (c // m, c)), _rand(rng.derive("b2"), (c,)) * 0.1),
    )
    probe = rng.derive("probe").normal(u.shape)
    gu, gp = se_forward(u, p).backward(probe)
    results = [_probe_check("se/input", gu, lambda v: se_forward(v, p), u, probe, refine=True)]
    for pname, arr, setter in (
        ("fc1.weight", p.fc1.weight, lambda v: SeParams(DenseParams(v, p.fc1.bias), p.fc2)),
        ("fc2.weight", p.fc2.weight, lambda v: SeParams(p.fc1, DenseParams(v, p.fc2.bias))),
    ):
        results.append(_probe_check(
            f"se/{pname}", gp[pname], lambda v, f=setter: se_forward(u, f(v)), arr, probe,
            refine=True))
    return results


def _small_ag_params(rng: Rng, c: int, radius: int = 2, eps: float = 0.05) -> AgParams:
    def conv1(c_in, c_out, key):
        return Conv3dParams(
            _rand(rng.derive(key), (1, 1, 1, c_in, c_out)) * 0.7,
            _rand(rng.derive(key + "b"), (c_out,)) * 0.1,
        )

    return AgParams(
        radius=radius,
        eps=eps,
        attn_o=conv1(c, c, "ao"),
        attn_i=conv1(c, c, "ai"),
        attn_gate=conv1(c, 1, "ag"),
    )


def check_ag(seed: int = 0) -> list[CheckResult]:
    rng = Rng(seed).derive("ag")

    # full AG block gradient; guidance and filtered map share one grid
    c = 2
    i = _rand(rng.derive("i"), (1, 6, 6, 6, c))
    o = _rand(rng.derive("o"), (1, 6, 6, 6, c))
    p = _small_ag_params(rng.derive("params"), c)
    probe = rng.derive("probe").normal(i.shape)
    (gi, go), gp = ag_forward(i, o, p).backward(probe)

    def with_gate_kernel(v):
        return AgParams(p.radius, p.eps, p.attn_o, p.attn_i, Conv3dParams(v, p.attn_gate.bias))

    results = [
        _probe_check("ag/guidance_input", gi, lambda v: ag_forward(v, o, p), i, probe,
                     1e-4, refine=True),
        _probe_check("ag/filtered_input", go, lambda v: ag_forward(i, v, p), o, probe,
                     1e-4, refine=True),
        _probe_check("ag/attn_gate.kernel", gp["attn_gate.kernel"],
                     lambda v: ag_forward(i, o, with_gate_kernel(v)), p.attn_gate.kernel, probe,
                     1e-4, refine=True),
    ]

    # weighted fit against per-window normal equations
    il = _rand(rng.derive("fit_i"), (1, 6, 6, 6, 1))
    ol = _rand(rng.derive("fit_o"), (1, 6, 6, 6, 1))
    t = rng.derive("fit_t").uniform(0.05, 1.0, (1, 6, 6, 6, 1))
    for r in (1, 2, 3):
        got_a, got_b = _fit_forward(il, ol, t, r, 0.01)[:2]
        want_a, want_b = fit_oracle(il[0, ..., 0], ol[0, ..., 0], t[0, ..., 0], r, 0.01)
        err = max(
            float(np.abs(got_a[0, ..., 0] - want_a).max()),
            float(np.abs(got_b[0, ..., 0] - want_b).max()),
        )
        results.append(CheckResult(f"ag/fit_vs_normal_equations_r{r}", err, 1e-10))

    # a fit degenerate on part of the volume: attention zero on half of
    # it leaves the r=1 windows of its first two slices without weight
    shape = (1, 6, 4, 4, 1)
    ih, oh = _rand(rng.derive("deg_i"), shape), _rand(rng.derive("deg_o"), shape)
    th = rng.derive("deg_t").uniform(0.05, 1.0, shape)
    th[:, :3] = 0.0
    probe_a, probe_b = (rng.derive(k).normal(shape) for k in ("deg_pa", "deg_pb"))

    def fit_loss(iv, ov):
        a, b = _fit_forward(iv, ov, th, 1, 0.01)[:2]
        return float((a * probe_a + b * probe_b).sum())

    gi, go, _ = _fit_forward(ih, oh, th, 1, 0.01)[2](probe_a, probe_b)
    err = max(max_rel_err(gi, numeric_grad(lambda v: fit_loss(v, oh), ih)),
              max_rel_err(go, numeric_grad(lambda v: fit_loss(ih, v), oh)))
    results.append(CheckResult("ag/fit_partly_degenerate", err, 1e-5))

    # box sums against the naive window oracle
    vol = rng.derive("box").normal((1, 7, 6, 5, 2))
    err = float(np.abs(box_sum(vol, 2) - box_sum_oracle(vol, 2)).max())
    results.append(CheckResult("ag/box_sum_vs_naive", err, 1e-12))
    return results


def check_net(seed: int = 0) -> list[CheckResult]:
    rng = Rng(seed).derive("net")
    config = NetConfig(
        in_channels=2, base_width=2, depths=2, se_reduction=4,
        ag_radius=2, ag_eps=0.05, dropout=0.0, patch_shape=(16, 16, 16),
    )
    params = build(config, rng.derive("params"))
    x = _rand(rng.derive("x"), (1, 16, 16, 16, 2))
    g = np.zeros((1, 16, 16, 16, 4))
    lbl = rng.derive("lbl").integers(0, 4, (1, 16, 16, 16))
    for cls in range(4):
        g[..., cls] = lbl == cls

    def loss_of(p_dict):
        lg = forward(x, p_dict, config)
        return dice_loss(lg.output, g)[0]

    lg = forward(x, params, config)
    loss, grad_p = dice_loss(lg.output, g)
    gx, grads = lg.backward(grad_p)

    sample_rng = rng.derive("sample")
    names = sorted(params)
    errs = []
    budget = 60
    per_name = max(1, budget // len(names))
    for name in names:
        arr = params[name]
        idx = random_sample_indices(sample_rng.derive(name), arr.size, per_name)

        def loss_at(v, _name=name):
            trial = dict(params)
            trial[_name] = v
            return loss_of(trial)

        numeric = numeric_grad(loss_at, arr, indices=idx, refine=True)
        errs.append(max_rel_err(grads[name], numeric))
    results = [CheckResult("net/parameter_sample", max(errs), 1e-4)]

    probe_idx = random_sample_indices(rng.derive("xidx"), x.size, 20)
    numeric_x = numeric_grad(
        lambda v: dice_loss(forward(v, params, config).output, g)[0],
        x,
        indices=probe_idx,
        refine=True,
    )
    results.append(CheckResult("net/input", max_rel_err(gx, numeric_x), 1e-4))
    return results


def check_loss(seed: int = 0) -> list[CheckResult]:
    rng = Rng(seed).derive("loss")
    results = []
    shape = (1, 4, 4, 4, 4)
    logits = _rand(rng.derive("logits"), shape) * 2.0
    lbl = rng.derive("lbl").integers(0, 4, shape[:4])
    g = np.zeros(shape)
    for cls in range(4):
        g[..., cls] = lbl == cls

    def loss_of(lv):
        probs = activation(lv, "softmax_channel").output
        return dice_loss(probs, g)[0]

    lg_soft = activation(logits, "softmax_channel")
    loss, grad_p = dice_loss(lg_soft.output, g)
    grad_logits, _ = lg_soft.backward(grad_p)
    numeric = numeric_grad(loss_of, logits)
    results.append(CheckResult("loss/grad_on_logits", max_rel_err(grad_logits, numeric), 1e-6))

    # closed-form gradient vs the composed backward, per class
    probs = lg_soft.output
    closed = dice_grad_closed_form(probs, g)
    w = np.asarray(CLASS_WEIGHTS)
    composed = dice_loss(probs, g)[1]
    recomposed = -(w / w.sum()) * closed
    err = float(np.abs(composed - recomposed).max())
    results.append(CheckResult("loss/closed_form_vs_composed", err, 1e-10))
    return results


SCOPES = {
    "layers": check_layers,
    "se": check_se,
    "ag": check_ag,
    "net": check_net,
    "loss": check_loss,
}


def run_checks(scope: str, seed: int = 0) -> list[CheckResult]:
    """The results of one scope of `SCOPES`, or of every scope for "all"."""
    if scope == "all":
        return [r for check in SCOPES.values() for r in check(seed)]
    if scope not in SCOPES:
        raise ValueError(f"unknown gradcheck scope {scope!r} (use {sorted(SCOPES)} or 'all')")
    return SCOPES[scope](seed)


# ---------------------------------------------------------------------------
# oracles of the gradcheck command


def dice_grad_closed_form(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Closed-form per-voxel gradient of the soft Dice score itself:

        dD_c/dp_j = 2 [ g_j (sum p^2 + sum g^2) - 2 p_j (sum p g) ]
                      / (sum p^2 + sum g^2)^2

    evaluated with the same smoothing in the denominator as the loss.
    Kept as an independent code path from `dice_loss` for cross-checks.
    """
    p, g = _check_pair(p, g)
    inter = (p * g).sum(axis=(0, 1, 2, 3))
    pp = (p * p).sum(axis=(0, 1, 2, 3))
    gg = (g * g).sum(axis=(0, 1, 2, 3))
    denom = pp + gg + SMOOTH
    grad = 2.0 * (g * denom - 2.0 * p * inter) / (denom * denom)
    return np.where(gg > 0.0, grad, 0.0)


def conv3d_oracle(x: np.ndarray, p: Conv3dParams) -> np.ndarray:
    """Direct zero-padded strided cross-correlation, one output voxel and
    kernel offset at a time: the oracle for conv3d_forward."""
    (s0, s1, s2), k = p.stride, p.kernel.shape[:3]
    out = [conv_output_extent(*v) for v in zip(x.shape[1:4], k, p.stride, p.padding)]
    xp = np.pad(x, ((0, 0), *((pd, pd) for pd in p.padding), (0, 0)))
    y = np.zeros((x.shape[0], *out, p.kernel.shape[4]))
    for b, z, h, w in np.ndindex(*y.shape[:4]):
        for a, bb, c in np.ndindex(*k):
            y[b, z, h, w] += xp[b, z * s0 + a, h * s1 + bb, w * s2 + c] @ p.kernel[a, bb, c]
    return y if p.bias is None else y + p.bias


def deconv3d_oracle(x: np.ndarray, p: Deconv3dParams) -> np.ndarray:
    """Direct transposed convolution: every input voxel scattered through
    every kernel offset, one at a time, with the padding cropped: the
    oracle for deconv3d_forward."""
    s, pad, k = p.stride, p.padding, p.kernel.shape[:3]
    out = [deconv_output_extent(*v) for v in zip(x.shape[1:4], k, s, pad, p.output_padding)]
    y = np.zeros((x.shape[0], *out, p.kernel.shape[3]))
    for b, i, j, m in np.ndindex(*x.shape[:4]):
        for a, bb, c in np.ndindex(*k):
            z, h, w = i * s[0] + a - pad[0], j * s[1] + bb - pad[1], m * s[2] + c - pad[2]
            if 0 <= z < out[0] and 0 <= h < out[1] and 0 <= w < out[2]:
                y[b, z, h, w] += p.kernel[a, bb, c] @ x[b, i, j, m]
    return y


def box_sum_oracle(x: np.ndarray, r: int) -> np.ndarray:
    """Naive O(n * window) clipped window sum."""
    n, z, h, w, c = x.shape
    out = np.zeros_like(x)
    for k in range(z):
        for i in range(h):
            for j in range(w):
                zs = slice(max(0, k - r), min(z, k + r + 1))
                hs = slice(max(0, i - r), min(h, i + r + 1))
                ws = slice(max(0, j - r), min(w, j + r + 1))
                out[:, k, i, j, :] = x[:, zs, hs, ws, :].sum(axis=(1, 2, 3))
    return out


def fit_oracle(i_vol: np.ndarray, o_vol: np.ndarray, t_vol: np.ndarray,
               r: int, eps: float):
    """Independent per-window 2x2 weighted normal-equations solve plus
    covering-window averaging by `box_sum_oracle`, on single-channel volumes.
    """
    z, h, w = i_vol.shape
    q = t_vol * t_vol
    q = q * (q.size / q.sum())
    a_win = np.zeros_like(i_vol)
    b_win = np.zeros_like(i_vol)
    for k in range(z):
        for i in range(h):
            for j in range(w):
                zs = slice(max(0, k - r), min(z, k + r + 1))
                hs = slice(max(0, i - r), min(h, i + r + 1))
                ws = slice(max(0, j - r), min(w, j + r + 1))
                qw = q[zs, hs, ws].ravel()
                iw = i_vol[zs, hs, ws].ravel()
                ow = o_vol[zs, hs, ws].ravel()
                s = qw.sum()
                if s < 1e-12:
                    a_win[k, i, j] = 0.0
                    b_win[k, i, j] = ow.mean()
                    continue
                count = qw.size
                mat = np.array(
                    [[(qw * iw * iw).sum() + eps * count, (qw * iw).sum()],
                     [(qw * iw).sum(), s]]
                )
                rhs = np.array([(qw * iw * ow).sum(), (qw * ow).sum()])
                a_win[k, i, j], b_win[k, i, j] = np.linalg.solve(mat, rhs)
    win = np.stack([a_win, b_win], axis=-1)[None]
    coeff = box_sum_oracle(win, r) / box_sum_oracle(np.ones_like(win), r)
    return coeff[0, ..., 0], coeff[0, ..., 1]
