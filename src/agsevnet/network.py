"""Full volumetric segmentation network.

Five encoder stages with squeeze-excite channel gating and four decoder
stages with attention-guided-filter skip fusion. Each encoder stage is
a stack of 3x3x3 convolutions (instance norm, ReLU, dropout, residual
adds between same-shape neighbors), an SE block, and, for the first
four stages, a stride-2 convolution that halves resolution and doubles
width. Each decoder stage deconvolves the deeper feature back up
(doubling resolution, halving width), fuses it with the matching
encoder skip through the AG filter, and refines with a conv stack. The
head is a 1x1x1 convolution to 4 class channels followed by a softmax
over channels.

All parameters live in one flat, deterministically ordered name -> array
dict; `forward` returns a LayerGrad whose backward produces the input
gradient and a gradient dict over those same names.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .ag import AgParams, ag_forward
from .layers import (
    Conv3dParams,
    Deconv3dParams,
    LayerGrad,
    activation,
    conv3d_forward,
    deconv3d_forward,
    dropout,
    he_conv_kernel,
    he_deconv_kernel,
    he_dense_weight,
    instance_norm,
    load_params,
    save_params,
)
from .rng import Rng
from .se import SeParams, effective_reduction, se_forward
from .tensor import DTYPE, ShapeError, as_tensor5

IN_EPS = 1e-5
STAGES = 5
HALVINGS = 4
CHANNEL_TO_LABEL = np.array([0, 1, 2, 4], dtype=np.uint8)


@dataclass
class NetConfig:
    in_channels: int = 4
    num_classes: int = 4
    base_width: int = 16
    depths: int = 2  # convs per stage stack
    se_reduction: int = 4
    ag_radius: int = 16
    ag_eps: float = 0.01
    dropout: float = 0.5
    patch_shape: tuple[int, int, int] = (64, 128, 128)

    def __post_init__(self):
        self.patch_shape = tuple(int(v) for v in self.patch_shape)
        self.validate()

    def validate(self):
        if self.num_classes != 4:
            raise ValueError(f"num_classes must be 4, got {self.num_classes}")
        if self.in_channels < 1:
            raise ValueError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.base_width < 1:
            raise ValueError(f"base_width must be >= 1, got {self.base_width}")
        if self.depths not in (2, 3):
            raise ValueError(f"depths must be 2 or 3, got {self.depths}")
        if any(e % (2 ** HALVINGS) != 0 for e in self.patch_shape):
            raise ValueError(
                f"patch extents must be divisible by {2 ** HALVINGS}, got {self.patch_shape}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.ag_radius < 1 or self.ag_eps <= 0:
            raise ValueError("ag_radius must be >= 1 and ag_eps > 0")
        for e in range(1, STAGES + 1):
            effective_reduction(self.width(e), self.se_reduction)

    def width(self, stage: int) -> int:
        return self.base_width * 2 ** (stage - 1)


def config_to_text(config: NetConfig) -> str:
    lines = ["# network configuration"]
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


_CONFIG_FLOAT_FIELDS = {"ag_eps", "dropout"}


def config_from_text(text: str) -> NetConfig:
    kv = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    kwargs = {}
    for f in fields(NetConfig):
        if f.name not in kv:
            continue
        raw = kv.pop(f.name)
        if f.name == "patch_shape":
            kwargs[f.name] = tuple(int(v) for v in raw.split(","))
        elif f.name in _CONFIG_FLOAT_FIELDS:
            kwargs[f.name] = float(raw)
        else:
            kwargs[f.name] = int(raw)
    if kv:
        raise ValueError(f"unknown network config keys: {sorted(kv)}")
    return NetConfig(**kwargs)


# ---------------------------------------------------------------------------
# parameter construction

def _add_conv(params, rng, name, k, c_in, c_out, with_norm=True):
    sub = rng.derive(name)
    params[f"{name}.kernel"] = he_conv_kernel(sub, k, k, k, c_in, c_out)
    params[f"{name}.bias"] = np.zeros(c_out, dtype=DTYPE)
    if with_norm:
        params[f"{name}.gamma"] = np.ones(c_out, dtype=DTYPE)
        params[f"{name}.beta"] = np.zeros(c_out, dtype=DTYPE)


def _add_deconv(params, rng, name, k, c_in, c_out):
    sub = rng.derive(name)
    params[f"{name}.kernel"] = he_deconv_kernel(sub, k, k, k, c_out, c_in)
    params[f"{name}.bias"] = np.zeros(c_out, dtype=DTYPE)
    params[f"{name}.gamma"] = np.ones(c_out, dtype=DTYPE)
    params[f"{name}.beta"] = np.zeros(c_out, dtype=DTYPE)


def _add_se(params, rng, name, channels, reduction):
    m = effective_reduction(channels, reduction)
    hidden = channels // m
    sub = rng.derive(name)
    params[f"{name}.fc1.weight"] = he_dense_weight(sub.derive("fc1"), channels, hidden)
    params[f"{name}.fc1.bias"] = np.zeros(hidden, dtype=DTYPE)
    params[f"{name}.fc2.weight"] = he_dense_weight(sub.derive("fc2"), hidden, channels)
    params[f"{name}.fc2.bias"] = np.zeros(channels, dtype=DTYPE)


def _add_ag(params, rng, name, channels):
    sub = rng.derive(name)
    for part, (c_in, c_out) in (
        ("attn_o", (channels, channels)),
        ("attn_i", (channels, channels)),
        ("attn_gate", (channels, 1)),
    ):
        params[f"{name}.{part}.kernel"] = he_conv_kernel(sub.derive(part), 1, 1, 1, c_in, c_out)
        params[f"{name}.{part}.bias"] = np.zeros(c_out, dtype=DTYPE)


def build(config: NetConfig, rng: Rng) -> dict[str, np.ndarray]:
    """Deterministic parameter tree for the configured network."""
    config.validate()
    params: dict[str, np.ndarray] = {}
    for e in range(1, STAGES + 1):
        w = config.width(e)
        c_in = config.in_channels if e == 1 else w
        for j in range(config.depths):
            _add_conv(params, rng, f"enc{e}.conv{j}", 3, c_in if j == 0 else w, w)
        _add_se(params, rng, f"enc{e}.se", w, config.se_reduction)
        if e < STAGES:
            _add_conv(params, rng, f"enc{e}.down", 3, w, config.width(e + 1))
    for d in range(1, HALVINGS + 1):
        e = STAGES - d  # encoder stage whose skip this decoder consumes
        w = config.width(e)
        _add_deconv(params, rng, f"dec{d}.up", 3, config.width(e + 1), w)
        _add_ag(params, rng, f"dec{d}.ag", w)
        for j in range(config.depths):
            _add_conv(params, rng, f"dec{d}.conv{j}", 3, w, w)
    _add_conv(params, rng, "head", 1, config.width(1), config.num_classes, with_norm=False)
    return params


def _conv_params(params, name, stride=1, padding=None, k=3):
    if padding is None:
        padding = (k - 1) // 2
    return Conv3dParams(
        params[f"{name}.kernel"], params[f"{name}.bias"], stride=stride, padding=padding
    )


def _se_params(params, name, reduction) -> SeParams:
    from .layers import DenseParams

    return SeParams(
        reduction,
        DenseParams(params[f"{name}.fc1.weight"], params[f"{name}.fc1.bias"]),
        DenseParams(params[f"{name}.fc2.weight"], params[f"{name}.fc2.bias"]),
    )


def _ag_params(params, name, config: NetConfig) -> AgParams:
    def conv1(part):
        return Conv3dParams(params[f"{name}.{part}.kernel"], params[f"{name}.{part}.bias"])

    return AgParams(
        radius=config.ag_radius,
        eps=config.ag_eps,
        attn_o=conv1("attn_o"),
        attn_i=conv1("attn_i"),
        attn_gate=conv1("attn_gate"),
    )


def _merge(total: dict, part: dict, prefix: str = ""):
    for key, val in part.items():
        name = prefix + key
        if name in total:
            total[name] = total[name] + val
        else:
            total[name] = val


# ---------------------------------------------------------------------------
# forward / backward

def _norm(x, params, name):
    """Instance norm, bypassed on single-voxel grids.

    Normalizing a 1x1x1 slab would collapse it to the shift parameter
    (zero spatial variance), silencing the bottleneck of minimum-size
    configs; such slabs pass through unchanged and the norm parameters
    receive zero gradients.
    """
    if x.shape[1] == x.shape[2] == x.shape[3] == 1:
        zeros = {
            "gamma": np.zeros_like(params[f"{name}.gamma"]),
            "beta": np.zeros_like(params[f"{name}.beta"]),
        }
        return LayerGrad(x, lambda gy: (gy, dict(zeros)))
    return instance_norm(x, params[f"{name}.gamma"], params[f"{name}.beta"], IN_EPS)


def _conv_unit(x, params, name, drop_rate, training, rng, stride=1):
    """conv -> instance norm -> relu -> dropout, plus a residual add when
    the shapes agree. Returns (y, backward) with backward(gy) -> (gx, grads).
    """
    lg_c = conv3d_forward(x, _conv_params(params, name, stride=stride))
    lg_n = _norm(lg_c.output, params, name)
    lg_r = activation(lg_n.output, "relu")
    lg_d = dropout(lg_r.output, drop_rate, rng, training)
    residual = lg_d.output.shape == x.shape
    y = lg_d.output + x if residual else lg_d.output

    def backward(gy):
        gd, _ = lg_d.backward(gy)
        gr, _ = lg_r.backward(gd)
        gn, ng = lg_n.backward(gr)
        gx, cg = lg_c.backward(gn)
        if residual:
            gx = gx + gy
        grads = {
            f"{name}.kernel": cg["kernel"],
            f"{name}.bias": cg["bias"],
            f"{name}.gamma": ng["gamma"],
            f"{name}.beta": ng["beta"],
        }
        return gx, grads

    return y, backward


def _conv_stack(x, params, prefix, depths, drop_rate, training, rng):
    backs = []
    y = x
    for j in range(depths):
        y, bwd = _conv_unit(
            y, params, f"{prefix}.conv{j}", drop_rate, training, rng.derive(prefix, j)
        )
        backs.append(bwd)

    def backward(gy):
        grads: dict[str, np.ndarray] = {}
        g = gy
        for bwd in reversed(backs):
            g, part = bwd(g)
            _merge(grads, part)
        return g, grads

    return y, backward


def forward(x: np.ndarray, params: dict[str, np.ndarray], config: NetConfig,
            training: bool = False, rng: Rng | None = None) -> LayerGrad:
    """Per-voxel class probabilities for a (n, z, h, w, in_channels) batch.

    backward(g_probs) returns (g_input, grads) with grads keyed by the
    flat parameter names from `build`. Dropout is active only when
    `training` is true, in which case `rng` must be supplied.
    """
    x = as_tensor5(x, "network input")
    if x.shape[1:4] != config.patch_shape or x.shape[4] != config.in_channels:
        raise ShapeError(
            f"network input shape {x.shape[1:]} does not match configured "
            f"{(*config.patch_shape, config.in_channels)}"
        )
    if training and rng is None:
        raise ValueError("training forward needs an rng for dropout")
    if rng is None:
        rng = Rng(0)
    drop = config.dropout if training else 0.0

    skips = {}
    skip_backs = {}
    down_backs = {}
    y = x
    for e in range(1, STAGES + 1):
        y, stack_bwd = _conv_stack(
            y, params, f"enc{e}", config.depths, drop, training, rng.derive("enc", e)
        )
        lg_se = se_forward(y, _se_params(params, f"enc{e}.se", config.se_reduction))
        skips[e] = lg_se.output
        skip_backs[e] = (stack_bwd, lg_se.backward)
        if e < STAGES:
            y, down_bwd = _conv_unit(
                lg_se.output,
                params,
                f"enc{e}.down",
                0.0,
                training,
                rng.derive("down", e),
                stride=2,
            )
            down_backs[e] = down_bwd
        else:
            y = lg_se.output

    dec_backs = []
    for d in range(1, HALVINGS + 1):
        e = STAGES - d
        name = f"dec{d}"
        up = Deconv3dParams(
            params[f"{name}.up.kernel"],
            params[f"{name}.up.bias"],
            stride=2,
            padding=1,
            output_padding=1,
        )
        lg_up = deconv3d_forward(y, up)
        lg_un = _norm(lg_up.output, params, f"{name}.up")
        lg_ur = activation(lg_un.output, "relu")
        lg_ag = ag_forward(skips[e], lg_ur.output, _ag_params(params, f"{name}.ag", config))
        y, stack_bwd = _conv_stack(
            lg_ag.output, params, name, config.depths, drop, training, rng.derive("dec", d)
        )
        dec_backs.append((d, e, name, lg_up, lg_un, lg_ur, lg_ag, stack_bwd))

    lg_head = conv3d_forward(y, _conv_params(params, "head", k=1))
    lg_soft = activation(lg_head.output, "softmax_channel")

    def backward(g_probs):
        grads: dict[str, np.ndarray] = {}
        g, _ = lg_soft.backward(np.asarray(g_probs, dtype=DTYPE))
        g, head_grads = lg_head.backward(g)
        _merge(grads, head_grads, "head.")
        g_skip = {e: None for e in range(1, STAGES)}
        for d, e, name, lg_up, lg_un, lg_ur, lg_ag, stack_bwd in reversed(dec_backs):
            g, part = stack_bwd(g)
            _merge(grads, part)
            (gi, go), ag_grads = lg_ag.backward(g)
            _merge(grads, ag_grads, f"{name}.ag.")
            g_skip[e] = gi if g_skip[e] is None else g_skip[e] + gi
            gu, _ = lg_ur.backward(go)
            gu, n_grads = lg_un.backward(gu)
            _merge(grads, {f"{name}.up.gamma": n_grads["gamma"], f"{name}.up.beta": n_grads["beta"]})
            g, up_grads = lg_up.backward(gu)
            _merge(grads, {f"{name}.up.kernel": up_grads["kernel"], f"{name}.up.bias": up_grads["bias"]})
        for e in range(STAGES, 0, -1):
            stack_bwd, se_bwd = skip_backs[e]
            if e == STAGES:
                g_se_out = g
            else:
                g_down_in, down_grads = down_backs[e](g)
                _merge(grads, down_grads)
                g_se_out = g_down_in + (g_skip[e] if g_skip[e] is not None else 0.0)
            g_stack_out, se_grads = se_bwd(g_se_out)
            _merge(grads, se_grads, f"enc{e}.se.")
            g, stack_grads = stack_bwd(g_stack_out)
            _merge(grads, stack_grads)
        return g, grads

    return LayerGrad(lg_soft.output, backward)


def predict_labels(probs: np.ndarray) -> np.ndarray:
    """Per-voxel argmax mapped back to the {0,1,2,4} label alphabet.

    Ties resolve toward the lower channel index.
    """
    probs = as_tensor5(probs, "probabilities")
    if probs.shape[4] != 4:
        raise ShapeError(f"predict_labels expects 4 channels, got {probs.shape[4]}")
    return CHANNEL_TO_LABEL[np.argmax(probs, axis=4)]


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(directory, params: dict[str, np.ndarray], config: NetConfig,
                    step: int, extra: dict[str, np.ndarray] | None = None) -> None:
    """Parameter directory + config text + step counter; reload resumes
    bitwise-identically. `extra` carries optimizer state arrays. The files
    go to a sibling `<name>.tmp` directory that then replaces `directory`,
    so a save cut short leaves the previous checkpoint whole.
    """
    directory = Path(directory)
    tmp, old = (directory.with_name(directory.name + ext) for ext in (".tmp", ".old"))
    for stale in (tmp, old):
        if stale.exists():
            shutil.rmtree(stale)
    blob = dict(params)
    for key, val in (extra or {}).items():
        blob[f"opt.{key}"] = val
    save_params(tmp, blob)
    (tmp / "config.txt").write_text(config_to_text(config))
    (tmp / "step.txt").write_text(f"{step}\n")
    if directory.exists():
        directory.rename(old)
    tmp.rename(directory)
    if old.exists():
        shutil.rmtree(old)


def load_checkpoint(directory):
    directory = Path(directory)
    blob = load_params(directory)
    params = {k: v for k, v in blob.items() if not k.startswith("opt.")}
    extra = {k[len("opt."):]: v for k, v in blob.items() if k.startswith("opt.")}
    config = config_from_text((directory / "config.txt").read_text())
    step = int((directory / "step.txt").read_text().strip())
    return params, config, step, extra
