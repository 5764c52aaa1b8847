"""Full volumetric segmentation network.

Five encoder stages with squeeze-excite channel gating and four decoder
stages with attention-guided-filter skip fusion, assembled as one
recursive level: `_level(x, e)` runs stage e's stack of 3x3x3 convs and
its SE block; at the bottleneck (e = 5) it stops there. Otherwise it
runs a stride-2 conv that halves resolution and doubles width, recurses
into e + 1, deconvolves the result back to e's grid (`dec{5-e}.up`:
doubling resolution, halving width), fuses it with e's SE output (the
skip) through the AG filter, and refines with a decoder conv stack.
Every conv or deconv is followed by the same `_unit`: instance norm,
ReLU, dropout and a residual add when shapes agree (only the stacks'
same-shape convs); the norm cancels a bias, so they have none. The head,
a biased 1x1x1 convolution to 4 class channels, feeds a softmax.

All parameters live in one flat, deterministically ordered name -> array
dict; `forward` returns a LayerGrad whose backward produces the input
gradient and a gradient dict over those same names. A checkpoint writes
that dict as one flat `params.npy` plus a manifest (`save_params`).
"""

from __future__ import annotations

import hashlib
import math
import re
import shutil
from dataclasses import dataclass, fields, is_dataclass
from itertools import zip_longest
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .ag import AgParams, ag_forward
from .layers import (
    Conv3dParams,
    Deconv3dParams,
    DenseParams,
    LayerGrad,
    activation,
    conv3d_forward,
    deconv3d_forward,
    dropout,
    instance_norm,
    record,
)
from .losses import LABEL_VALUES
from .npyio import npy_header, parse_npy, read_file
from .rng import Rng
from .se import SeParams, effective_reduction, se_forward
from .tensor import DTYPE, ShapeError, as_tensor5

IN_EPS = 1e-5
STAGES = 5
HALVINGS = STAGES - 1
CHANNEL_TO_LABEL = np.array(LABEL_VALUES, dtype=np.uint8)


@dataclass
class NetConfig:
    in_channels: int = 4
    base_width: int = 16
    depths: int = 2  # convs per stage stack
    se_reduction: int = 4
    ag_radius: int = 16
    ag_eps: float = 0.01
    dropout: float = 0.5
    patch_shape: tuple[int, int, int] = (64, 128, 128)

    TITLE = "# network configuration"

    def __post_init__(self):
        self.patch_shape = tuple(int(v) for v in self.patch_shape)
        self.validate()

    def validate(self):
        check_finite_floats(self)
        if self.in_channels < 1:
            raise ValueError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.base_width < 1:
            raise ValueError(f"base_width must be >= 1, got {self.base_width}")
        if self.se_reduction < 1:
            raise ValueError(f"se_reduction must be >= 1, got {self.se_reduction}")
        if self.depths not in (2, 3):
            raise ValueError(f"depths must be 2 or 3, got {self.depths}")
        if len(self.patch_shape) != 3:
            raise ValueError(f"patch_shape must have 3 extents z,h,w, got {self.patch_shape}")
        if any(e < 1 or e % (2 ** HALVINGS) != 0 for e in self.patch_shape):
            raise ValueError(f"patch_shape extents must be positive and divisible by "
                             f"{2 ** HALVINGS}, got {self.patch_shape}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.ag_radius < 1 or self.ag_eps <= 0:
            raise ValueError("ag_radius must be >= 1 and ag_eps > 0")
        for e in range(1, STAGES + 1):
            effective_reduction(self.width(e), self.se_reduction)

    def width(self, stage: int) -> int:
        return self.base_width * 2 ** (stage - 1)


def check_finite_floats(config) -> None:
    """Reject a NaN or infinite value in any float field of a config."""
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, float) and not np.isfinite(v):
            raise ValueError(f"{f.name} must be finite, got {v}")


def config_to_text(config) -> str:
    """`key=value` lines of a config dataclass under its title line.

    Tuples are comma-joined. A nested config follows after a blank line
    as its own titled section, each key prefixed with the field name
    (`net.ag_eps=0.01`).
    """
    lines, sections = [config.TITLE], []
    for f in fields(config):
        v = getattr(config, f.name)
        if is_dataclass(v):
            sections.append("")
            for line in config_to_text(v).splitlines():
                sections.append(line if line.startswith("#") else f"{f.name}.{line}")
            continue
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    return "\n".join(lines + sections) + "\n"


def config_from_text(cls, text: str):
    """The `cls` config that `config_to_text` wrote as `text`: each value
    is parsed by its field's annotation; a key no field claims or given
    twice is an error.
    """
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    kv = {}
    for key, _, value in (line.partition("=") for line in lines if line):
        key = key.strip()
        if key in kv:
            raise ValueError(f"config key {key} is given twice")
        kv[key] = value.strip()
    config = _config_from_pairs(cls, kv, "")
    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")
    return config


def read_config(cls, path):
    """The `cls` config in the file at `path`; its errors name the file."""
    try:
        return config_from_text(cls, Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _config_from_pairs(cls, kv: dict[str, str], prefix: str):
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key, hint = prefix + f.name, hints[f.name]
        if is_dataclass(hint):
            kwargs[f.name] = _config_from_pairs(hint, kv, f"{key}.")
        elif key in kv:
            kwargs[f.name] = _parse_value(key, hint, kv.pop(key))
    return cls(**kwargs)


def _parse_value(key: str, hint, raw: str):
    """`raw` as a value of type `hint`; a ValueError names `key` and `raw`."""
    try:
        if get_origin(hint) is tuple:
            return tuple(get_args(hint)[0](v) for v in raw.split(","))
        return hint(raw)
    except ValueError as exc:
        raise ValueError(f"config key {key}: cannot parse {raw!r} ({exc})") from None


# ---------------------------------------------------------------------------
# parameter construction

# Each layout entry is (name, shape, init): init is a constant fill, or
# the `Rng.derive` path and the fan-in of a He draw (variance 2 / fan_in).

def _add_conv(layout, name, k, c_in, c_out, with_norm=True, transposed=False):
    shape = (k, k, k, c_out, c_in) if transposed else (k, k, k, c_in, c_out)
    layout.append((f"{name}.kernel", shape, ((name,), k ** 3 * c_in)))
    if with_norm:
        layout.append((f"{name}.gamma", (c_out,), 1.0))
        layout.append((f"{name}.beta", (c_out,), 0.0))
    else:  # only a conv with no norm has a bias: a norm's mean subtraction cancels one
        layout.append((f"{name}.bias", (c_out,), 0.0))


def _add_se(layout, name, channels, reduction):
    hidden = channels // effective_reduction(channels, reduction)
    layout.append((f"{name}.fc1.weight", (channels, hidden), ((name, "fc1"), channels)))
    layout.append((f"{name}.fc1.bias", (hidden,), 0.0))
    layout.append((f"{name}.fc2.weight", (hidden, channels), ((name, "fc2"), hidden)))
    layout.append((f"{name}.fc2.bias", (channels,), 0.0))


def _add_ag(layout, name, channels):
    for part, c_out in (("attn_o", channels), ("attn_i", channels), ("attn_gate", 1)):
        layout.append((f"{name}.{part}.kernel", (1, 1, 1, channels, c_out),
                       ((name, part), channels)))
        layout.append((f"{name}.{part}.bias", (c_out,), 0.0))


def param_layout(config: NetConfig) -> list[tuple[str, tuple[int, ...], object]]:
    """(name, shape, init) of every parameter of the configured network,
    in the order `build` creates them."""
    config.validate()
    layout = []
    for e in range(1, STAGES + 1):
        w = config.width(e)
        c_in = config.in_channels if e == 1 else w
        for j in range(config.depths):
            _add_conv(layout, f"enc{e}.conv{j}", 3, c_in if j == 0 else w, w)
        _add_se(layout, f"enc{e}.se", w, config.se_reduction)
        if e < STAGES:
            _add_conv(layout, f"enc{e}.down", 3, w, config.width(e + 1))
    for d in range(1, HALVINGS + 1):
        e = STAGES - d  # encoder stage whose skip this decoder consumes
        w = config.width(e)
        _add_conv(layout, f"dec{d}.up", 3, config.width(e + 1), w, transposed=True)
        _add_ag(layout, f"dec{d}.ag", w)
        for j in range(config.depths):
            _add_conv(layout, f"dec{d}.conv{j}", 3, w, w)
    _add_conv(layout, "head", 1, config.width(1), len(LABEL_VALUES), with_norm=False)
    return layout


def build(config: NetConfig, rng: Rng) -> dict[str, np.ndarray]:
    """Deterministic parameter tree for the configured network."""
    params: dict[str, np.ndarray] = {}
    for name, shape, init in param_layout(config):
        if isinstance(init, float):
            params[name] = np.full(shape, init, dtype=DTYPE)
            continue
        path, fan_in = init
        sub = rng
        for token in path:
            sub = sub.derive(token)
        params[name] = sub.normal(shape, scale=np.sqrt(2.0 / fan_in))
    return params


def _conv_params(params, name, stride=1):
    kernel = params[f"{name}.kernel"]
    return Conv3dParams(kernel, params.get(f"{name}.bias"), stride=stride,
                        padding=(kernel.shape[0] - 1) // 2)


def _se_params(params, name) -> SeParams:
    return SeParams(
        DenseParams(params[f"{name}.fc1.weight"], params[f"{name}.fc1.bias"]),
        DenseParams(params[f"{name}.fc2.weight"], params[f"{name}.fc2.bias"]),
    )


def _ag_params(params, name, config: NetConfig) -> AgParams:
    return AgParams(
        radius=config.ag_radius,
        eps=config.ag_eps,
        attn_o=_conv_params(params, f"{name}.attn_o"),
        attn_i=_conv_params(params, f"{name}.attn_i"),
        attn_gate=_conv_params(params, f"{name}.attn_gate"),
    )


# ---------------------------------------------------------------------------
# forward / backward
#
# Inner backward closures take the `grads` dict of the current
# `backward` call, record their parameter gradients in it and return
# only the input gradient.

def _norm(x, params, name):
    """Instance norm, bypassed on single-voxel grids.

    Normalizing a 1x1x1 slab would collapse it to the shift parameter
    (zero spatial variance), silencing the bottleneck of minimum-size
    configs; such slabs pass through unchanged, with no offset (the conv
    has no bias), and the norm parameters receive zero gradients.
    """
    if x.shape[1] == x.shape[2] == x.shape[3] == 1:
        zeros = {
            "gamma": np.zeros_like(params[f"{name}.gamma"]),
            "beta": np.zeros_like(params[f"{name}.beta"]),
        }
        return LayerGrad(x, lambda gy: (gy, dict(zeros)))
    return instance_norm(x, params[f"{name}.gamma"], params[f"{name}.beta"], IN_EPS)


def _take(lg: LayerGrad, grad: bool):
    """A layer's output and, when `grad` is on, its backward closure. The
    LayerGrad itself is not kept, so with grad off nothing holds the
    state the backward would have needed, and the backward closures
    built over the None are never called: `forward` returns one that
    raises instead.
    """
    return lg.output, (lg.backward if grad else None)


def _unit(x, conv, conv_p, params, name, drop_rate, rng, grad):
    """`conv` (conv3d_forward or deconv3d_forward with `conv_p`) of x ->
    instance norm -> relu -> dropout, plus a residual add of x when the
    shapes agree.
    """
    y, conv_bwd = _take(conv(x, conv_p), grad)
    y, norm_bwd = _take(_norm(y, params, name), grad)
    y, relu_bwd = _take(activation(y, "relu"), grad)
    y, drop_bwd = _take(dropout(y, drop_rate, rng), grad)
    residual = y.shape == x.shape
    y = y + x if residual else y

    def backward(gy, grads):
        g, _ = drop_bwd(gy)
        g, _ = relu_bwd(g)
        g = record(grads, name, norm_bwd(g))
        gx = record(grads, name, conv_bwd(g))
        return gx + gy if residual else gx

    return y, backward


def _stack(x, params, prefix, depths, drop_rate, rng, grad):
    backs = []
    for j in range(depths):
        name = f"{prefix}.conv{j}"
        x, bwd = _unit(x, conv3d_forward, _conv_params(params, name), params, name,
                       drop_rate, rng.derive(prefix, j), grad)
        backs.append(bwd)

    def backward(gy, grads):
        for bwd in reversed(backs):
            gy = bwd(gy, grads)
        return gy

    return x, backward


def _level(x, params, config: NetConfig, e, drop, rng, grad):
    """Stage e and every stage below it, returned on stage e's grid.

    Runs stage e's conv stack and SE block. Above the bottleneck it then
    runs the stride-2 down unit, the level below, the `dec{5-e}` up unit,
    the AG fusion with this stage's skip and the decoder stack.
    """
    y, enc_bwd = _stack(x, params, f"enc{e}", config.depths, drop, rng.derive("enc", e), grad)
    skip, se_bwd = _take(se_forward(y, _se_params(params, f"enc{e}.se")), grad)
    if e == STAGES:
        def bottom_backward(gy, grads):
            return enc_bwd(record(grads, f"enc{e}.se", se_bwd(gy)), grads)

        return skip, bottom_backward

    # the down and up units run at rate 0, which draws nothing
    down = f"enc{e}.down"
    y, down_bwd = _unit(skip, conv3d_forward, _conv_params(params, down, stride=2), params, down,
                        0.0, rng, grad)
    y, inner_bwd = _level(y, params, config, e + 1, drop, rng, grad)
    name = f"dec{STAGES - e}"
    up_p = Deconv3dParams(params[f"{name}.up.kernel"], stride=2, padding=1, output_padding=1)
    y, up_bwd = _unit(y, deconv3d_forward, up_p, params, f"{name}.up", 0.0, rng, grad)
    y, ag_bwd = _take(ag_forward(skip, y, _ag_params(params, f"{name}.ag", config)), grad)
    y, dec_bwd = _stack(y, params, name, config.depths, drop, rng.derive("dec", STAGES - e), grad)

    def backward(gy, grads):
        gi, go = record(grads, f"{name}.ag", ag_bwd(dec_bwd(gy, grads)))
        g = down_bwd(inner_bwd(up_bwd(go, grads), grads), grads)
        g = record(grads, f"enc{e}.se", se_bwd(g + gi))  # the skip's two gradients meet
        return enc_bwd(g, grads)

    return y, backward


def _no_backward(g_probs):
    raise RuntimeError("this forward ran with grad=False and kept no backward state")


def forward(x: np.ndarray, params: dict[str, np.ndarray], config: NetConfig,
            rng: Rng | None = None, grad: bool = True) -> LayerGrad:
    """Per-voxel class probabilities for a (n, z, h, w, in_channels) batch.

    backward(g_probs) returns (g_input, grads) with grads keyed by the
    flat parameter names from `build`. Dropout runs at `config.dropout`
    exactly when `rng`, the stream its masks draw from, is given. With
    `grad` false each layer's backward state is dropped as soon as its
    output is taken, which cuts the peak memory to 31-42% of a grad
    forward's (16^3 and 32^3, widths 2 to 8), and backward raises.
    """
    x = as_tensor5(x, "network input")
    if x.shape[1:4] != config.patch_shape or x.shape[4] != config.in_channels:
        raise ShapeError(
            f"network input shape {x.shape[1:]} does not match configured "
            f"{(*config.patch_shape, config.in_channels)}"
        )
    drop = 0.0 if rng is None else config.dropout
    rng = Rng(0) if rng is None else rng  # at rate 0 nothing draws from it

    y, level_bwd = _level(x, params, config, 1, drop, rng, grad)
    y, head_bwd = _take(conv3d_forward(y, _conv_params(params, "head")), grad)
    probs, soft_bwd = _take(activation(y, "softmax_channel"), grad)
    if not grad:
        return LayerGrad(probs, _no_backward)

    def backward(g_probs):
        grads: dict[str, np.ndarray] = {}
        g, _ = soft_bwd(np.asarray(g_probs, dtype=DTYPE))
        g = record(grads, "head", head_bwd(g))
        return level_bwd(g, grads), grads

    return LayerGrad(probs, backward)


def predict_labels(probs: np.ndarray) -> np.ndarray:
    """Per-voxel argmax mapped back to the {0,1,2,4} label alphabet.

    Ties resolve toward the lower channel index.
    """
    probs = as_tensor5(probs, "probabilities")
    if probs.shape[4] != len(LABEL_VALUES):
        raise ShapeError(f"predict_labels expects {len(LABEL_VALUES)} channels, "
                         f"got {probs.shape[4]}")
    return CHANNEL_TO_LABEL[np.argmax(probs, axis=4)]


# ---------------------------------------------------------------------------
# parameter serialization: one flat .npy of every tensor plus a plain-text manifest

MANIFEST_NAME = "manifest.txt"
PARAMS_NAME = "params.npy"


def save_params(directory, params: dict[str, np.ndarray]) -> None:
    """Write the named arrays, in dict order, as one 1-D float64
    `params.npy` plus a manifest with a `name=… shape=…` line per array
    and a last `sha256=…` line holding the file's digest. The digest is
    taken from the bytes as they are written, so nothing is read back or
    concatenated. Reload is bit-exact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {name: np.asarray(arr, dtype=DTYPE, order="C") for name, arr in params.items()}
    total = sum(arr.size for arr in arrays.values())
    digest = hashlib.sha256()
    with open(directory / PARAMS_NAME, "wb") as fh:
        for chunk in (npy_header("<f8", (total,)), *arrays.values()):
            fh.write(chunk)
            digest.update(chunk)
    lines = [f"name={name} shape={'x'.join(map(str, arr.shape))}" for name, arr in arrays.items()]
    lines.append(f"sha256={digest.hexdigest()}")
    (directory / MANIFEST_NAME).write_text("\n".join(lines) + "\n")


def _read_manifest(directory: Path) -> tuple[dict[str, tuple[int, ...]], str]:
    """The name -> shape entries and the digest that `save_params` wrote
    to the manifest of `directory`; any other content raises ValueError
    naming the manifest."""
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise FileNotFoundError(f"no parameter manifest at {manifest}")
    *lines, last = manifest.read_text().splitlines() or [""]
    digest = re.fullmatch(r"sha256=([0-9a-f]{64})", last)
    if digest is None:
        raise ValueError(f"{manifest}: last line {last!r} is not sha256=<64 hex digits>")
    layout = {}
    for number, line in enumerate(lines, 1):
        entry = re.fullmatch(r"name=(\S+) shape=((?:[0-9]+x)*[0-9]+)?", line)
        if entry is None:
            raise ValueError(f"{manifest}: line {number}: expected name=… shape=…, "
                             f"got {line!r}")
        if entry[1] in layout:
            raise ValueError(f"{manifest}: line {number}: duplicate name {entry[1]!r}")
        layout[entry[1]] = tuple(int(d) for d in entry[2].split("x")) if entry[2] else ()
    return layout, digest[1]


def load_params(directory) -> dict[str, np.ndarray]:
    """The arrays `save_params` wrote to `directory`, as views of one
    array read from `params.npy` in one pass. A digest, shape or value
    count that disagrees with the manifest raises ValueError naming the
    file."""
    directory = Path(directory)
    layout, want = _read_manifest(directory)
    path = directory / PARAMS_NAME
    data = read_file(path)
    digest = hashlib.sha256(data).hexdigest()
    if digest != want:
        raise ValueError(f"{path}: SHA-256 {digest} does not match the manifest's {want}")
    flat = parse_npy(data, path)
    total = sum(math.prod(shape) for shape in layout.values())
    if flat.dtype != DTYPE or flat.shape != (total,):
        raise ValueError(f"{path}: holds {flat.dtype} of shape {flat.shape}, the manifest "
                         f"lists {total} float64 values")
    params, start = {}, 0
    for name, shape in layout.items():
        end = start + math.prod(shape)
        params[name] = flat[start:end].reshape(shape)
        start = end
    return params


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(directory, params: dict[str, np.ndarray], config: NetConfig,
                    step: int, extra: dict[str, np.ndarray] | None = None,
                    texts: dict[str, str] | None = None) -> None:
    """Parameter directory + config text + step counter; reload resumes
    bitwise-identically. `extra` carries optimizer state arrays and
    `texts` maps further file names to their content, such as a
    trainer's own records. The files go to a sibling `<name>.tmp`
    directory that then replaces `directory`, so a save cut short leaves
    the previous checkpoint whole or, between the two renames, no
    `directory` but its `.old` and `.tmp` siblings.
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
    for name, text in (texts or {}).items():
        (tmp / name).write_text(text)
    (tmp / "step.txt").write_text(f"{step}\n")
    if directory.exists():
        directory.rename(old)
    tmp.rename(directory)
    if old.exists():
        shutil.rmtree(old)


def load_checkpoint(directory):
    """(params, config, step, extra) that `save_checkpoint` wrote. The
    parameter names and shapes must be the ones `build` makes for the
    stored config; a checkpoint that differs raises ValueError naming it
    and the first parameter that differs, and so does one whose tensors,
    optimizer moments included, hold a NaN or infinite value, or whose
    config.txt holds `num_classes` (written before the bias removal)."""
    directory = Path(directory)
    left = [f"{directory}{ext}" for ext in (".tmp", ".old") if Path(f"{directory}{ext}").exists()]
    if not directory.exists():
        raise FileNotFoundError(f"no checkpoint at {directory}" + (
            f": a save was cut short and left {' and '.join(left)}" if left else ""))
    if "\nnum_classes=" in (directory / "config.txt").read_text():
        raise ValueError(f"checkpoint {directory} predates the bias removal (its config.txt holds "
                         f"num_classes=), so its layout is no longer read; train a new one")
    config = read_config(NetConfig, directory / "config.txt")
    blob = load_params(directory)
    for name, arr in blob.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint {directory}: tensor {name} holds a NaN or infinite value")
    params = {k: v for k, v in blob.items() if not k.startswith("opt.")}
    extra = {k[len("opt."):]: v for k, v in blob.items() if k.startswith("opt.")}
    want = [f"{name} {shape}" for name, shape, _ in param_layout(config)]
    got = [f"{name} {arr.shape}" for name, arr in params.items()]
    for found, built in zip_longest(got, want, fillvalue="nothing"):
        if found != built:
            raise ValueError(f"checkpoint {directory} holds {found} where the network of its "
                             f"config.txt has {built}")
    step_file = directory / "step.txt"
    text = step_file.read_text()
    if not re.fullmatch(r"[0-9]+\n?", text):
        raise ValueError(f"{step_file}: step {text!r} is not a non-negative integer")
    return params, config, int(text), extra
