"""Outside-in per-layer tracing of the agsevnet package.

The tracer replaces public functions of the package with timing wrappers
in every module that binds them, because a caller looks a function up in
its own module: `from .layers import conv3d_forward` binds the name into
both `network` and `ag`, so wrapping `layers.conv3d_forward` alone would
miss every call. Functions that return a `LayerGrad` get their backward
closure wrapped too, so backward passes are timed as their own spans.

A span records (name, phase, start, end, parent, work). Spans nest by
call order in this single-threaded program; a span's self time is its
duration minus the durations of its direct children. Nothing the program
computes is touched: wrappers pass arguments and results through
unchanged, so traced and untraced runs give bitwise-identical outputs.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "agsevnet"

# (defining module, function) -> span name
TRACED = {
    ("layers", "conv3d_forward"): "layers.conv3d",
    ("layers", "deconv3d_forward"): "layers.deconv3d",
    ("layers", "instance_norm"): "layers.instance_norm",
    ("layers", "activation"): "layers.activation",
    ("layers", "dropout"): "layers.dropout",
    ("layers", "dense"): "layers.dense",
    ("se", "se_forward"): "se.se_forward",
    ("ag", "ag_forward"): "ag.ag_forward",
    ("ag", "attention_map"): "ag.attention_map",
    ("ag", "box_sum"): "ag.box_sum",
    ("network", "forward"): "network.forward",
    ("network", "predict_labels"): "network.predict_labels",
    ("network", "save_checkpoint"): "network.save_checkpoint",
    ("network", "load_checkpoint"): "network.load_checkpoint",
    ("losses", "dice_loss"): "losses.dice_loss",
    ("losses", "hausdorff95"): "losses.hausdorff95",
    ("losses", "surface_voxels"): "losses.surface_voxels",
    ("losses", "confusion"): "losses.confusion",
    ("losses", "derive_regions"): "losses.derive_regions",
    ("train", "opt_step"): "train.opt_step",
    ("pipeline", "generate_phantom"): "pipeline.generate_phantom",
    ("pipeline", "save_case"): "pipeline.save_case",
    ("pipeline", "load_case"): "pipeline.load_case",
    ("pipeline", "preprocess_case"): "pipeline.preprocess_case",
    ("pipeline", "stitch_patches"): "pipeline.stitch_patches",
    ("npyio", "read_npy"): "npyio.read_npy",
    ("npyio", "write_npy"): "npyio.write_npy",
    ("infer", "predict_case"): "infer.predict_case",
    ("infer", "evaluate_dirs"): "infer.evaluate_dirs",
}

# Spans that are a whole benchmark op; their self time is harness-level
# glue, not a layer, so it is left out of the coverage share.
OP_ROOTS = ("infer.predict_case", "infer.evaluate_dirs")

MODULES = ("train", "infer", "network", "layers", "se", "ag", "losses", "pipeline", "npyio")


# ---------------------------------------------------------------------------
# work counts computed from array shapes (not measured)

def _conv_counts(x, kernel, y, transposed):
    """(flops, bytes) of one forward pass and one backward pass.

    A convolution multiplies every output voxel by the whole kernel; a
    transposed convolution scatters every input voxel through it. The
    backward computes both the input and the kernel gradient, twice the
    forward's multiply-adds. Bytes count each operand read or written once.
    """
    k_vox = kernel.shape[0] * kernel.shape[1] * kernel.shape[2]
    c_in_out = kernel.shape[3] * kernel.shape[4]
    anchor = x if transposed else y
    fwd_flops = 2 * anchor.shape[0] * int(np.prod(anchor.shape[1:4])) * k_vox * c_in_out
    fwd_bytes = 8 * (x.size + kernel.size + y.size)
    bwd_bytes = 8 * (y.size + x.size + kernel.size + x.size + kernel.size)
    return (
        {"flop": fwd_flops, "byte": fwd_bytes},
        {"flop": 2 * fwd_flops, "byte": bwd_bytes},
    )


def _conv_work(args, kwargs, result):
    return _conv_counts(args[0], args[1].kernel, result.output, transposed=False)


def _deconv_work(args, kwargs, result):
    return _conv_counts(args[0], args[1].kernel, result.output, transposed=True)


def _read_work(args, kwargs, result):
    return {"byte": result.nbytes}, None


def _write_work(args, kwargs, result):
    arr = args[1] if len(args) > 1 else kwargs["arr"]
    return {"byte": np.asarray(arr).nbytes}, None


WORK = {
    "layers.conv3d": _conv_work,
    "layers.deconv3d": _deconv_work,
    "npyio.read_npy": _read_work,
    "npyio.write_npy": _write_work,
}


class Tracer:
    """Installs and removes timing wrappers; records spans while installed.

    Create it after the package is importable. `spans` collects every
    span recorded since it was last emptied; the caller decides which
    bucket (an op, a set-up) the spans belong to by emptying it between.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        for mod in MODULES:
            importlib.import_module(f"{PACKAGE}.{mod}")
        self._layer_grad = importlib.import_module(f"{PACKAGE}.layers").LayerGrad
        self._originals = {}
        for (mod, fn), name in TRACED.items():
            self._originals[name] = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)
        self._wrappers = {name: self._wrap(name, f) for name, f in self._originals.items()}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        by_id = {id(f): name for name, f in self._originals.items()}
        for mod_name, module in sorted(sys.modules.items()):
            if not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and value is self._originals[name]:
                    setattr(module, attr, self._wrappers[name])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- span recording ----------------------------------------------------

    def _open(self, name: str, phase: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, phase, perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        work = WORK.get(name)
        layer_grad = self._layer_grad

        def traced(*args, **kwargs):
            idx = self._open(name, "fwd")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            bwd_work = None
            if work is not None:
                self.spans[idx][5], bwd_work = work(args, kwargs, result)
            if isinstance(result, layer_grad):
                result = result._replace(
                    backward=self._wrap_backward(name, result.backward, bwd_work)
                )
            return result

        return traced

    def _wrap_backward(self, name, backward, work):
        def traced_backward(*args, **kwargs):
            idx = self._open(name, "bwd")
            try:
                return backward(*args, **kwargs)
            finally:
                self._close(idx)
                self.spans[idx][5] = work

        return traced_backward


class Aggregate:
    """Per (span name, phase) self time, calls and work over span buckets."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(float)
        self.buckets = 0

    def add(self, spans) -> float:
        """Fold in one bucket of spans; returns the layer self time it
        holds (every span except op roots)."""
        covered = 0.0
        for (name, phase, _, _, _, work), own in zip(spans, self_times(spans)):
            self.self_s[name, phase] += own
            self.calls[name, phase] += 1
            for key, value in (work or {}).items():
                self.work[name, phase, key] += value
            if name not in OP_ROOTS:
                covered += own
        self.buckets += 1
        return covered

    def per_bucket(self, table, key) -> float:
        return table[key] / self.buckets if self.buckets else 0.0


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [(s[3] - s[2]) - c for s, c in zip(spans, child)]
