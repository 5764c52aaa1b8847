"""Metric definitions and their computation from one benchmark run.

End-to-end metrics come from untraced ops. Per-layer metrics come from
the traced ops of a traced run: self seconds, calls and computed work
counts per op, except the set-up layers, which are per set-up.
"""

from __future__ import annotations

import os
import platform
import statistics
import threading
from pathlib import Path

import numpy as np

END_TO_END = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("vox_per_s", "vox/s"),
    ("peak_rss_mib", "MiB"),
]


def _self(span, *phases, per="op"):
    return ("self", span, phases, per)


def _calls(span):
    return ("calls", span)


def _work(span, phases, key, scale):
    return ("work", span, phases, key, scale)


def _conv_metrics(layer):
    span = f"layers.{layer}"
    return [
        (f"{span}.fwd_s", "s", _self(span, "fwd")),
        (f"{span}.bwd_s", "s", _self(span, "bwd")),
        (f"{span}.calls", "count", _calls(span)),
        (f"{span}.gflop", "GFLOP", _work(span, ("fwd", "bwd"), "flop", 1e-9)),
        (f"{span}.fwd_gflop", "GFLOP", _work(span, ("fwd",), "flop", 1e-9)),
        (f"{span}.bwd_gflop", "GFLOP", _work(span, ("bwd",), "flop", 1e-9)),
        (f"{span}.fwd_mb", "MB", _work(span, ("fwd",), "byte", 1e-6)),
        (f"{span}.bwd_mb", "MB", _work(span, ("bwd",), "byte", 1e-6)),
    ]


BOTH = ("fwd", "bwd")

PER_LAYER = _conv_metrics("conv3d") + _conv_metrics("deconv3d") + [
    ("layers.instance_norm.fwd_s", "s", _self("layers.instance_norm", "fwd")),
    ("layers.instance_norm.bwd_s", "s", _self("layers.instance_norm", "bwd")),
    ("se.se_forward.fwd_s", "s", _self("se.se_forward", "fwd")),
    ("se.se_forward.bwd_s", "s", _self("se.se_forward", "bwd")),
    ("layers.activation.s", "s", _self("layers.activation", *BOTH)),
    ("layers.dropout.s", "s", _self("layers.dropout", *BOTH)),
    ("layers.dense.s", "s", _self("layers.dense", *BOTH)),
    ("ag.ag_forward.self_fwd_s", "s", _self("ag.ag_forward", "fwd")),
    ("ag.ag_forward.self_bwd_s", "s", _self("ag.ag_forward", "bwd")),
    ("ag.attention_map.fwd_s", "s", _self("ag.attention_map", "fwd")),
    ("ag.attention_map.bwd_s", "s", _self("ag.attention_map", "bwd")),
    ("ag.box_sum.s", "s", _self("ag.box_sum", "fwd")),
    ("ag.box_sum.calls", "count", _calls("ag.box_sum")),
    ("network.forward.self_s", "s", _self("network.forward", *BOTH)),
    ("losses.dice_loss.s", "s", _self("losses.dice_loss", "fwd")),
    ("train.opt_step.s", "s", _self("train.opt_step", "fwd")),
    ("network.save_checkpoint.s", "s", _self("network.save_checkpoint", "fwd")),
    ("npyio.write_npy.s", "s", _self("npyio.write_npy", "fwd")),
    ("npyio.write_npy.bytes", "B", _work("npyio.write_npy", ("fwd",), "byte", 1.0)),
    ("network.load_checkpoint.s", "s", _self("network.load_checkpoint", "fwd", per="setup")),
    ("pipeline.generate_phantom.s", "s", _self("pipeline.generate_phantom", "fwd", per="setup")),
    ("pipeline.load_case.s", "s", _self("pipeline.load_case", "fwd")),
    ("pipeline.preprocess_case.s", "s", _self("pipeline.preprocess_case", "fwd")),
    ("pipeline.stitch_patches.s", "s", _self("pipeline.stitch_patches", "fwd")),
    ("network.predict_labels.s", "s", _self("network.predict_labels", "fwd")),
    ("npyio.read_npy.s", "s", _self("npyio.read_npy", "fwd")),
    ("npyio.read_npy.bytes", "B", _work("npyio.read_npy", ("fwd",), "byte", 1.0)),
    ("losses.hausdorff95.s", "s", _self("losses.hausdorff95", "fwd")),
    ("losses.hausdorff95.surface_pairs", "count", ("given", "surface_pairs")),
    ("losses.surface_voxels.s", "s", _self("losses.surface_voxels", "fwd")),
    ("losses.confusion.s", "s", _self("losses.confusion", "fwd")),
    ("losses.derive_regions.s", "s", _self("losses.derive_regions", "fwd")),
    ("trace.coverage", "ratio", ("given", "coverage")),
    ("trace.op_s_p50", "s", ("given", "traced_p50")),
    ("trace.overhead_s", "s", ("given", "overhead_s")),
    ("trace.ops", "count", ("given", "traced_ops")),
]


def per_layer_values(op_agg, setup_agg, given: dict) -> dict[str, tuple[float, str]]:
    out = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "self":
            _, span, phases, per = source
            agg = setup_agg if per == "setup" else op_agg
            value = sum(agg.per_bucket(agg.self_s, (span, p)) for p in phases)
        elif kind == "calls":
            value = op_agg.per_bucket(op_agg.calls, (source[1], "fwd"))
        elif kind == "work":
            _, span, phases, key, scale = source
            value = scale * sum(op_agg.per_bucket(op_agg.work, (span, p, key)) for p in phases)
        else:
            value = given.get(source[1], 0.0)
        out[name] = (float(value), unit)
    return out


def tail(latencies: list[float]):
    """(value, percentile, count beyond) at the highest percentile that
    leaves at least 10 samples beyond it, or None with 10 or fewer."""
    n = len(latencies)
    if n <= 10:
        return None
    ordered = sorted(latencies)
    k = n - 11  # ordered[k] has exactly 10 samples above it
    return ordered[k], 100.0 * (k + 1) / n, 10


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mib() -> float:
    """High-water resident memory of the whole process so far."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


RSS_SAMPLE_S = 0.005


class RssSampler:
    """Highest resident memory seen while in the `with` block, sampled from
    /proc/self/statm every RSS_SAMPLE_S seconds by a background thread.

    The process high-water mark cannot be reset from user space without
    writing under /proc, and set-up (phantom generation at 128^3) peaks
    about as high as evaluation does, so the timed phase is sampled alone.
    Peaks shorter than the interval can be missed.
    """

    def __init__(self):
        self.peak_pages = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _resident_pages() -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1])

    def _loop(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            self.peak_pages = max(self.peak_pages, self._resident_pages())

    def __enter__(self):
        self.peak_pages = self._resident_pages()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_pages = max(self.peak_pages, self._resident_pages())
        return False

    @property
    def peak_mib(self) -> float:
        return self.peak_pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def environment(src: Path) -> dict:
    """Machine and build facts recorded with each result (not gated)."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    thread_vars = {
        k: v for k, v in sorted(os.environ.items())
        if k.endswith("_NUM_THREADS") or k in ("OMP_DYNAMIC", "OPENBLAS_CORETYPE")
    }
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": thread_vars,
        "src_lines": src_lines,
        "platform": platform.platform(),
    }
