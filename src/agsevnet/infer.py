"""Patch-wise inference and case-level evaluation."""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .losses import format_report, region_rows
from .network import NetConfig, forward, predict_labels
from .npyio import read_npy, write_npy
from .pipeline import (
    LABEL_FILE,
    PatchSpec,
    check_coverage,
    cut_patch,
    list_cases,
    load_case,
    load_labels,
    patch_starts,
    preprocess_case,
    stitch_patches,
)
from .tensor import ShapeError

# A no-grad forward's tracemalloc peak measured 17.5-18.9 float64 arrays
# of the patch's voxels at base_width channels for widths 4 to 16
# (patches 32^3 and 64^3, depths 2 and 3) and 20.7 at width 2 (16x32x48),
# where the input and the softmax keep 4 channels, so below 4 channels
# the bound counts 4 (10.4 arrays of 4 channels there). 25
# leaves a third over the largest peak and keeps one worker for the
# default configuration at 6 GiB free, where two have not been measured.
FORWARD_PEAK_ARRAYS = 25


def forward_bytes_bound(config: NetConfig) -> int:
    """Upper bound on the memory one no-grad forward of a patch holds."""
    channels = max(config.base_width, config.in_channels, config.num_classes)
    return FORWARD_PEAK_ARRAYS * math.prod(config.patch_shape) * channels * 8


def _blas_thread_setters() -> list:
    """`openblas_set_num_threads_local` of every OpenBLAS loaded in this
    process, or none when the BLAS is another one or too old to have it.
    A setter returns the count it replaces. It is meant to set the
    calling thread's count alone, but in pthreads builds (numpy's
    bundled OpenBLAS 0.3.31 among them) it sets the process-wide count.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return setters


def _worker_count(n_patches: int, config: NetConfig, setters: list) -> int:
    """Patch forwards to run at once: one per usable CPU and per patch, as
    many as free memory holds at `forward_bytes_bound` each, and one when
    the per-thread BLAS setter or the free-memory reading is missing
    (concurrent forwards would then share the BLAS threads or the memory
    blindly).
    """
    if not setters:
        return 1
    try:
        free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, ValueError, OSError):
        return 1
    return max(1, min(cpus, n_patches, free // forward_bytes_bound(config)))


def stitched_probs(x: np.ndarray, params, config: NetConfig, spec: PatchSpec) -> np.ndarray:
    """Class probabilities of a stacked (1, z, h, w, c) case volume.

    Patch forwards run without backward state on a thread pool sized by
    `_worker_count`. Each worker cuts its own zero-padded patch, and the
    probability patches stream into `stitch_patches` in patch order, so
    neither the image nor the probability patches are ever all held.
    With more than one worker, every BLAS call runs on one thread: each
    worker and the caller set the count to 1, which covers a setter
    local to its thread and a process-wide one, and the caller's counts
    are restored once the pool is shut down.
    """
    starts = patch_starts(x.shape[1:4], spec)
    setters = _blas_thread_setters()
    workers = _worker_count(len(starts), config, setters)
    pinned = setters if workers > 1 else []

    def pin_blas():
        return [setter(1) for setter in pinned]

    def predict(start):
        return forward(cut_patch(x, start, spec), params, config, grad=False).output

    previous = pin_blas()
    pool = ThreadPoolExecutor(workers, initializer=pin_blas)
    try:
        return stitch_patches(pool.map(predict, starts), (*x.shape[:4], config.num_classes), spec)
    finally:
        pool.shutdown(cancel_futures=True)
        for setter, count in zip(pinned, previous):
            setter(count)


def predict_case(case_dir, params, config: NetConfig,
                 stride: tuple[int, int, int] | None = None) -> np.ndarray:
    """Stitched label volume for one case directory.

    Patches are predicted independently, probabilities averaged over
    overlaps, and the argmax taken over the stitched probability volume.
    """
    case = load_case(case_dir)
    spec = PatchSpec(config.patch_shape, stride)
    x = preprocess_case(case)
    check_coverage(x.shape[1:4], spec)  # before the forward passes, not after
    return predict_labels(stitched_probs(x, params, config, spec))[0]


def predict_dir(data_dir, params, config: NetConfig, out_dir,
                stride=None, log=print) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for case_dir in list_cases(data_dir):
        labels = predict_case(case_dir, params, config, stride)
        path = out_dir / f"{case_dir.name}.npy"
        write_npy(path, labels)
        written.append(path)
        log(f"predicted {case_dir.name}")
    return written


def evaluate_dirs(pred_dir, truth_dir, spacing=(1.0, 1.0, 1.0)) -> str:
    """Per-case per-region metric report comparing prediction volumes
    (<case>.npy files) against the truth cases' seg.npy volumes, the only
    file read from a truth case (modality files may be absent); hd95
    distances are in units of `spacing` (z, h, w).
    """
    pred_dir = Path(pred_dir)
    truth_dir = Path(truth_dir)
    rows = []
    truth_cases = {d.name: d for d in list_cases(truth_dir, LABEL_FILE)}
    pred_files = sorted(pred_dir.glob("*.npy"))
    if not pred_files:
        raise FileNotFoundError(f"no prediction volumes under {pred_dir}")
    for pred_file in pred_files:
        case_id = pred_file.stem
        if case_id not in truth_cases:
            raise FileNotFoundError(f"prediction {case_id} has no truth case with {LABEL_FILE}")
        pred_labels = read_npy(pred_file)
        truth_labels = load_labels(truth_cases[case_id])
        if pred_labels.shape != truth_labels.shape:
            raise ShapeError(
                f"{case_id}: prediction shape {pred_labels.shape} != truth {truth_labels.shape}"
            )
        sources = (str(pred_file), str(truth_cases[case_id] / LABEL_FILE))
        rows += region_rows(case_id, pred_labels, truth_labels, spacing, sources)
    return format_report(rows)
