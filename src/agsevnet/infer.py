"""Patch-wise inference and case-level evaluation."""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .losses import LABEL_VALUES, format_report, region_rows
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

# A no-grad forward's tracemalloc peak measured 14.5-15.7 float64 arrays
# of the patch's voxels at base_width channels for widths 4 to 16
# (patches 32^3 and 64^3, depths 2 and 3) and 17.3 at width 2 (16x32x48),
# where the input and the softmax keep 4 channels, so below 4 channels
# the bound counts 4 (8.7 arrays of 4 channels there). 25
# leaves three fifths over the largest peak and keeps one worker for the
# default configuration at 6 GiB available, where two have not been measured.
FORWARD_PEAK_ARRAYS = 25
MEMINFO = "/proc/meminfo"


def forward_bytes_bound(config: NetConfig) -> int:
    """Upper bound on the memory one no-grad forward of a patch holds."""
    channels = max(config.base_width, config.in_channels, len(LABEL_VALUES))
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


def _available_bytes() -> int:
    """The kernel's estimate of memory available without swapping
    (MemAvailable, which counts reclaimable page cache), or the free
    pages where MEMINFO is absent or lacks that line."""
    try:
        with open(MEMINFO) as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the file counts kB
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _worker_count(n_patches: int, config: NetConfig, setters: list) -> int:
    """Patch forwards to run at once: one per usable CPU and per patch, as
    many as available memory holds at `forward_bytes_bound` each, and one
    when the per-thread BLAS setter or the memory reading is missing
    (concurrent forwards would then share the BLAS threads or the memory
    blindly).
    """
    if not setters:
        return 1
    try:
        available = _available_bytes()
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, ValueError, OSError):
        return 1
    return max(1, min(cpus, n_patches, available // forward_bytes_bound(config)))


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
        return stitch_patches(pool.map(predict, starts), (*x.shape[:4], len(LABEL_VALUES)), spec)
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


def predict_dir(data_dir, params, config: NetConfig, out_dir, stride=None, log=print) -> None:
    """Write each case's predicted label volume as out_dir/<case>.npy. A
    bad `stride` is refused before out_dir is made or a case is read, and
    out_dir is made only once the first case is predicted."""
    try:
        spec = PatchSpec(config.patch_shape, stride)
    except ValueError as exc:
        raise ValueError(f"--stride: {exc}") from None
    out_dir = Path(out_dir)
    for case_dir in list_cases(data_dir):
        labels = predict_case(case_dir, params, config, spec.stride)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_npy(out_dir / f"{case_dir.name}.npy", labels)
        log(f"predicted {case_dir.name}")


def evaluate_dirs(pred_dir, truth_dir) -> str:
    """Per-case per-region metric report comparing prediction volumes
    (<case>.npy files) against the truth cases' seg.npy volumes, the only
    file read from a truth case (modality files may be absent)."""
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
        truth_file = truth_cases[case_id] / LABEL_FILE
        if truth_labels.ndim != 3:
            raise ShapeError(f"{truth_file}: label volume has shape {truth_labels.shape}, "
                             f"not 3 axes z,h,w")
        if pred_labels.shape != truth_labels.shape:
            raise ShapeError(
                f"{case_id}: prediction shape {pred_labels.shape} != truth {truth_labels.shape}"
            )
        sources = (str(pred_file), str(truth_file))
        rows += region_rows(case_id, pred_labels, truth_labels, sources)
    return format_report(rows)
