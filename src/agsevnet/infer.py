"""Patch-wise inference and case-level evaluation."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .losses import format_report, region_rows
from .network import NetConfig, forward, predict_labels
from .npyio import read_npy, write_npy
from .pipeline import (
    LABEL_FILE,
    PatchSpec,
    check_coverage,
    list_cases,
    load_case,
    load_labels,
    preprocess_case,
    stitch_patches,
)
from .tensor import ShapeError


def predict_case(case_dir, params, config: NetConfig,
                 stride: tuple[int, int, int] | None = None) -> np.ndarray:
    """Stitched label volume for one case directory.

    Patches are predicted independently, probabilities averaged over
    overlaps, and the argmax taken over the stitched probability volume.
    """
    case = load_case(case_dir)
    spec = PatchSpec(config.patch_shape, stride or config.patch_shape)
    x, patches = preprocess_case(case, spec)
    check_coverage(x.shape[1:4], spec)  # before the forward passes, not after
    prob_patches = [forward(img, params, config, training=False).output for img, _ in patches]
    probs = stitch_patches(prob_patches, (*x.shape[:4], 4), spec)
    return predict_labels(probs)[0]


def predict_dir(data_dir, params, config: NetConfig, out_dir,
                stride=None, log=print) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for case_dir in list_cases(data_dir):
        labels = predict_case(case_dir, params, config, stride)
        path = out_dir / f"{case_dir.name}.npy"
        write_npy(path, labels.astype(np.uint8))
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
        rows += region_rows(case_id, pred_labels, truth_labels, spacing)
    return format_report(rows)
