"""Independent reference computations for the benchmark's correctness gates.

Nothing here imports the package under test. The hd95 oracle compares
every surface voxel of one mask with every surface voxel of the other,
one block of rows at a time so its memory stays small next to the
program's. With unit spacing all squared distances are small integers,
so the oracle's distances, and hence its percentile, are exact.
"""

from __future__ import annotations

import numpy as np

REGIONS = {"WT": (1, 2, 4), "TC": (1, 4), "ET": (4,)}
ROWS_PER_BLOCK = 256


def regions(labels: np.ndarray) -> dict[str, np.ndarray]:
    return {name: np.isin(labels, values) for name, values in REGIONS.items()}


def surface(mask: np.ndarray) -> np.ndarray:
    """(m, 3) indices of mask voxels with a face neighbour outside the mask
    or outside the volume."""
    mask = np.asarray(mask, dtype=bool)
    z, h, w = mask.shape
    padded = np.zeros((z + 2, h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = mask
    interior = mask.copy()
    for dz, dh, dw in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        interior &= padded[1 + dz : 1 + dz + z, 1 + dh : 1 + dh + h, 1 + dw : 1 + dw + w]
    return np.argwhere(mask & ~interior)


def _nearest(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Distance from each src point to its nearest dst point, all pairs."""
    out = np.empty(len(src))
    for start in range(0, len(src), ROWS_PER_BLOCK):
        block = src[start : start + ROWS_PER_BLOCK]
        d2 = (block[:, 0, None] - dst[None, :, 0]) ** 2
        d2 += (block[:, 1, None] - dst[None, :, 1]) ** 2
        d2 += (block[:, 2, None] - dst[None, :, 2]) ** 2
        out[start : start + len(block)] = np.sqrt(d2.min(axis=1))
    return out


def hd95(pred_surface: np.ndarray, truth_surface: np.ndarray, spacing=(1.0, 1.0, 1.0)):
    """95th percentile (linear) of the pooled directed surface distances,
    or None when either surface is empty."""
    if len(pred_surface) == 0 or len(truth_surface) == 0:
        return None
    sp = np.asarray(spacing, dtype=np.float64)
    p = pred_surface * sp
    t = truth_surface * sp
    pool = np.concatenate([_nearest(t, p), _nearest(p, t)])
    return float(np.percentile(pool, 95.0, method="linear"))


def dice(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = int(np.count_nonzero(pred & truth))
    total = int(np.count_nonzero(pred)) + int(np.count_nonzero(truth))
    return 1.0 if total == 0 else 2.0 * tp / total


def case_expectations(pred_labels: np.ndarray, truth_labels: np.ndarray) -> dict:
    """Per region: the dice and hd95 the evaluation must report, and the
    surface pair count |S_pred| * |S_truth| that all-pairs hd95 visits."""
    out = {}
    pred_regions, truth_regions = regions(pred_labels), regions(truth_labels)
    for name in REGIONS:
        sp, st = surface(pred_regions[name]), surface(truth_regions[name])
        out[name] = {
            "dice": dice(pred_regions[name], truth_regions[name]),
            "hd95": hd95(sp, st),
            "surface_pairs": len(sp) * len(st),
        }
    return out
