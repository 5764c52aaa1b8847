"""Weighted soft-Dice training loss and the segmentation metric suite.

The loss uses the squared-denominator soft Dice per class,
D_c = 2*sum(p*g) / (sum(p^2) + sum(g^2) + s), whose gradient has the
closed form the oracle `checks.dice_grad_closed_form` implements; the evaluation-side
Dice uses the plain confusion-count form 2TP/(FN+FP+2TP). Region masks
follow the nested label alphabet: whole tumor {1,2,4}, tumor core
{1,4}, enhancing tumor {4}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import DTYPE, ShapeError, as_tensor5

SMOOTH = 1e-7
LABEL_VALUES = (0, 1, 2, 4)
REGION_LABELS = {"WT": (1, 2, 4), "TC": (1, 4), "ET": (4,)}
REGION_ORDER = ("WT", "TC", "ET")
METRIC_ORDER = ("dice", "sensitivity", "specificity", "hd95")


@dataclass
class ClassWeights:
    w: tuple[float, float, float, float] = (0.1, 1.0, 1.0, 1.0)

    def __post_init__(self):
        self.w = tuple(float(v) for v in self.w)
        if len(self.w) != 4 or not all(0 <= v < np.inf for v in self.w) or sum(self.w) == 0:
            raise ValueError(f"class_weights must be 4 finite floats >= 0, not all zero: {self.w}")


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def _check_pair(p: np.ndarray, g: np.ndarray):
    p = as_tensor5(p, "probabilities")
    g = as_tensor5(g, "one-hot truth")
    if p.shape != g.shape:
        raise ShapeError(f"prediction/truth shape mismatch {p.shape} vs {g.shape}")
    if p.shape[4] != 4:
        raise ShapeError(f"expected 4 class channels, got {p.shape[4]}")
    if not np.all((g == 0.0) | (g == 1.0)) or not np.all(g.sum(axis=4) == 1.0):
        raise ValueError("truth tensor is not one-hot over the class channels")
    return p, g


def dice_loss(p: np.ndarray, g: np.ndarray, weights: ClassWeights,
              smooth: float = SMOOTH) -> tuple[float, np.ndarray]:
    """Weighted negative soft Dice and its gradient with respect to p.

    loss = -sum_c w_c D_c / sum_c w_c, so a perfect prediction with all
    classes present scores exactly -1. The gradient composes the
    quotient rule over the three per-class sums; empty classes
    contribute zero loss and zero gradient.
    """
    p, g = _check_pair(p, g)
    w = np.asarray(weights.w, dtype=DTYPE)
    wsum = w.sum()
    inter = (p * g).sum(axis=(0, 1, 2, 3))
    pp = (p * p).sum(axis=(0, 1, 2, 3))
    gg = (g * g).sum(axis=(0, 1, 2, 3))
    present = gg > 0.0
    denom = pp + gg + smooth
    dice = np.where(present, 2.0 * inter / denom, 0.0)
    loss = float(-(w * dice).sum() / wsum)

    # dD/dp = (2/denom) g - (4 inter/denom^2) p, per class channel
    coef_g = np.where(present, 2.0 / denom, 0.0)
    coef_p = np.where(present, 4.0 * inter / (denom * denom), 0.0)
    ddice_dp = coef_g * g - coef_p * p
    grad = -(w / wsum) * ddice_dp
    return loss, grad


# ---------------------------------------------------------------------------
# evaluation metrics over binary region masks

def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ShapeError(f"confusion: shape mismatch {pred.shape} vs {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred & ~truth))
    fn = int(np.count_nonzero(~pred & truth))
    tn = int(np.count_nonzero(~pred & ~truth))
    return ConfusionCounts(tp, fp, fn, tn)


def metric(kind: str, c: ConfusionCounts) -> Optional[float]:
    """dice, sensitivity, or specificity from counts.

    Undefined denominators return None instead of NaN; the one
    documented convention is dice = 1.0 when both masks are empty.
    """
    if kind == "dice":
        denom = c.fn + c.fp + 2 * c.tp
        if denom == 0:
            return 1.0  # both masks empty: perfect agreement by convention
        return 2.0 * c.tp / denom
    if kind == "sensitivity":
        if c.tp + c.fn == 0:
            return None
        return c.tp / (c.tp + c.fn)
    if kind == "specificity":
        if c.tn + c.fp == 0:
            return None
        return c.tn / (c.tn + c.fp)
    raise ValueError(f"unknown metric kind {kind!r}")


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Boundary voxels under 6-connectivity: positive voxels with a
    negative or out-of-volume face neighbor. Returns an (m, 3) index array.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ShapeError(f"surface_voxels expects a 3-axis mask, got {mask.shape}")
    padded = np.pad(mask, 1, constant_values=False)
    interior = np.ones_like(mask)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    boundary = mask & ~interior
    return np.argwhere(boundary)


# entries per envelope block: about 16 MB per float64 temporary
_ENVELOPE_BLOCK = 1 << 21


def _nearest_feature_sweep(feature: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Squared distance along axis 0 to the nearest feature voxel of the
    same line, by a forward and a backward sweep; inf where the line has
    no feature.
    """
    out = np.empty(feature.shape, dtype=DTYPE)
    seen = np.full(feature.shape[1:], -np.inf)
    for q in range(feature.shape[0]):
        np.copyto(seen, coords[q], where=feature[q])
        np.square(coords[q] - seen, out=out[q])
    seen.fill(np.inf)
    for q in range(feature.shape[0] - 1, -1, -1):
        np.copyto(seen, coords[q], where=feature[q])
        np.minimum(out[q], np.square(coords[q] - seen), out=out[q])
    return out


def _lower_envelope(f: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """min over p of f[p] + (coords[q] - coords[p])**2 along axis 0 of an
    (n, lines) array, for every line at once (Felzenszwalb & Huttenlocher).

    Each line keeps a stack of the parabolas on its lower envelope: `v`
    holds their positions and `z` the left end of the interval each one
    is lowest on. Both are (rows, lines) tables addressed through flat
    indices row * lines + line, which numpy gathers faster than 2-D
    fancy indices. Infinite entries (no feature) carry no parabola. The
    loops run over the n positions; every step is vectorised over lines.
    """
    n, width = f.shape
    top = np.full(width, -1, dtype=np.intp)  # stack height - 1 per line
    v = np.zeros(n * width, dtype=np.intp)
    z = np.full((n + 1) * width, np.inf)
    lift = f + np.square(coords)[:, None]  # f[p] + x_p^2, the parabola's offset
    lift_flat = lift.ravel()
    for q in range(n):
        lines = np.flatnonzero(np.isfinite(f[q]))
        cut = np.full(lines.size, -np.inf)  # left end of parabola q's interval
        pending = np.flatnonzero(top[lines] >= 0)
        while pending.size:
            li = lines[pending]
            at = top[li] * width + li
            p = v[at]
            s = (lift[q, li] - lift_flat[p * width + li]) / (2.0 * (coords[q] - coords[p]))
            cut[pending] = s
            # z of the bottom parabola is -inf, so a non-empty stack never pops empty
            hidden = s <= z[at]
            top[li[hidden]] -= 1
            pending = pending[hidden]
        top[lines] += 1
        at = top[lines] * width + lines
        v[at] = q
        z[at] = cut
        z[at + width] = np.inf
    del lift, lift_flat

    out = np.full((n, width), np.inf)
    lines = np.flatnonzero(top >= 0)
    at = lines.copy()  # every line starts at its bottom parabola
    f_flat = f.ravel()
    for q in range(n):
        while True:
            step = z[at + width] < coords[q]
            if not step.any():
                break
            at += step * width
        p = v[at]
        out[q, lines] = f_flat[p * width + lines] + np.square(coords[q] - coords[p])
    return out


def _squared_edt(feature: np.ndarray, origin: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance from every voxel of the box to the
    nearest feature voxel, in physical units. Voxel i of axis a sits at
    (origin[a] + i) * spacing[a], so anisotropic spacing is exact.

    The box holds one float64 array; the envelope passes run on slabs of
    axis 0 of at most _ENVELOPE_BLOCK entries and write back in place, so
    their temporaries stay bounded whatever the box volume.
    """
    coords = [(origin[a] + np.arange(feature.shape[a])) * spacing[a] for a in range(3)]
    d2 = _nearest_feature_sweep(feature, coords[0])
    slab = max(1, _ENVELOPE_BLOCK // (d2.shape[1] * d2.shape[2]))
    for axis in (1, 2):
        for z0 in range(0, d2.shape[0], slab):
            lines = np.moveaxis(d2[z0 : z0 + slab], axis, 0)  # a view into d2
            env = _lower_envelope(lines.reshape(lines.shape[0], -1), coords[axis])
            lines[...] = env.reshape(lines.shape)
    return d2


def _sampled_distances(src: np.ndarray, dst: np.ndarray, origin: np.ndarray,
                       extent: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Distance from each src surface voxel to the nearest dst surface
    voxel: the EDT of dst over the box [origin, origin + extent), sampled
    at src.
    """
    feature = np.zeros(tuple(extent), dtype=bool)
    feature[tuple((dst - origin).T)] = True
    d2 = _squared_edt(feature, origin, spacing)
    return np.sqrt(d2[tuple((src - origin).T)])


def hausdorff95(pred: np.ndarray, truth: np.ndarray,
                spacing=(1.0, 1.0, 1.0)) -> Optional[float]:
    """95th percentile (linear interpolation) of the pooled directed
    surface distances. None when either mask is empty.

    Each directed set comes from an exact distance transform of one
    surface sampled at the other's voxels, computed on the bounding box
    of both surfaces: linear in the box volume rather than quadratic in
    the surface size. `checks.hd95_all_pairs` is the all-pairs oracle.
    """
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ShapeError(f"hausdorff: shape mismatch {pred.shape} vs {truth.shape}")
    sp = np.asarray(spacing, dtype=DTYPE)
    if sp.shape != (3,) or not np.all(np.isfinite(sp) & (sp > 0.0)):
        raise ValueError(f"spacing must be three positive finite values (z,h,w), got {spacing}")
    if not pred.any() or not truth.any():
        return None
    ps = surface_voxels(pred)
    ts = surface_voxels(truth)
    # every feature and every query lies in the box, so cropping is exact
    origin = np.minimum(ps.min(axis=0), ts.min(axis=0))
    extent = np.maximum(ps.max(axis=0), ts.max(axis=0)) + 1 - origin
    pool = np.concatenate([
        _sampled_distances(ts, ps, origin, extent, sp),
        _sampled_distances(ps, ts, origin, extent, sp),
    ])
    return float(np.percentile(pool, 95.0, method="linear"))


# ---------------------------------------------------------------------------
# nested regions

def check_labels(labels: np.ndarray, source: str = "labels") -> None:
    """Raise ValueError naming `source` at the first value outside {0,1,2,4}."""
    bad = ~np.isin(labels, LABEL_VALUES)
    if bad.any():
        loc = tuple(int(v) for v in np.argwhere(bad)[0])
        raise ValueError(f"{source}: unknown label value {int(labels[loc])} at index {loc} "
                         f"(alphabet is {LABEL_VALUES})")


def derive_regions(labels: np.ndarray) -> dict[str, np.ndarray]:
    """WT/TC/ET boolean masks from a {0,1,2,4} label volume."""
    labels = np.asarray(labels)
    check_labels(labels)
    return {name: np.isin(labels, vals) for name, vals in REGION_LABELS.items()}


# ---------------------------------------------------------------------------
# evaluation report

def _fmt(value: Optional[float]) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def region_rows(case_id: str, pred_labels, truth_labels, spacing) -> list[dict]:
    """One metric row per region of a case, in REGION_ORDER."""
    pred, truth = derive_regions(pred_labels), derive_regions(truth_labels)
    rows = []
    for region in REGION_ORDER:
        c = confusion(pred[region], truth[region])
        counts = {m: metric(m, c) for m in METRIC_ORDER[:3]}  # dice, sensitivity, specificity
        hd95 = hausdorff95(pred[region], truth[region], spacing)
        rows.append({"case_id": case_id, "region": region, **counts, "hd95": hd95})
    return rows


def summary_cells(rows: list[dict], region: str, stat=np.mean) -> list[str]:
    """`stat` of each metric over the region's rows that define it, or
    'undefined' when none does."""
    cells = []
    for m in METRIC_ORDER:
        vals = [r[m] for r in rows if r["region"] == region and r[m] is not None]
        cells.append(_fmt(float(stat(vals)) if vals else None))
    return cells


def format_report(rows: list[dict]) -> str:
    """Comma-separated per-case table plus a mean/median summary block.

    Rows are emitted sorted by (case_id, region order); summary
    statistics skip undefined entries and are themselves 'undefined'
    when no row defines the metric.
    """
    region_rank = {r: k for k, r in enumerate(REGION_ORDER)}
    rows = sorted(rows, key=lambda r: (r["case_id"], region_rank[r["region"]]))
    lines = [",".join(["case_id", "region", *METRIC_ORDER])]
    for r in rows:
        lines.append(",".join([r["case_id"], r["region"], *(_fmt(r[m]) for m in METRIC_ORDER)]))
    lines.append("")
    lines.append(",".join(["summary", "region", *METRIC_ORDER]))
    for stat, fn in (("mean", np.mean), ("median", np.median)):
        for region in REGION_ORDER:
            lines.append(",".join([stat, region, *summary_cells(rows, region, fn)]))
    return "\n".join(lines) + "\n"
