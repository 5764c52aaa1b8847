"""Weighted soft-Dice training loss and the segmentation metric suite.

The loss uses the squared-denominator soft Dice per class,
D_c = 2*sum(p*g) / (sum(p^2) + sum(g^2) + s), whose gradient has the
closed form the oracle `checks.dice_grad_closed_form` implements; the evaluation-side
Dice uses the plain confusion-count form 2TP/(FN+FP+2TP). Region masks
follow the nested label alphabet: whole tumor {1,2,4}, tumor core
{1,4}, enhancing tumor {4}.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import DTYPE, ShapeError, as_tensor5, channel_sum, voxel_sum

SMOOTH = 1e-7
LABEL_VALUES = (0, 1, 2, 4)
REGION_LABELS = {"WT": (1, 2, 4), "TC": (1, 4), "ET": (4,)}
REGION_ORDER = ("WT", "TC", "ET")
METRIC_ORDER = ("dice", "sensitivity", "specificity", "hd95")
# dice_loss's weight per class channel, in LABEL_VALUES order: the reference
# setup's, a constant with no config key, like Adam's (train.BETA1...ADAM_EPS)
CLASS_WEIGHTS = (0.1, 1.0, 1.0, 1.0)


def _check_pair(p: np.ndarray, g: np.ndarray):
    p = as_tensor5(p, "probabilities")
    g = as_tensor5(g, "one-hot truth")
    if p.shape != g.shape:
        raise ShapeError(f"prediction/truth shape mismatch {p.shape} vs {g.shape}")
    if p.shape[4] != len(LABEL_VALUES):
        raise ShapeError(f"expected {len(LABEL_VALUES)} class channels, got {p.shape[4]}")
    if not np.all((g == 0.0) | (g == 1.0)) or not np.all(channel_sum(g) == 1.0):
        raise ValueError("truth tensor is not one-hot over the class channels")
    return p, g


def dice_loss(p: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray]:
    """Weighted negative soft Dice and its gradient with respect to p.

    loss = -sum_c w_c D_c / sum_c w_c with w = CLASS_WEIGHTS, so a
    perfect prediction with all classes present scores exactly -1. The
    gradient composes the quotient rule over the three per-class sums;
    empty classes contribute zero loss and zero gradient.
    """
    p, g = _check_pair(p, g)
    w = np.asarray(CLASS_WEIGHTS, dtype=DTYPE)
    wsum = w.sum()
    inter = voxel_sum(p * g, pooled=True)
    pp = voxel_sum(p * p, pooled=True)
    gg = voxel_sum(g * g, pooled=True)
    present = gg > 0.0
    denom = pp + gg + SMOOTH
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

def confusion(pred: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) from the overlap and the two mask sizes: one
    full-volume temporary, `pred & truth`."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ShapeError(f"confusion: shape mismatch {pred.shape} vs {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    return tp, fp, fn, pred.size - tp - fp - fn


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Boundary voxels under 6-connectivity: positive voxels with a
    negative or out-of-volume face neighbor. Returns an (m, 3) index array
    in C order.

    The test runs on the mask's bounding box: every neighbor outside the
    box is negative or outside the volume, so padding the box with False
    classifies each voxel as padding the whole volume would.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ShapeError(f"surface_voxels expects a 3-axis mask, got {mask.shape}")
    plane = mask.any(axis=0)
    occupied = (mask.any(axis=(1, 2)), plane.any(axis=1), plane.any(axis=0))
    spans = [np.flatnonzero(on) for on in occupied]
    if spans[0].size == 0:
        return np.empty((0, 3), dtype=np.intp)
    origin = np.array([span[0] for span in spans])
    box = mask[tuple(slice(span[0], span[-1] + 1) for span in spans)]
    padded = np.pad(box, 1, constant_values=False)
    interior = np.ones_like(box)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    boundary = box & ~interior
    return np.argwhere(boundary) + origin


# entries per envelope slab: about 16 MB per float64 temporary
_ENVELOPE_BLOCK = 1 << 21
# entries per block of the sampled axis-2 pass: about 2 MB per temporary
_SAMPLE_BLOCK = 1 << 18
# src voxels per axis-2 line of the box up to which the sampled pass runs
# instead of the axis-2 envelope: an entry of the sampled pass costs about
# 5-13 ns and a box voxel of the envelope about 170-430 ns (2 vCPUs, x86-64)
_SAMPLED_PER_LINE = 48


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


def _envelope_pass(d2: np.ndarray, coords: np.ndarray, axis: int) -> None:
    """Replace d2 in place by its lower envelope along `axis` (1 or 2).

    The envelope runs on slabs of axis 0 of at most _ENVELOPE_BLOCK
    entries and writes back in place, so its temporaries stay bounded
    whatever the box volume.
    """
    slab = max(1, _ENVELOPE_BLOCK // (d2.shape[1] * d2.shape[2]))
    for z0 in range(0, d2.shape[0], slab):
        lines = np.moveaxis(d2[z0 : z0 + slab], axis, 0)  # a view into d2
        env = _lower_envelope(lines.reshape(lines.shape[0], -1), coords)
        lines[...] = env.reshape(lines.shape)


def _sample_last_axis(n_src: int, extent) -> bool:
    """Whether the sampled axis-2 pass is cheaper than the axis-2 envelope.

    The sampled pass costs the box width per src voxel; the envelope costs
    about _SAMPLED_PER_LINE sampled entries per box voxel, whatever the
    number of src voxels. So the sampled pass runs while src holds at
    most _SAMPLED_PER_LINE voxels per axis-2 line of the box: smooth
    surfaces hold one or two, noisy predictions can hold most of the line.
    """
    return n_src <= _SAMPLED_PER_LINE * int(extent[0]) * int(extent[1])


def _sampled_distances(src: np.ndarray, dst: np.ndarray, origin: np.ndarray,
                       extent: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Distance from each src surface voxel to the nearest dst surface
    voxel: the exact EDT of dst over the box [origin, origin + extent),
    read at src. Voxel i of axis a sits at (origin[a] + i) * spacing[a],
    so anisotropic spacing is exact.

    The axis-0 sweep and the axis-1 envelope run over the box and give g,
    the distance within each axis-2 plane. When _sample_last_axis holds,
    axis 2 is not transformed over the box: each src voxel (z, h, q) takes
    min over p of g[z, h, p] + (x_q - x_p)**2 along its own axis-2 line, in
    blocks of at most _SAMPLE_BLOCK entries with the squared gaps formed in
    place. Otherwise the axis-2 envelope runs over the box and is read at src.
    """
    feature = np.zeros(tuple(extent), dtype=bool)
    feature[tuple((dst - origin).T)] = True
    coords = [(origin[a] + np.arange(extent[a])) * spacing[a] for a in range(3)]
    g = _nearest_feature_sweep(feature, coords[0])
    _envelope_pass(g, coords[1], 1)
    local = src - origin
    if not _sample_last_axis(len(src), extent):
        _envelope_pass(g, coords[2], 2)
        return np.sqrt(g[tuple(local.T)])
    out = np.empty(len(src), dtype=DTYPE)
    rows = max(1, _SAMPLE_BLOCK // g.shape[2])
    for k in range(0, len(local), rows):
        z, h, q = local[k : k + rows].T
        d2 = np.subtract.outer(coords[2][q], coords[2])
        np.square(d2, out=d2)
        d2 += g[z, h]
        np.sqrt(d2.min(axis=1), out=out[k : k + rows])
    return out


def hausdorff95(pred: np.ndarray, truth: np.ndarray,
                spacing=(1.0, 1.0, 1.0)) -> Optional[float]:
    """95th percentile (linear interpolation) of the pooled directed
    surface distances. None when either mask is empty.

    Each directed set comes from an exact distance transform of one
    surface sampled at the other's voxels, computed on the bounding box
    of both surfaces: linear in the box volume rather than quadratic in
    the surface size. The sampled axis-2 pass costs the surface size times
    the box width and runs only while that is at most _SAMPLED_PER_LINE
    times the box volume.
    `hd95_all_pairs` in tests/oracles.py is the all-pairs oracle.
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

def _any_equal(labels: np.ndarray, values) -> np.ndarray:
    """labels == v for any v in values, as one boolean mask (np.isin's
    result, from one equality test per value)."""
    out = labels == values[0]
    for v in values[1:]:
        out |= labels == v
    return out


def check_labels(labels: np.ndarray, source: str = "labels") -> None:
    """Raise ValueError naming `source` at the first value outside {0,1,2,4}."""
    labels = np.asarray(labels)
    bad = ~_any_equal(labels, LABEL_VALUES)
    if bad.any():
        loc = tuple(int(v) for v in np.argwhere(bad)[0])
        raise ValueError(f"{source}: unknown label value {labels[loc].item():g} at index {loc} "
                         f"(alphabet is {LABEL_VALUES})")


def derive_regions(labels: np.ndarray, source: str = "labels") -> dict[str, np.ndarray]:
    """WT/TC/ET boolean masks from a {0,1,2,4} label volume; another value
    raises ValueError naming `source`."""
    labels = np.asarray(labels)
    check_labels(labels, source)
    return {name: _any_equal(labels, vals) for name, vals in REGION_LABELS.items()}


# ---------------------------------------------------------------------------
# evaluation report

def _fmt(value: Optional[float]) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def region_rows(case_id: str, pred_labels, truth_labels,
                sources=("prediction", "truth")) -> list[dict]:
    """One metric row per region of a case, in REGION_ORDER (hd95 in voxels).
    `sources` name the prediction and the truth volume in label errors.

    A rate whose denominator is 0 is None, not NaN; the one exception is
    dice = 1.0 when both masks are empty, perfect agreement by convention.
    """
    pred, truth = derive_regions(pred_labels, sources[0]), derive_regions(truth_labels, sources[1])
    rows = []
    for region in REGION_ORDER:
        tp, fp, fn, tn = confusion(pred[region], truth[region])
        rows.append({
            "case_id": case_id, "region": region,
            "dice": 2.0 * tp / (fn + fp + 2 * tp) if fn + fp + tp else 1.0,
            "sensitivity": tp / (tp + fn) if tp + fn else None,
            "specificity": tn / (tn + fp) if tn + fp else None,
            "hd95": hausdorff95(pred[region], truth[region]),
        })
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
