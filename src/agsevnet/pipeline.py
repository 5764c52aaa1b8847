"""Preprocessing pipeline and the synthetic phantom generator.

Cases are directories of `.npy` volumes, one per modality plus an
optional label volume. Preprocessing is z-score normalization over the
nonzero (brain) voxels and channel stacking in the fixed modality order;
patches are cut from the stacked volume on a sliding window with
zero-padded borders. The phantom generator builds nested-ellipsoid label
volumes with modality-like intensities so training and evaluation can
run at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .npyio import read_npy, write_npy
from .rng import Rng
from .tensor import DTYPE, ShapeError, as_tensor5

MODALITIES = ("t1", "t1ce", "t2", "flair")
LABEL_FILE = "seg.npy"
SIGMA_FLOOR = 1e-8


@dataclass
class Case:
    id: str
    modalities: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # t1, t1ce, t2, flair
    labels: Optional[np.ndarray] = None  # uint8 volume over {0,1,2,4}

    def __post_init__(self):
        shapes = {m.shape for m in self.modalities}
        if len(self.modalities) != len(MODALITIES) or len(shapes) != 1:
            raise ShapeError(f"case {self.id}: need {len(MODALITIES)} equal-shape modalities, "
                             f"got {shapes}")
        if self.labels is not None and self.labels.shape != self.modalities[0].shape:
            raise ShapeError(
                f"case {self.id}: label shape {self.labels.shape} != volume {self.modalities[0].shape}"
            )


@dataclass(frozen=True)
class PatchSpec:
    """A patch shape and the step between patch corners. The stride lies
    in [1, patch] on every axis, so the patches cover every voxel of any
    volume; it is checked here once and cannot change afterwards."""
    shape: tuple[int, int, int]  # (z, h, w)
    stride: tuple[int, int, int] | None = None  # defaults to the patch shape

    def __post_init__(self):
        shape = tuple(int(v) for v in self.shape)
        stride = shape if self.stride is None else tuple(int(v) for v in self.stride)
        if len(shape) != 3 or len(stride) != 3:
            raise ValueError(f"patch shape {shape} and patch stride {stride} "
                             "must each have 3 extents z,h,w")
        if not all(1 <= s <= p for s, p in zip(stride, shape)):
            raise ValueError(f"patch stride {stride} must lie in [1, patch] per axis "
                             f"for patch shape {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "stride", stride)


def normalize(x: np.ndarray, source: str = "volume") -> np.ndarray:
    """Standardize over the nonzero voxels; zeros (background) stay zero.

    Degenerate inputs (nonzero-region standard deviation below the
    floor, or no nonzero voxels at all) come back as all zeros. Values so
    large that their statistics overflow float64 raise ValueError naming
    `source`.
    """
    x = np.asarray(x, dtype=DTYPE)
    mask = x != 0.0
    if not mask.any():
        return np.zeros_like(x)
    vals = x[mask]
    mu = vals.mean()
    sigma = vals.std()
    if not np.isfinite(sigma):
        raise ValueError(f"{source}: nonzero-voxel statistics overflow float64 (std {sigma})")
    if sigma < SIGMA_FLOOR:
        return np.zeros_like(x)
    out = np.zeros_like(x)
    out[mask] = (vals - mu) / sigma
    return out


def _axis_starts(extent: int, patch: int, stride: int) -> list[int]:
    if extent <= patch:
        return [0]
    n = -(-(extent - patch) // stride) + 1  # ceil division
    return [k * stride for k in range(n)]


def patch_starts(volume_shape: tuple, spec: PatchSpec) -> list[tuple[int, int, int]]:
    """(z0, h0, w0) corner of every patch tiling a (z, h, w) volume, in
    z-major order: the patch order of training and of stitch_patches."""
    z, h, w = volume_shape
    return [
        (z0, h0, w0)
        for z0 in _axis_starts(z, spec.shape[0], spec.stride[0])
        for h0 in _axis_starts(h, spec.shape[1], spec.stride[1])
        for w0 in _axis_starts(w, spec.shape[2], spec.stride[2])
    ]


def _window(volume_shape: tuple, start: tuple, spec: PatchSpec):
    """Slices of the patch at `start` that lie inside the volume: the
    volume's (z, h, w) slices and the patch's, which skip the padding."""
    extents = [min(p, v - s0) for p, v, s0 in zip(spec.shape, volume_shape, start)]
    inside = tuple(slice(s0, s0 + e) for s0, e in zip(start, extents))
    return inside, tuple(slice(0, e) for e in extents)


def cut_patch(x: np.ndarray, start: tuple, spec: PatchSpec) -> np.ndarray:
    """The zero-padded (n, *spec.shape, c) patch of x at corner `start`,
    in x's dtype."""
    inside, part = _window(x.shape[1:4], start, spec)
    img = np.zeros((x.shape[0], *spec.shape, x.shape[4]), dtype=x.dtype)
    img[(slice(None), *part)] = x[(slice(None), *inside)]
    return img


def stitch_patches(patches: Iterable[np.ndarray], original_shape: tuple,
                   spec: PatchSpec) -> np.ndarray:
    """Inverse of cutting every patch_starts patch, on per-voxel values:
    overlaps averaged, padding cropped. `original_shape` is the full (n, z, h, w, c) shape.

    `patches` may be any iterable in patch order, a stream included:
    each patch is added as it arrives and none is kept, and the patch
    count is checked once the stream ends.
    """
    z, h, w = original_shape[1:4]
    starts = patch_starts((z, h, w), spec)
    acc = np.zeros(original_shape, dtype=DTYPE)
    cnt = np.zeros((1, z, h, w, 1), dtype=DTYPE)
    count = 0
    for count, patch in enumerate(patches, start=1):
        if count > len(starts):
            continue  # counted, then refused below
        patch = as_tensor5(patch, "patch")
        if patch.shape[1:4] != spec.shape:
            raise ShapeError(f"patch shape {patch.shape[1:4]} != spec {spec.shape}")
        inside, part = _window((z, h, w), starts[count - 1], spec)
        acc[(slice(None), *inside)] += patch[(slice(None), *part)]
        cnt[(slice(None), *inside)] += 1.0
    if count != len(starts):
        raise ShapeError(f"stitch_patches: got {count} patches, tiling needs {len(starts)}")
    return acc / cnt


# ---------------------------------------------------------------------------
# synthetic phantom cases

# per-region intensity means: rows = (air, brain, edema, necrosis, enhancing),
# columns = (t1, t1ce, t2, flair). Edema contrasts strongly with brain
# (easy whole-tumor boundary) while the enhancing core sits close to
# necrosis in every channel, so region difficulty falls off the same way
# it does on real scans: WT easiest, ET hardest.
REGION_MEANS = np.array(
    [
        [0.00, 0.00, 0.00, 0.00],
        [0.55, 0.50, 0.45, 0.40],
        [0.45, 0.40, 0.80, 0.90],
        [0.25, 0.30, 0.65, 0.75],
        [0.30, 0.40, 0.63, 0.73],
    ],
    dtype=DTYPE,
)
NOISE_SCALE = 0.12


def _ellipsoid(shape, center, semi) -> np.ndarray:
    """Voxels i with sum_a ((i_a - center_a) / semi_a)**2 <= 1, summed
    over the axes in order from per-axis squared terms, so no coordinate
    grid is built.
    """
    d0, d1, d2 = (np.square((np.arange(n, dtype=DTYPE) - c) / s)
                  for n, c, s in zip(shape, center, semi))
    return (d0[:, None, None] + d1[None, :, None]) + d2[None, None, :] <= 1.0


def generate_phantom(rng: Rng, shape: tuple[int, int, int], difficulty: float) -> Case:
    """Nested-ellipsoid phantom: enhancing core inside a necrotic shell
    inside an edema shell inside healthy brain tissue, with per-region
    modality intensities and Gaussian noise scaled by `difficulty`.
    Background outside the brain stays exactly zero.
    """
    if not 0.0 <= difficulty <= 1.0:
        raise ValueError(f"difficulty must lie in [0, 1], got {difficulty}")
    z, h, w = (int(v) for v in shape)
    if min(z, h, w) < 16:
        raise ValueError(f"phantom shape must be at least 16 per axis, got {shape}")
    ext = np.array([z, h, w], dtype=DTYPE)

    brain_center = ext / 2.0 + rng.uniform(-0.02, 0.02, 3) * ext
    brain_semi = ext * rng.uniform(0.40, 0.46, 3)
    tumor_center = brain_center + rng.uniform(-0.08, 0.08, 3) * ext
    wt_semi = np.maximum(ext * rng.uniform(0.24, 0.32, 3), 5.0)
    tc_semi = np.maximum(wt_semi * rng.uniform(0.60, 0.75, 3), 3.5)
    et_semi = np.maximum(tc_semi * rng.uniform(0.55, 0.70, 3), 2.5)

    brain = _ellipsoid((z, h, w), brain_center, brain_semi)
    wt = _ellipsoid((z, h, w), tumor_center, wt_semi) & brain
    tc = _ellipsoid((z, h, w), tumor_center, tc_semi) & brain
    et = _ellipsoid((z, h, w), tumor_center, et_semi) & brain

    labels = np.zeros((z, h, w), dtype=np.uint8)
    labels[wt] = 2  # edema shell
    labels[tc] = 1  # necrotic shell
    labels[et] = 4  # enhancing core

    region = np.zeros((z, h, w), dtype=np.intp)
    for code, mask in enumerate((brain, wt, tc, et), start=1):
        region[mask] = code

    modalities = []
    for m in range(len(MODALITIES)):
        vol = REGION_MEANS[region, m]
        noise = rng.normal((z, h, w), scale=NOISE_SCALE * difficulty)
        vol = np.where(brain, np.maximum(vol + noise, 1e-3), 0.0)
        modalities.append(vol)
    return Case(id="phantom", modalities=tuple(modalities), labels=labels)


# ---------------------------------------------------------------------------
# case directory I/O

def save_case(directory, case: Case) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, vol in zip(MODALITIES, case.modalities):
        write_npy(directory / f"{name}.npy", np.asarray(vol, dtype=DTYPE))
    if case.labels is not None:
        write_npy(directory / LABEL_FILE, np.asarray(case.labels, dtype=np.uint8))


def load_case(directory) -> Case:
    """The case's four modalities, without its labels (`load_labels`
    reads those). A NaN or infinite modality voxel raises ValueError.
    """
    directory = Path(directory)
    vols = []
    for name in MODALITIES:
        path = directory / f"{name}.npy"
        if not path.exists():
            raise FileNotFoundError(f"case {directory.name}: missing modality file {name}.npy")
        vol = read_npy(path)
        if not np.isfinite(vol).all():
            loc = tuple(int(v) for v in np.argwhere(~np.isfinite(vol))[0])
            raise ValueError(f"case {directory.name}: {name}.npy holds {vol[loc]} at index {loc}")
        vols.append(vol)
    return Case(id=directory.name, modalities=tuple(vols))


def load_labels(directory) -> np.ndarray:
    """The case's label volume alone, without reading the modalities."""
    directory = Path(directory)
    seg = directory / LABEL_FILE
    if not seg.exists():
        raise FileNotFoundError(f"case {directory.name}: missing {LABEL_FILE}")
    return read_npy(seg)


def list_cases(root, marker: str = f"{MODALITIES[0]}.npy") -> list[Path]:
    """Sorted case directories under `root`: those holding a `marker` file."""
    root = Path(root)
    dirs = sorted(d for d in root.iterdir() if d.is_dir() and (d / marker).exists())
    if not dirs:
        raise FileNotFoundError(f"no case directories under {root}")
    return dirs


def preprocess_case(case: Case) -> np.ndarray:
    """The case's modalities normalized and stacked in the fixed t1, t1ce,
    t2, flair order: a (1, z, h, w, 4) tensor."""
    stacked = np.stack([normalize(m, f"case {case.id}: {name}.npy")
                        for name, m in zip(MODALITIES, case.modalities)], axis=-1)
    return as_tensor5(stacked[None], f"case {case.id}")
