import dataclasses
import re

import numpy as np
import pytest

from agsevnet import pipeline, train
from agsevnet.losses import check_labels, derive_regions
from agsevnet.pipeline import (
    Case,
    PatchSpec,
    cut_patch,
    generate_phantom,
    list_cases,
    load_case,
    load_labels,
    normalize,
    patch_starts,
    preprocess_case,
    save_case,
    stitch_patches,
)
from agsevnet.rng import Rng
from agsevnet.tensor import DTYPE, ShapeError


def volume(seed, shape=(8, 8, 8)):
    return Rng(seed).normal(shape)


def make_case(seed, shape=(8, 8, 8), with_labels=True):
    rng = Rng(seed)
    mods = tuple(rng.derive(m).uniform(0.1, 2.0, shape) for m in range(4))
    labels = None
    if with_labels:
        labels = np.array([0, 1, 2, 4], dtype=np.uint8)[rng.integers(0, 4, shape)]
    return Case(id=f"case{seed}", modalities=mods, labels=labels)


def cut_all(x, spec):
    """Every patch of x's tiling, in patch order."""
    return [cut_patch(x, start, spec) for start in patch_starts(x.shape[1:4], spec)]


def one_hot_patches(labels, spec):
    """The training one-hot of every patch of a (z, h, w) label volume."""
    cases = [(np.zeros((1, *labels.shape, 1)), labels[None, ..., None])]
    return [train._batch(cases, (0, start), spec)[1] for start in patch_starts(labels.shape, spec)]


class TestNormalize:
    def test_two_point_standardization(self):
        x = np.zeros((2, 2, 2))
        x[0, 0, 0] = 1.0
        x[0, 0, 1] = 3.0
        out = normalize(x)
        assert out[0, 0, 0] == pytest.approx(-1.0)
        assert out[0, 0, 1] == pytest.approx(1.0)
        assert np.all(out[x == 0] == 0.0)

    def test_constant_volume_zeroed(self):
        assert np.all(normalize(np.full((4, 4, 4), 7.0)) == 0.0)

    def test_all_zero_stays_zero(self):
        assert np.all(normalize(np.zeros((3, 3, 3))) == 0.0)

    def test_nonzero_statistics(self):
        x = Rng(0).uniform(0.5, 3.0, (10, 10, 10))
        x[:3] = 0.0
        out = normalize(x)
        region = out[x != 0]
        assert abs(region.mean()) < 1e-9
        assert abs(region.var() - 1.0) < 1e-9

    def test_idempotent_on_nonzero_region(self):
        x = Rng(1).uniform(0.5, 3.0, (6, 6, 6))
        once = normalize(x)
        twice = normalize(once)
        mask = x != 0
        assert np.abs(once[mask] - twice[mask]).max() < 1e-9


class TestStack:
    def test_fixed_modality_order(self):
        # modality k peaks at flat voxel k, so each channel shows its source
        mods = tuple(np.where(np.arange(8).reshape(2, 2, 2) == k, 3.0, 1.0) for k in range(4))
        x = preprocess_case(Case(id="c", modalities=mods, labels=None))
        assert x.shape == (1, 2, 2, 2, 4)
        for ch in range(4):
            assert np.argmax(x[0, ..., ch]) == ch

    def test_mismatched_shapes_rejected(self):
        mods = (np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))
        with pytest.raises(ShapeError):
            Case(id="bad", modalities=mods)

    def test_split_stack_round_trip(self):
        case = make_case(2)
        x = preprocess_case(case)
        assert x.dtype == DTYPE and x.flags.c_contiguous
        for ch in range(4):
            assert x[0, ..., ch].tobytes() == normalize(case.modalities[ch]).tobytes()


class TestPatches:
    def test_single_patch_when_volume_fits(self):
        case = make_case(3, shape=(16, 16, 16))
        x = preprocess_case(case)
        patches = cut_all(x, PatchSpec((16, 16, 16), (16, 16, 16)))
        assert len(patches) == 1
        assert np.array_equal(patches[0], x)

    def test_tiling_arithmetic(self):
        assert len(patch_starts((64, 256, 256), PatchSpec((64, 128, 128), (64, 128, 128)))) == 4

    def test_one_hot_every_voxel(self):
        case = make_case(4, shape=(20, 20, 20))
        patches = one_hot_patches(case.labels, PatchSpec((16, 16, 16), (16, 16, 16)))
        assert len(patches) == 8
        for lbl in patches:
            assert lbl.shape == (1, 16, 16, 16, 4)
            assert np.all(lbl.sum(axis=-1) == 1.0)

    def test_label_remap_channel3_is_label4(self):
        lbl = np.full((16, 16, 16), 4, dtype=np.uint8)
        (oh,) = one_hot_patches(lbl, PatchSpec((16, 16, 16), (16, 16, 16)))
        assert np.all(oh[..., 3] == 1.0)

    def test_unknown_label_rejected(self):
        lbl = np.full((2, 2, 2), 3, dtype=np.uint8)
        with pytest.raises(ValueError, match="seg.npy: unknown label value 3"):
            check_labels(lbl, "seg.npy")

    def test_non_overlapping_round_trip_exact(self):
        x = Rng(5).normal((1, 32, 16, 48, 3))
        spec = PatchSpec((16, 16, 16), (16, 16, 16))
        back = stitch_patches(cut_all(x, spec), x.shape, spec)
        assert np.array_equal(back, x)

    def test_padded_round_trip_exact(self):
        x = Rng(6).normal((1, 20, 20, 20, 2))
        spec = PatchSpec((16, 16, 16), (16, 16, 16))
        back = stitch_patches(cut_all(x, spec), x.shape, spec)
        assert np.array_equal(back, x)

    def test_overlapping_constant_patches_average_to_constant(self):
        spec = PatchSpec((16, 16, 16), (8, 8, 8))
        x = np.full((1, 32, 32, 32, 1), 3.25)
        back = stitch_patches(cut_all(x, spec), x.shape, spec)
        assert np.abs(back - 3.25).max() < 1e-12

    def test_overlap_matches_scalar_accumulate_oracle(self):
        x = Rng(7).normal((1, 16, 16, 24, 1))
        spec = PatchSpec((16, 16, 16), (16, 16, 8))
        patches = cut_all(x, spec)
        got = stitch_patches(patches, x.shape, spec)
        acc = np.zeros_like(x)
        cnt = np.zeros_like(x)
        starts = [(0, 0, w0) for w0 in (0, 8)]
        for patch, (z0, h0, w0) in zip(patches, starts):
            ws = min(16, 24 - w0)
            acc[:, :, :, w0 : w0 + ws] += patch[:, :, :, :ws]
            cnt[:, :, :, w0 : w0 + ws] += 1
        want = acc / cnt
        assert np.abs(got - want).max() < 1e-12

    def test_every_accepted_stride_covers_every_voxel(self):
        # each axis in turn runs every extent 1-70 against patch 16 or 32 and
        # every stride in [1, patch]; the other two axes are drawn from a seed
        rng = np.random.default_rng(30)
        for axis in range(3):
            for patch in (16, 32):
                for extent in range(1, 71):
                    for step in range(1, patch + 1):
                        shape = [int(v) for v in rng.integers(1, 9, 3)]
                        size = [int(v) for v in rng.integers(1, 5, 3)]
                        stride = [int(rng.integers(1, p + 1)) for p in size]
                        shape[axis], size[axis], stride[axis] = extent, patch, step
                        covered = np.zeros(shape, dtype=bool)
                        for start in patch_starts(shape, PatchSpec(size, stride)):
                            assert all(0 <= s0 < v for s0, v in zip(start, shape))
                            covered[tuple(slice(s0, s0 + p) for s0, p in zip(start, size))] = True
                        assert covered.all(), (shape, size, stride)

    def test_stitched_ones_count_every_voxel(self):
        rng = np.random.default_rng(31)
        x = np.ones((1, 20, 23, 37, 1))
        for stride in [(16, 16, 16), *(tuple(int(v) for v in rng.integers(1, 17, 3))
                                       for _ in range(4))]:
            spec = PatchSpec((16, 16, 16), stride)
            assert np.array_equal(stitch_patches(cut_all(x, spec), x.shape, spec), x), stride

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_stride_outside_one_to_patch_refused(self, axis, offset):
        shape = (16, 24, 32)
        stride = list(shape)
        stride[axis] = offset * (shape[axis] + 1)  # 0, or one past the patch
        with pytest.raises(ValueError, match=re.escape(
                f"patch stride {tuple(stride)} must lie in [1, patch] per axis "
                f"for patch shape {shape}")):
            PatchSpec(shape, stride)

    def test_spec_is_frozen(self):
        spec = PatchSpec((16, 16, 16), (8, 8, 8))
        for name, value in (("stride", (32, 32, 32)), ("shape", (8, 8, 8))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
        assert (spec.shape, spec.stride) == ((16, 16, 16), (8, 8, 8))

    def test_patch_count_mismatch_rejected(self):
        x = Rng(8).normal((1, 16, 16, 16, 1))
        spec = PatchSpec((16, 16, 16), (16, 16, 16))
        with pytest.raises(ShapeError, match="patches"):
            stitch_patches([x, x], x.shape, spec)


    def test_training_patches_match_padded_case(self, tmp_path):
        spec = PatchSpec((16, 16, 16), (8, 12, 16))
        rng = Rng(18)
        for k in range(2):
            case = generate_phantom(rng.derive("case", k), (20, 24, 18), 0.3)
            save_case(tmp_path / f"case{k}", case)
        cases, patches = train._load_training_cases(tmp_path, spec)
        starts = patch_starts((20, 24, 18), spec)
        assert len(starts) == 8
        assert patches == [(c, start) for c in range(2) for start in starts]
        pads = [(0, 0), (0, 4), (0, 4), (0, 14), (0, 0)]  # last starts 8, 12, 16 plus 16
        for c in range(2):
            x = np.pad(preprocess_case(load_case(tmp_path / f"case{c}")), pads)
            labels = load_labels(tmp_path / f"case{c}")
            # one-hot of the unpadded volume, its padding set to background
            onehot = np.stack([np.pad(labels == v, pads[1:4], constant_values=v == 0)
                               for v in (0, 1, 2, 4)], axis=-1)[None].astype(DTYPE)
            for z0, h0, w0 in starts:
                window = (slice(None), slice(z0, z0 + 16), slice(h0, h0 + 16),
                          slice(w0, w0 + 16))
                img, lbl = train._batch(cases, (c, (z0, h0, w0)), spec)
                assert img.tobytes() == x[window].tobytes()
                assert lbl.tobytes() == onehot[window].tobytes()
        assert any(train._batch(cases, p, spec)[1][..., 3].any() for p in patches)

    @pytest.mark.parametrize("shape, stride", [((16,), (16, 16, 16)), ((16, 16, 16), (16,)),
                                               ((16, 16, 16), (16, 16, 16, 16))])
    def test_spec_needs_three_extents(self, shape, stride):
        with pytest.raises(ValueError, match="must each have 3 extents"):
            PatchSpec(shape, stride)

    def test_stride_defaults_to_the_shape(self):
        assert PatchSpec((16, 16, 16)).stride == (16, 16, 16)
        assert PatchSpec([16, 32, 48], None).stride == (16, 32, 48)


class TestPhantom:
    def test_difficulty_zero_is_piecewise_constant(self):
        case = generate_phantom(Rng(9), (24, 24, 24), 0.0)
        for vol in case.modalities:
            values = np.unique(vol)
            assert len(values) <= 5  # air + at most four region plateaus

    def test_nesting_by_construction(self):
        for seed in range(5):
            case = generate_phantom(Rng(seed), (20, 20, 20), 0.5)
            masks = derive_regions(case.labels)
            assert np.all(masks["ET"] <= masks["TC"])
            assert np.all(masks["TC"] <= masks["WT"])
            assert masks["ET"].sum() > 0

    def test_deterministic(self):
        a = generate_phantom(Rng(10), (16, 16, 16), 0.3)
        b = generate_phantom(Rng(10), (16, 16, 16), 0.3)
        for va, vb in zip(a.modalities, b.modalities):
            assert va.tobytes() == vb.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_background_exactly_zero(self):
        case = generate_phantom(Rng(11), (24, 24, 24), 1.0)
        outside = case.modalities[0] == 0.0
        assert outside.any()
        for vol in case.modalities:
            assert np.all(vol[outside] == 0.0)
            assert np.all(vol[~outside] > 0.0)

    @staticmethod
    def grid_ellipsoid(shape, center, semi):
        """The (z, h, w, 3) coordinate-grid test the phantom used to run:
        the byte oracle for the per-axis `_ellipsoid`."""
        grid = np.stack(
            np.meshgrid(*(np.arange(n) for n in shape), indexing="ij"), axis=-1
        ).astype(DTYPE)
        d = (grid - center) / semi
        return (d * d).sum(axis=-1) <= 1.0

    def test_ellipsoid_matches_grid_oracle(self):
        rng = Rng(14)
        for trial in range(20):
            shape = tuple(int(v) for v in rng.integers(1, 24, 3))
            ext = np.array(shape, dtype=DTYPE)
            center = ext * rng.uniform(-0.2, 1.2, 3)
            semi = np.maximum(ext * rng.uniform(0.05, 0.8, 3), 0.5)
            got = pipeline._ellipsoid(shape, center, semi)
            assert np.array_equal(got, self.grid_ellipsoid(shape, center, semi))

    @pytest.mark.parametrize("shape", [(16, 16, 16), (20, 24, 18), (32, 32, 32)])
    def test_phantom_bytes_match_grid_oracle(self, shape, monkeypatch):
        fast = [generate_phantom(Rng(seed), shape, 0.3) for seed in range(3)]
        monkeypatch.setattr(pipeline, "_ellipsoid", self.grid_ellipsoid)
        for seed, a in enumerate(fast):
            b = generate_phantom(Rng(seed), shape, 0.3)
            assert a.labels.tobytes() == b.labels.tobytes()
            for va, vb in zip(a.modalities, b.modalities):
                assert va.tobytes() == vb.tobytes()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="16"):
            generate_phantom(Rng(12), (8, 32, 32), 0.3)

    def test_difficulty_range_validated(self):
        with pytest.raises(ValueError):
            generate_phantom(Rng(13), (16, 16, 16), 1.5)


class TestCaseIO:
    def test_save_load_round_trip(self, tmp_path):
        case = make_case(14)
        save_case(tmp_path / "caseX", case)
        loaded = load_case(tmp_path / "caseX")
        assert loaded.id == "caseX"
        for a, b in zip(case.modalities, loaded.modalities):
            assert a.tobytes() == b.tobytes()
        assert loaded.labels is None  # labels are read only on request
        assert np.array_equal(case.labels, load_labels(tmp_path / "caseX"))

    def test_missing_modality_named(self, tmp_path):
        case = make_case(15)
        save_case(tmp_path / "caseY", case)
        (tmp_path / "caseY" / "t1ce.npy").unlink()
        with pytest.raises(FileNotFoundError, match="t1ce"):
            load_case(tmp_path / "caseY")

    def test_labels_optional_unless_required(self, tmp_path):
        case = make_case(16, with_labels=False)
        save_case(tmp_path / "caseZ", case)
        assert load_case(tmp_path / "caseZ").labels is None
        with pytest.raises(FileNotFoundError, match="seg"):
            load_labels(tmp_path / "caseZ")

    def test_list_cases_sorted(self, tmp_path):
        for name in ("b_case", "a_case"):
            save_case(tmp_path / name, make_case(17))
        assert [d.name for d in list_cases(tmp_path)] == ["a_case", "b_case"]
