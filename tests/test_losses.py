import numpy as np
import pytest

from agsevnet.checks import dice_grad_closed_form
from agsevnet.gradcheck import max_rel_err, numeric_grad
from agsevnet import losses
from agsevnet.layers import activation
from agsevnet.losses import (
    CLASS_WEIGHTS,
    ConfusionCounts,
    confusion,
    derive_regions,
    dice_loss,
    format_report,
    hausdorff95,
    metric,
    surface_voxels,
)
from agsevnet.pipeline import generate_phantom
from agsevnet.rng import Rng
from oracles import hd95_all_pairs, soft_dice_per_class, surface_distance_pool


def one_hot_from_labels(lbl):
    g = np.zeros(lbl.shape + (4,))
    for c in range(4):
        g[..., c] = lbl == c
    return g


def random_probs(seed, shape):
    logits = Rng(seed).normal(shape + (4,))
    return activation(logits, "softmax_channel").output


def random_onehot(seed, shape):
    return one_hot_from_labels(Rng(seed).integers(0, 4, shape))


class TestSoftDice:
    def test_perfect_prediction(self):
        g = random_onehot(0, (1, 4, 4, 4))
        d = soft_dice_per_class(g, g)
        present = g.sum(axis=(0, 1, 2, 3)) > 0
        assert np.allclose(d[present], 1.0, atol=1e-6)
        assert np.all(d[~present] == 0.0)

    def test_uniform_prediction_all_background(self):
        n = 64
        p = np.full((1, 4, 4, 4, 4), 0.25)
        g = one_hot_from_labels(np.zeros((1, 4, 4, 4), dtype=int))
        d = soft_dice_per_class(p, g)
        # background: 2*0.25N / (0.0625N + N + s)
        expect = 2 * 0.25 * n / (0.0625 * n + n + 1e-7)
        assert d[0] == pytest.approx(expect, rel=1e-9)
        assert d[0] == pytest.approx(0.470588, abs=1e-5)
        assert np.all(d[1:] == 0.0)

    def test_matches_scalar_oracle(self):
        p = random_probs(1, (2, 3, 3, 3))
        g = random_onehot(2, (2, 3, 3, 3))
        d = soft_dice_per_class(p, g)
        for c in range(4):
            inter = pp = gg = 0.0
            for b in range(2):
                for k in range(3):
                    for i in range(3):
                        for j in range(3):
                            inter += p[b, k, i, j, c] * g[b, k, i, j, c]
                            pp += p[b, k, i, j, c] ** 2
                            gg += g[b, k, i, j, c] ** 2
            want = 2 * inter / (pp + gg + 1e-7) if gg > 0 else 0.0
            assert d[c] == pytest.approx(want, abs=1e-12)
        # the oracle for dice_loss: the weighted mean of these scores, negated
        w = np.asarray(CLASS_WEIGHTS)
        loss, _ = dice_loss(p, g)
        assert loss == pytest.approx(-(w * d).sum() / w.sum(), rel=1e-12)

    def test_rejects_non_onehot(self):
        p = random_probs(3, (1, 2, 2, 2))
        bad = np.full((1, 2, 2, 2, 4), 0.25)
        with pytest.raises(ValueError, match="one-hot"):
            soft_dice_per_class(p, bad)


class TestDiceLoss:
    def test_perfect_prediction_scores_minus_one(self):
        lbl = Rng(4).integers(0, 4, (1, 4, 4, 4))
        lbl.flat[:4] = [0, 1, 2, 3]  # every class present
        g = one_hot_from_labels(lbl)
        loss, grad = dice_loss(g, g)
        assert loss == pytest.approx(-1.0, abs=1e-6)

    def test_gradient_on_logits_matches_finite_differences(self):
        logits = Rng(8).normal((1, 3, 3, 3, 4), scale=2.0)
        g = random_onehot(9, (1, 3, 3, 3))
        lg = activation(logits, "softmax_channel")
        _, grad_p = dice_loss(lg.output, g)
        analytic, _ = lg.backward(grad_p)
        numeric = numeric_grad(
            lambda v: dice_loss(activation(v, "softmax_channel").output, g)[0], logits
        )
        assert max_rel_err(analytic, numeric) < 1e-6

    def test_loss_permutation_invariant(self):
        p = random_probs(10, (1, 3, 3, 3))
        g = random_onehot(11, (1, 3, 3, 3))
        loss, _ = dice_loss(p, g)
        perm = Rng(12).permutation(27)
        ps = p.reshape(1, 27, 4)[:, perm].reshape(1, 3, 3, 3, 4)
        gs = g.reshape(1, 27, 4)[:, perm].reshape(1, 3, 3, 3, 4)
        loss2, _ = dice_loss(ps, gs)
        assert loss == pytest.approx(loss2, rel=1e-12)

    def test_closed_form_equals_composed_backward(self):
        for seed in range(20):
            p = random_probs(100 + seed, (1, 4, 4, 4))
            g = random_onehot(200 + seed, (1, 4, 4, 4))
            _, composed = dice_loss(p, g)
            closed = dice_grad_closed_form(p, g)
            wv = np.asarray(CLASS_WEIGHTS)
            assert np.abs(composed - (-(wv / wv.sum()) * closed)).max() < 1e-10


class TestConfusion:
    def test_identical_masks(self):
        truth = np.zeros((10, 10), dtype=bool).reshape(10, 10)
        truth.flat[:10] = True
        c = confusion(truth, truth)
        assert (c.tp, c.fp, c.fn, c.tn) == (10, 0, 0, 90)

    def test_complement(self):
        truth = Rng(13).random((6, 6, 6)) > 0.5
        c = confusion(~truth, truth)
        assert c.tp == 0 and c.tn == 0
        assert c.tp + c.fp + c.fn + c.tn == truth.size

    def test_matches_scalar_oracle(self):
        empty, full = np.zeros((8, 8, 8), dtype=bool), np.ones((8, 8, 8), dtype=bool)
        masks = [empty, full, *(Rng(14 + k).random((8, 8, 8)) > q
                                for k, q in enumerate((0.6, 0.4, 0.97)))]
        for pred in masks:
            for truth in masks:
                c = confusion(pred, truth)
                tp = fp = fn = tn = 0
                for idx in np.ndindex(8, 8, 8):
                    if pred[idx] and truth[idx]:
                        tp += 1
                    elif pred[idx]:
                        fp += 1
                    elif truth[idx]:
                        fn += 1
                    else:
                        tn += 1
                four_masks = [int(np.count_nonzero(a & b)) for a, b in (
                    (pred, truth), (pred, ~truth), (~pred, truth), (~pred, ~truth))]
                assert [c.tp, c.fp, c.fn, c.tn] == [tp, fp, fn, tn] == four_masks


class TestMetric:
    def test_dice_direct(self):
        assert metric("dice", ConfusionCounts(8, 2, 2, 88)) == pytest.approx(0.8)

    def test_identity_masks(self):
        c = ConfusionCounts(12, 0, 0, 88)
        assert metric("dice", c) == 1.0
        assert metric("sensitivity", c) == 1.0

    def test_undefined_conventions(self):
        empty_both = ConfusionCounts(0, 0, 0, 100)
        assert metric("dice", empty_both) == 1.0  # both empty by convention
        assert metric("sensitivity", empty_both) is None
        all_pos = ConfusionCounts(100, 0, 0, 0)
        assert metric("specificity", all_pos) is None


SPACINGS = ((1.0, 1.0, 1.0), (2.5, 1.0, 0.7), (0.3, 1.9, 1.1))


class TestHausdorff:
    def test_identical_masks_zero(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[2:5, 2:6, 3:5] = True
        assert hausdorff95(mask, mask) == 0.0
        assert surface_distance_pool(mask, mask).max() == 0.0

    def test_two_singletons(self):
        a = np.zeros((10, 10, 10), dtype=bool)
        b = np.zeros((10, 10, 10), dtype=bool)
        a[2, 2, 2] = True
        b[2, 2, 7] = True
        assert hausdorff95(a, b) == pytest.approx(5.0)
        assert surface_distance_pool(a, b).max() == pytest.approx(5.0)

    def test_anisotropic_spacing(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[1, 1, 1] = True
        b[2, 1, 1] = True
        assert surface_distance_pool(a, b, spacing=(3.0, 1.0, 1.0)).max() == pytest.approx(3.0)
        assert hausdorff95(a, b, spacing=(3.0, 1.0, 1.0)) == pytest.approx(3.0)

    def test_empty_mask_undefined(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.ones((4, 4, 4), dtype=bool)
        for spacing in SPACINGS:
            assert hausdorff95(a, b, spacing) is None
            assert hausdorff95(b, a, spacing) is None
            assert hd95_all_pairs(a, b, spacing) is None

    def test_pooled_symmetry_and_hd100_bound(self):
        rng = Rng(16)
        for trial in range(10):
            a = rng.random((10, 10, 10)) > 0.7
            b = rng.random((10, 10, 10)) > 0.7
            if not a.any() or not b.any():
                continue
            h_ab = hausdorff95(a, b)
            h_ba = hausdorff95(b, a)
            assert h_ab == pytest.approx(h_ba, abs=1e-12)
            assert h_ab <= surface_distance_pool(a, b).max() + 1e-12

    def test_matches_all_pairs_oracle(self):
        rng = Rng(17)
        pred = rng.random((10, 10, 10)) > 0.75
        truth = rng.random((10, 10, 10)) > 0.75
        got = hausdorff95(pred, truth)

        def surface_oracle(mask):
            pts = []
            for idx in np.ndindex(mask.shape):
                if not mask[idx]:
                    continue
                border = False
                for axis in range(3):
                    for step in (-1, 1):
                        nb = list(idx)
                        nb[axis] += step
                        if not (0 <= nb[axis] < mask.shape[axis]) or not mask[tuple(nb)]:
                            border = True
                pts.append(idx) if border else None
            return np.array(pts, dtype=float)

        ps = surface_oracle(pred)
        ts = surface_oracle(truth)
        pool = []
        for src, dst in ((ts, ps), (ps, ts)):
            for s in src:
                best = min(np.sqrt(((s - d) ** 2).sum()) for d in dst)
                pool.append(best)
        want = float(np.percentile(pool, 95.0, method="linear"))
        assert got == pytest.approx(want, abs=1e-12)

    def test_invalid_spacing_rejected(self):
        a = np.ones((3, 3, 3), dtype=bool)
        for spacing in ((0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, np.inf),
                        (np.nan, 1.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError, match="spacing"):
                hausdorff95(a, a, spacing)

    def test_surface_extraction_six_connectivity(self):
        mask = np.zeros((5, 5, 5), dtype=bool)
        mask[1:4, 1:4, 1:4] = True
        surf = surface_voxels(mask)
        assert len(surf) == 26  # 3x3x3 block minus the hidden center
        slab = np.ones((1, 3, 3), dtype=bool)
        assert len(surface_voxels(slab)) == 9  # volume border counts as outside


def _random_mask(rng, shape, density):
    return rng.random(shape) < density


def _single_voxel(rng, shape):
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(int(rng.integers(0, n)) for n in shape)] = True
    return mask


def _face_touching(rng, shape):
    """A sparse mask with at least one voxel on each of the six faces."""
    mask = rng.random(shape) < 0.1
    for axis in range(3):
        for end in (0, shape[axis] - 1):
            idx = [int(rng.integers(0, n)) for n in shape]
            idx[axis] = end
            mask[tuple(idx)] = True
    return mask


class TestHausdorffOracle:
    """hausdorff95 (distance transform) against the all-pairs pool."""

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_random_masks_match_all_pairs(self, spacing):
        rng = Rng(23)
        worst = 0.0
        for trial in range(40):
            shape = tuple(int(v) for v in rng.integers(1, 13, 3))
            makers = (
                lambda: _random_mask(rng, shape, float(rng.uniform(0.05, 0.8))),
                lambda: _single_voxel(rng, shape),
                lambda: _face_touching(rng, shape),
            )
            pred = makers[trial % 3]()
            truth = makers[(trial // 3) % 3]()
            if not pred.any() or not truth.any():
                continue
            got = hausdorff95(pred, truth, spacing)
            want = hd95_all_pairs(pred, truth, spacing)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_volume_faces_and_single_voxels(self):
        shape = (7, 9, 6)
        full = np.ones(shape, dtype=bool)
        corner = np.zeros(shape, dtype=bool)
        corner[0, 0, 0] = True
        far = np.zeros(shape, dtype=bool)
        far[-1, -1, -1] = True
        for spacing in SPACINGS:
            for pred, truth in ((full, corner), (corner, far), (far, full), (corner, corner)):
                got = hausdorff95(pred, truth, spacing)
                assert abs(got - hd95_all_pairs(pred, truth, spacing)) <= 1e-12

    def test_envelope_slabs_change_nothing(self, monkeypatch):
        rng = Rng(37)
        pred = _random_mask(rng, (9, 11, 7), 0.3)
        truth = _face_touching(rng, (9, 11, 7))
        whole = [hausdorff95(pred, truth, spacing) for spacing in SPACINGS]
        # envelope: one line, a partial slab, a few slabs; sampled pass:
        # one query voxel, a few, then tens per block
        for block, sample in ((1, 1), (50, 20), (200, 200)):
            monkeypatch.setattr(losses, "_ENVELOPE_BLOCK", block)
            monkeypatch.setattr(losses, "_SAMPLE_BLOCK", sample)
            assert [hausdorff95(pred, truth, spacing) for spacing in SPACINGS] == whole
        for got, spacing in zip(whole, SPACINGS):
            assert abs(got - hd95_all_pairs(pred, truth, spacing)) <= 1e-12

    @pytest.mark.parametrize("per_line", [0, 2, 10**9])
    def test_both_axis2_passes_match_all_pairs(self, monkeypatch, per_line):
        # 0: the axis-2 envelope always; 10**9: the sampled pass always;
        # 2: either, by the density of each directed set
        monkeypatch.setattr(losses, "_SAMPLED_PER_LINE", per_line)
        rng = Rng(43)
        for trial in range(12):
            shape = tuple(int(v) for v in rng.integers(2, 12, 3))
            pred = _random_mask(rng, shape, float(rng.uniform(0.05, 0.8)))
            truth = _face_touching(rng, shape)
            if not pred.any():
                continue
            for spacing in SPACINGS:
                got = hausdorff95(pred, truth, spacing)
                assert abs(got - hd95_all_pairs(pred, truth, spacing)) <= 1e-12

    def test_dense_surfaces_take_the_axis2_envelope(self):
        # the sampled pass costs the box width per src voxel, so a noisy
        # prediction whose surface fills most of each line takes the envelope
        rng = Rng(47)
        noisy = surface_voxels(_random_mask(rng, (64, 64, 128), 0.5))
        assert not losses._sample_last_axis(len(noisy), (64, 64, 128))
        truth = derive_regions(generate_phantom(Rng(31).derive("t"), (48, 48, 48), 0.3).labels)
        smooth = surface_voxels(truth["WT"])
        extent = smooth.max(axis=0) + 1 - smooth.min(axis=0)
        assert losses._sample_last_axis(len(smooth), extent)

    @pytest.mark.parametrize("spacing", SPACINGS[:2])
    def test_phantom_pair_48(self, spacing):
        truth = derive_regions(generate_phantom(Rng(31).derive("t"), (48, 48, 48), 0.3).labels)
        pred = derive_regions(generate_phantom(Rng(32).derive("p"), (48, 48, 48), 0.3).labels)
        for region in ("WT", "TC", "ET"):
            got = hausdorff95(pred[region], truth[region], spacing)
            want = hd95_all_pairs(pred[region], truth[region], spacing)
            assert abs(got - want) <= 1e-12


def _surface_uncropped(mask):
    """surface_voxels as it ran over the whole volume: the oracle for the
    bounding-box version."""
    padded = np.pad(mask, 1, constant_values=False)
    interior = np.ones_like(mask)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return np.argwhere(mask & ~interior)


class TestSurfaceVoxels:
    def test_matches_uncropped_oracle(self):
        rng = Rng(41)
        for trial in range(30):
            shape = tuple(int(v) for v in rng.integers(1, 14, 3))
            makers = (
                lambda: _random_mask(rng, shape, float(rng.uniform(0.01, 0.9))),
                lambda: _single_voxel(rng, shape),
                lambda: _face_touching(rng, shape),
                lambda: np.zeros(shape, dtype=bool),
                lambda: np.ones(shape, dtype=bool),
                lambda: np.pad(_random_mask(rng, shape, 0.5),  # box off the volume faces
                               [[int(v) for v in rng.integers(1, 4, 2)] for _ in range(3)]),
            )
            mask = makers[trial % 6]()
            got = surface_voxels(mask)
            want = _surface_uncropped(mask)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)  # same rows in the same order


class TestRegions:
    def test_masks_match_isin(self):
        rng = Rng(43)
        alphabet = np.array([0, 1, 2, 4], dtype=np.uint8)
        for shape in ((1, 1, 1), (5, 7, 3), (16, 16, 16)):
            lbl = alphabet[rng.integers(0, 4, shape)]
            masks = derive_regions(lbl)
            for name, vals in losses.REGION_LABELS.items():
                assert masks[name].dtype == bool
                assert np.array_equal(masks[name], np.isin(lbl, vals))

    def test_check_labels_flags_what_isin_flags(self):
        rng = Rng(44)
        for dtype in (np.uint8, np.int64, np.float64):
            lbl = rng.integers(0, 7, (6, 5, 4)).astype(dtype)
            bad = ~np.isin(lbl, losses.LABEL_VALUES)
            loc = tuple(int(v) for v in np.argwhere(bad)[0])
            with pytest.raises(ValueError, match=rf"label value {int(lbl[loc])} at index \({loc[0]}, "):
                losses.check_labels(lbl)
            lbl[bad] = 4
            losses.check_labels(lbl)

    def test_all_zero(self):
        masks = derive_regions(np.zeros((4, 4, 4), dtype=np.uint8))
        assert all(not m.any() for m in masks.values())

    def test_single_enhancing_voxel_in_all(self):
        lbl = np.zeros((4, 4, 4), dtype=np.uint8)
        lbl[1, 2, 3] = 4
        masks = derive_regions(lbl)
        for name in ("WT", "TC", "ET"):
            assert masks[name][1, 2, 3]
            assert masks[name].sum() == 1

    def test_counts_one_voxel_each(self):
        lbl = np.zeros((4, 4, 4), dtype=np.uint8)
        lbl[0, 0, 0] = 1
        lbl[0, 0, 1] = 2
        lbl[0, 0, 2] = 4
        masks = derive_regions(lbl)
        assert masks["WT"].sum() == 3
        assert masks["TC"].sum() == 2
        assert masks["ET"].sum() == 1

    def test_nesting_on_random_volumes(self):
        for seed in range(5):
            lbl = np.array([0, 1, 2, 4], dtype=np.uint8)[
                Rng(seed).integers(0, 4, (8, 8, 8))
            ]
            masks = derive_regions(lbl)
            assert np.all(masks["ET"] <= masks["TC"])
            assert np.all(masks["TC"] <= masks["WT"])

    def test_unknown_label_reported_with_location(self):
        lbl = np.zeros((3, 3, 3), dtype=np.uint8)
        lbl[1, 0, 2] = 3
        with pytest.raises(ValueError, match=r"label value 3 at index \(1, 0, 2\)"):
            derive_regions(lbl)


class TestCrossChecks:
    def test_confusion_dice_equals_soft_dice_on_binary(self):
        # for binary volumes p^2 = p, so the squared-denominator soft Dice
        # (smoothing off) collapses to the confusion-count form
        rng = Rng(18)
        for trial in range(5):
            pred = rng.random((6, 6, 6)) > 0.5
            truth = rng.random((6, 6, 6)) > 0.5
            c = confusion(pred, truth)
            counts_dice = metric("dice", c)
            p = np.zeros((1, 6, 6, 6, 4))
            g = np.zeros((1, 6, 6, 6, 4))
            p[..., 1] = pred
            p[..., 0] = ~pred
            g[..., 1] = truth
            g[..., 0] = ~truth
            soft = soft_dice_per_class(p, g, smooth=0.0)[1]
            assert abs(counts_dice - soft) < 1e-12


class TestReport:
    def test_identity_report(self):
        rows = [
            {"case_id": "c0", "region": r, "dice": 1.0, "sensitivity": 1.0,
             "specificity": 1.0, "hd95": 0.0}
            for r in ("WT", "TC", "ET")
        ]
        text = format_report(rows)
        assert "case_id,region,dice,sensitivity,specificity,hd95" in text
        assert "c0,WT,1.000000,1.000000,1.000000,0.000000" in text
        assert "mean,WT,1.000000" in text

    def test_summary_mean_is_arithmetic_mean(self):
        rows = [
            {"case_id": f"c{k}", "region": "WT", "dice": d, "sensitivity": 0.5,
             "specificity": 0.5, "hd95": None}
            for k, d in enumerate((0.2, 0.4, 0.9))
        ]
        text = format_report(rows)
        assert "mean,WT,0.500000,0.500000,0.500000,undefined" in text
        assert "median,WT,0.400000" in text

    def test_deterministic(self):
        rows = [
            {"case_id": "b", "region": "WT", "dice": 0.5, "sensitivity": None,
             "specificity": 0.25, "hd95": 2.0},
            {"case_id": "a", "region": "ET", "dice": 0.25, "sensitivity": 1.0,
             "specificity": 0.5, "hd95": 1.0},
        ]
        assert format_report(rows) == format_report(list(reversed(rows)))
