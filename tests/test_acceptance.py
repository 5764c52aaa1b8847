"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured margin (run with -s to see them inline).

The end-to-end training criterion (9) and the gradient sweep (1) are
the slow ones, marked `slow` (`pytest -m "not slow"` skips them);
everything else completes in seconds.
"""

import time

import numpy as np
import pytest

from agsevnet.ag import _fit_forward, box_sum, window_counts
from agsevnet.checks import box_sum_oracle, dice_grad_closed_form, fit_oracle, run_checks
from agsevnet.infer import evaluate_dirs, predict_dir
from agsevnet.layers import (
    Conv3dParams,
    Deconv3dParams,
    activation,
    conv3d_forward,
    conv_output_extent,
    deconv3d_forward,
)
from agsevnet.losses import (
    CLASS_WEIGHTS,
    confusion,
    derive_regions,
    dice_loss,
    hausdorff95,
    region_rows,
)
from agsevnet.network import NetConfig, build, forward, load_checkpoint
from agsevnet.npyio import read_npy, write_npy
from agsevnet.pipeline import generate_phantom, save_case
from agsevnet.rng import Rng
from agsevnet.train import TrainConfig, train


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})", flush=True)


def one_hot(lbl):
    g = np.zeros(lbl.shape + (4,))
    for c in range(4):
        g[..., c] = lbl == c
    return g


@pytest.mark.slow
def test_criterion_01_gradient_suite():
    started = time.time()
    worst = {}
    for seed in range(5):
        for scope in ("layers", "se", "ag", "net", "loss"):
            for r in run_checks(scope, seed):
                assert r.passed, f"{r.name} seed {seed}: {r.max_err:.3e} > tol {r.tol:.0e}"
                worst[r.name] = max(worst.get(r.name, 0.0), r.max_err / r.tol)
    elapsed = time.time() - started
    assert elapsed < 300.0, f"gradient suite took {elapsed:.0f}s (budget 300s)"
    report(
        "1 gradient suite",
        f"{len(worst)} components x 5 seeds, worst margin {max(worst.values()):.2e} of tol, {elapsed:.0f}s",
    )


def test_criterion_02_dice_gradient_closed_form_equivalence():
    worst = 0.0
    for seed in range(20):
        logits = Rng(1000 + seed).normal((1, 4, 4, 4, 4), scale=2.0)
        p = activation(logits, "softmax_channel").output
        g = one_hot(Rng(2000 + seed).integers(0, 4, (1, 4, 4, 4)))
        _, composed = dice_loss(p, g)
        wv = np.asarray(CLASS_WEIGHTS)
        recomposed = -(wv / wv.sum()) * dice_grad_closed_form(p, g)
        worst = max(worst, float(np.abs(composed - recomposed).max()))
    assert worst < 1e-10
    report("2 closed-form dice gradient", f"20 pairs, max deviation {worst:.2e} < 1e-10")


def test_criterion_03_guided_filter_oracle():
    worst_weighted = 0.0
    for r in (1, 2, 3):
        i = Rng(300 + r).normal((1, 6, 6, 6, 1))
        o = Rng(310 + r).normal((1, 6, 6, 6, 1))
        t = Rng(320 + r).uniform(0.05, 1.0, (1, 6, 6, 6, 1))
        got_a, got_b = _fit_forward(i, o, t, r, 0.01)[:2]
        want_a, want_b = fit_oracle(i[0, ..., 0], o[0, ..., 0], t[0, ..., 0], r, 0.01)
        worst_weighted = max(
            worst_weighted,
            float(np.abs(got_a[0, ..., 0] - want_a).max()),
            float(np.abs(got_b[0, ..., 0] - want_b).max()),
        )
    assert worst_weighted < 1e-10

    worst_classical = 0.0
    for r in (1, 2, 3):
        i = Rng(330 + r).normal((1, 6, 6, 6, 1))
        o = Rng(340 + r).normal((1, 6, 6, 6, 1))
        got_a, got_b = _fit_forward(i, o, np.ones((1, 6, 6, 6, 1)), r, 0.01)[:2]
        counts = window_counts((6, 6, 6), r)
        mean_i = box_sum(i, r) / counts
        mean_o = box_sum(o, r) / counts
        var = box_sum(i * i, r) / counts - mean_i ** 2
        cov = box_sum(i * o, r) / counts - mean_i * mean_o
        a = cov / (var + 0.01)
        b = mean_o - a * mean_i
        worst_classical = max(
            worst_classical,
            float(np.abs(got_a - box_sum(a, r) / counts).max()),
            float(np.abs(got_b - box_sum(b, r) / counts).max()),
        )
    assert worst_classical < 1e-14  # float-exact reduction at constant attention
    report(
        "3 guided-filter fit oracle",
        f"weighted max dev {worst_weighted:.2e} < 1e-10, classical {worst_classical:.2e}",
    )


def test_criterion_04_box_sum_oracle():
    rng = Rng(4)
    exact_int = 0
    worst_float = 0.0
    for trial in range(50):
        r = int(rng.integers(1, 4))
        shape = tuple(int(v) for v in rng.integers(4, 9, 3))
        if trial % 2 == 0:
            x = rng.integers(-30, 30, (1, *shape, 2)).astype(float)
            assert np.array_equal(box_sum(x, r), box_sum_oracle(x, r))
            exact_int += 1
        else:
            x = rng.normal((1, *shape, 2))
            worst_float = max(worst_float, float(np.abs(box_sum(x, r) - box_sum_oracle(x, r)).max()))
    assert worst_float < 1e-12
    report("4 box_sum oracle", f"{exact_int} integer volumes bitwise, float max dev {worst_float:.2e}")


def test_criterion_05_conv_arithmetic_and_adjointness():
    grid = 0
    for i in (5, 6, 7, 9, 12, 16):
        for k in (1, 2, 3, 4):
            for s in (1, 2, 3):
                for p in (0, 1, 2):
                    o = conv_output_extent(i, k, s, p)
                    if o < 1 or k > i + 2 * p:
                        continue
                    x = np.zeros((1, i, i, i, 1))
                    out = conv3d_forward(
                        x, Conv3dParams(np.zeros((k, k, k, 1, 1)), np.zeros(1), s, p)
                    ).output
                    assert out.shape[1] == (i + 2 * p - k) // s + 1
                    grid += 1
    for i in (2, 3, 5, 8):
        x = np.zeros((1, i, i, i, 1))
        out = deconv3d_forward(
            x, Deconv3dParams(np.zeros((3, 3, 3, 1, 1)), 2, 1, 1)
        ).output
        assert out.shape[1:4] == (2 * i,) * 3

    worst = 0.0
    for seed in range(10):
        rng = Rng(500 + seed)
        i, s, p = [(9, 2, 1), (8, 2, 0), (7, 3, 1), (6, 1, 1), (10, 2, 1)][seed % 5]
        kernel = rng.normal((3, 3, 3, 3, 2), scale=0.5)
        y = rng.normal((1, i, i, i, 3))
        conv = conv3d_forward(y, Conv3dParams(kernel, np.zeros(2), s, p))
        o = conv.output.shape[1]
        x = rng.normal((1, o, o, o, 2))
        dec = deconv3d_forward(
            x, Deconv3dParams(kernel, s, p, (i + 2 * p - 3) % s)
        )
        lhs = float((dec.output * y).sum())
        rhs = float((x * conv.output).sum())
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-10
    report(
        "5 conv arithmetic",
        f"{grid} conv grid points, deconv doubles, adjointness max dev {worst:.2e} < 1e-10",
    )


def test_criterion_06_network_shape_contract():
    checked = []
    for patch in (16, 32):
        for base_width in (2, 4):
            cfg = NetConfig(
                in_channels=2, base_width=base_width, depths=2, se_reduction=4,
                ag_radius=2, ag_eps=0.05, dropout=0.0, patch_shape=(patch,) * 3,
            )
            params = build(cfg, Rng(60))
            x = Rng(61).normal((1, patch, patch, patch, 2))
            out = forward(x, params, cfg).output
            assert out.shape == (1, patch, patch, patch, 4)
            assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
            checked.append((patch, base_width))
    report("6 shape contract", f"configs {checked}, channel sums within 1e-12")


def linear_percentile_oracle(values, q):
    """Independent linear-interpolation (inclusive) percentile."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    frac = pos - lo
    return v[lo] * (1 - frac) + v[hi] * frac


def hd95_oracle(pred, truth):
    def surface(mask):
        pts = []
        for idx in np.ndindex(mask.shape):
            if not mask[idx]:
                continue
            boundary = False
            for axis in range(3):
                for step in (-1, 1):
                    nb = list(idx)
                    nb[axis] += step
                    if not (0 <= nb[axis] < mask.shape[axis]) or not mask[tuple(nb)]:
                        boundary = True
            if boundary:
                pts.append(idx)
        return np.array(pts, dtype=float)

    ps, ts = surface(pred), surface(truth)
    pool = []
    for src, dst in ((ts, ps), (ps, ts)):
        for s in src:
            pool.append(float(np.sqrt(((dst - s) ** 2).sum(axis=1)).min()))
    return linear_percentile_oracle(pool, 95.0)


def test_criterion_07_metrics_oracle():
    rng = Rng(7)
    pairs = 0
    worst_hd = 0.0
    while pairs < 100:
        n = int(rng.integers(8, 11))
        pred = rng.random((n, n, n)) > 0.72
        truth = rng.random((n, n, n)) > 0.72
        if not pred.any() or not truth.any():
            continue
        pairs += 1
        tp = int(np.sum(pred & truth))
        fp = int(np.sum(pred & ~truth))
        fn = int(np.sum(~pred & truth))
        tn = int(np.sum(~pred & ~truth))
        assert confusion(pred, truth) == (tp, fp, fn, tn)
        # label volumes 4 * mask: WT = TC = ET = the mask
        for row in region_rows("c", 4 * pred.astype(np.uint8), 4 * truth.astype(np.uint8)):
            assert row["dice"] == 2 * tp / (fn + fp + 2 * tp)
            assert row["sensitivity"] == tp / (tp + fn)
            assert row["specificity"] == tn / (tn + fp)
        if pairs <= 25:  # the all-pairs python oracle is the slow part
            got = hausdorff95(pred, truth)
            want = hd95_oracle(pred, truth)
            worst_hd = max(worst_hd, abs(got - want))
    assert worst_hd < 1e-12
    mask = Rng(71).random((9, 9, 9)) > 0.6
    self_rows = region_rows("c", 4 * mask.astype(np.uint8), 4 * mask.astype(np.uint8))
    assert [row["dice"] for row in self_rows] == [1.0, 1.0, 1.0]
    assert hausdorff95(mask, mask) == 0.0
    report(
        "7 metrics oracle",
        f"100 mask pairs (counts exact), hd95 max dev {worst_hd:.2e} < 1e-12, identity dice 1.0 / hd95 0.0",
    )


def test_criterion_08_region_nesting():
    cases = 0
    for seed in range(10):
        case = generate_phantom(Rng(800 + seed), (24, 24, 24), 0.5)
        masks = derive_regions(case.labels)
        assert np.all(masks["ET"] <= masks["TC"]) and np.all(masks["TC"] <= masks["WT"])
        cases += 1
    for seed in range(10):
        lbl = np.array([0, 1, 2, 4], dtype=np.uint8)[Rng(900 + seed).integers(0, 4, (8, 8, 8))]
        masks = derive_regions(lbl)
        assert np.all(masks["ET"] <= masks["TC"]) and np.all(masks["TC"] <= masks["WT"])
        cases += 1
    report("8 region nesting", f"{cases} phantom/random label volumes, ET ⊆ TC ⊆ WT")


@pytest.fixture(scope="module")
def phantom_split(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantoms")
    rng = Rng(2024)
    for k in range(20):
        case = generate_phantom(rng.derive("phantom", k), (32, 32, 32), 0.3)
        case.id = f"case{k:03d}"
        save_case((root / "train" if k < 16 else root / "val") / case.id, case)
    return root


@pytest.mark.slow
def test_criterion_09_end_to_end_phantom_run(phantom_split, tmp_path):
    started = time.time()
    net = NetConfig(
        in_channels=4, base_width=4, depths=2, se_reduction=4,
        ag_radius=16, ag_eps=0.01, dropout=0.1, patch_shape=(32, 32, 32),
    )
    cfg = TrainConfig(
        net=net, lr_initial=3e-3, lr_decayed=1e-3, lr_decay_step=300,
        max_steps=400, checkpoint_interval=400, seed=7,
    )
    assert cfg.max_steps <= 500
    checkpoint = train(cfg, phantom_split / "train", tmp_path / "run", log=lambda s: None)
    params, config, _, _ = load_checkpoint(checkpoint)
    predict_dir(phantom_split / "val", params, config, tmp_path / "pred", log=lambda s: None)
    text = evaluate_dirs(tmp_path / "pred", phantom_split / "val")
    (tmp_path / "report.csv").write_text(text)
    means = {
        line.split(",")[1]: float(line.split(",")[2])
        for line in text.splitlines()
        if line.startswith("mean")
    }
    elapsed = time.time() - started
    assert means["WT"] >= 0.80, f"held-out WT dice {means['WT']:.3f} < 0.80"
    assert means["ET"] >= 0.60, f"held-out ET dice {means['ET']:.3f} < 0.60"
    assert means["WT"] >= means["ET"], f"ordering violated: WT {means['WT']:.3f} < ET {means['ET']:.3f}"
    assert elapsed <= 1800.0, f"end-to-end run took {elapsed:.0f}s (budget 1800s)"
    report(
        "9 end-to-end phantom run",
        f"WT {means['WT']:.3f} ≥ 0.80, ET {means['ET']:.3f} ≥ 0.60, WT ≥ ET, "
        f"TC {means['TC']:.3f}, {cfg.max_steps} steps in {elapsed:.0f}s",
    )


def test_criterion_10_reproducibility(tmp_path):
    root = tmp_path / "cases"
    rng = Rng(10)
    for k in range(2):
        case = generate_phantom(rng.derive("phantom", k), (16, 16, 16), 0.2)
        case.id = f"case{k:03d}"
        save_case(root / case.id, case)
    net = NetConfig(
        in_channels=4, base_width=2, depths=2, se_reduction=4,
        ag_radius=2, ag_eps=0.05, dropout=0.2, patch_shape=(16, 16, 16),
    )
    cfg = TrainConfig(net=net, lr_initial=1e-3, lr_decayed=3e-4, lr_decay_step=6,
                      max_steps=8, checkpoint_interval=4, seed=5)

    def run(out):
        ck = train(cfg, root, out, log=lambda s: None)
        params, config, _, _ = load_checkpoint(ck)
        predict_dir(root, params, config, out / "pred", log=lambda s: None)
        (out / "report.csv").write_text(evaluate_dirs(out / "pred", root))

    def tree_bytes(path):
        return {
            p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*"))
            if p.is_file()
        }

    run(tmp_path / "a")
    run(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    half = TrainConfig(net=net, lr_initial=1e-3, lr_decayed=3e-4, lr_decay_step=4,
                       max_steps=4, checkpoint_interval=4, seed=5)
    # resume the half-run to completion; the decay schedule of `cfg` applies
    train(half, root, tmp_path / "c", log=lambda s: None)
    train(cfg, root, tmp_path / "c", resume=tmp_path / "c" / "checkpoint", log=lambda s: None)
    a = load_checkpoint(tmp_path / "a" / "checkpoint")
    c = load_checkpoint(tmp_path / "c" / "checkpoint")
    assert a[2] == c[2]
    for name in a[0]:
        assert a[0][name].tobytes() == c[0][name].tobytes()
    report("10 reproducibility", "two runs byte-identical (checkpoints, predictions, reports); resume bitwise")


def test_criterion_11_npy_round_trip(tmp_path):
    rng = Rng(11)
    for trial in range(50):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(v) for v in rng.integers(1, 6, ndim))
        if trial % 3 == 0:
            arr = (rng.random(shape) * 255).astype(np.uint8)
        else:
            arr = rng.normal(shape)
        path = tmp_path / f"t{trial}.npy"
        write_npy(path, arr)
        back = read_npy(path)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert arr.tobytes() == back.tobytes()
        third_party = np.load(path)  # independent reader must accept our files
        assert np.array_equal(third_party, arr)
    ours = read_npy(_numpy_written(tmp_path, rng))
    assert ours.dtype == np.float64
    report("11 npy round-trip", "50 tensors bit-exact; files readable by the numpy reference reader")


def _numpy_written(tmp_path, rng):
    path = tmp_path / "from_numpy.npy"
    np.save(path, rng.normal((3, 4, 5)))
    return path
