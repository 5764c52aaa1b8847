"""Patch-parallel prediction: the pooled, streamed, no-grad path of
`infer.stitched_probs` against the serial list oracle in `oracles`, its
worker rule, its per-forward memory bound and how it fails."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from agsevnet import infer
from agsevnet.cli import main
from agsevnet.infer import _worker_count, forward_bytes_bound, predict_case, stitched_probs
from agsevnet.network import NetConfig, build, forward, predict_labels, save_checkpoint
from agsevnet.npyio import write_npy
from agsevnet.pipeline import (
    PatchSpec,
    cut_patch,
    generate_phantom,
    load_case,
    preprocess_case,
    save_case,
)
from agsevnet.rng import Rng
from agsevnet.tensor import ShapeError
from oracles import stitched_probs_oracle

SRC = Path(__file__).resolve().parents[1] / "src"
NET = NetConfig(
    in_channels=4, base_width=4, depths=2, se_reduction=4,
    ag_radius=16, ag_eps=0.01, dropout=0.1, patch_shape=(32, 32, 32),
)
STRIDE = (16, 16, 16)


@pytest.fixture(scope="module")
def params():
    return build(NET, Rng(2))


def _volume(shape, seed=1):
    return preprocess_case(generate_phantom(Rng(seed), shape, 0.3))


def _case_dir(root, shape, seed=1):
    case = generate_phantom(Rng(seed), shape, 0.3)
    case.id = "case000"
    save_case(root / "cases" / case.id, case)
    return root / "cases" / case.id


@pytest.mark.parametrize("shape, stride", [
    ((48, 48, 48), STRIDE),
    ((40, 48, 36), STRIDE),  # ragged: padded last patches on every axis
    ((40, 48, 36), NET.patch_shape),  # stride equal to the patch
])
def test_pool_matches_serial_oracle_bitwise(params, shape, stride):
    x = _volume(shape)
    spec = PatchSpec(NET.patch_shape, stride)
    want = stitched_probs_oracle(x, params, NET, spec)
    assert stitched_probs(x, params, NET, spec).tobytes() == want.tobytes()


def test_more_workers_than_cores_bitwise(params, monkeypatch):
    setters = infer._blas_thread_setters()
    if not setters:
        pytest.skip("no per-thread BLAS setter: the pool always has one worker")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert _worker_count(8, NET, setters) == 4
    x = _volume((48, 48, 48), seed=3)
    spec = PatchSpec(NET.patch_shape, STRIDE)
    want = stitched_probs_oracle(x, params, NET, spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = stitched_probs(x, params, NET, spec)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


def test_caller_blas_thread_count_restored(params):
    x = _volume((48, 32, 32), seed=5)
    spec = PatchSpec(NET.patch_shape, STRIDE)
    setters = infer._blas_thread_setters()
    if _worker_count(len(infer.patch_starts(x.shape[1:4], spec)), NET, setters) < 2:
        pytest.skip("one worker: nothing is pinned")
    original = setters[0](2)
    try:
        stitched_probs(x, params, NET, spec)
    finally:
        assert setters[0](original) == 2


def test_one_worker_fallback_same_bytes(params, monkeypatch):
    x = _volume((48, 48, 48), seed=4)
    spec = PatchSpec(NET.patch_shape, STRIDE)
    pooled = stitched_probs(x, params, NET, spec)
    counts = []

    def counted(*args):
        counts.append(_worker_count(*args))
        return counts[-1]

    monkeypatch.setattr(infer, "_blas_thread_setters", lambda: [])
    monkeypatch.setattr(infer, "_worker_count", counted)
    assert stitched_probs(x, params, NET, spec).tobytes() == pooled.tobytes()
    assert counts == [1]


def test_worker_rule(monkeypatch, tmp_path):
    setters = [lambda n: 0]
    page = 4096
    free = {"pages": 2 ** 40 // page}
    monkeypatch.setattr(infer, "MEMINFO", tmp_path / "absent")  # free pages stand in
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_AVPHYS_PAGES": free["pages"],
                                                     "SC_PAGE_SIZE": page}[name])
    assert _worker_count(27, NET, setters) == 8  # one per CPU
    assert _worker_count(3, NET, setters) == 3  # one per patch
    assert _worker_count(27, NET, []) == 1  # no per-thread BLAS setter
    free["pages"] = (2 * forward_bytes_bound(NET) + page) // page
    assert _worker_count(27, NET, setters) == 2  # as many forwards as free memory holds
    free["pages"] = 1
    assert _worker_count(27, NET, setters) == 1  # never fewer than one
    free["pages"] = 6 * 2 ** 30 // page
    assert _worker_count(27, NetConfig(), setters) == 1  # default config, 6 GiB free

    # MemAvailable counts reclaimable page cache that MemFree (the free pages) does not
    gib_kb = 2 ** 20
    free["pages"] = int(5.85 * 2 ** 30) // page
    meminfo = tmp_path / "meminfo"
    meminfo.write_text(f"MemTotal:       {int(7.75 * gib_kb)} kB\n"
                       f"MemFree:        {int(5.85 * gib_kb)} kB\n"
                       f"MemAvailable:   {int(7.21 * gib_kb)} kB\n")
    monkeypatch.setattr(infer, "MEMINFO", meminfo)
    assert _worker_count(27, NetConfig(), setters) == 2  # default config, 7.21 GiB available
    meminfo.write_text(f"MemFree:        {int(5.85 * gib_kb)} kB\n")  # a kernel before 3.14
    assert _worker_count(27, NetConfig(), setters) == 1  # falls back to the free pages

    def unreadable(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(os, "sysconf", unreadable)
    assert _worker_count(27, NET, setters) == 1


@pytest.mark.parametrize("depths", [2, 3])
@pytest.mark.parametrize("shape, width", [((32, 32, 32), 4), ((16, 32, 48), 2)])
def test_forward_bytes_bound_covers_measured_peak(depths, shape, width):
    cfg = NetConfig(base_width=width, depths=depths, patch_shape=shape, ag_radius=16)
    params = build(cfg, Rng(3))
    x = Rng(4).normal((1, 40, 40, 56, 4))
    spec = PatchSpec(shape, shape)
    tracemalloc.start()
    try:
        forward(cut_patch(x, (4, 4, 4), spec), params, cfg, grad=False)  # what a worker runs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= forward_bytes_bound(cfg)


def test_predict_case_leaves_no_thread(params, tmp_path):
    case_dir = _case_dir(tmp_path, (48, 32, 32))
    before = threading.active_count()
    labels = predict_case(case_dir, params, NET, STRIDE)
    assert threading.active_count() == before
    assert labels.shape == (48, 32, 32)


def test_worker_error_surfaces_unchanged(params, tmp_path, monkeypatch, capsys):
    case_dir = _case_dir(tmp_path, (48, 32, 32))
    raised = []

    def failing(*args, **kwargs):
        exc = ShapeError(f"forward failure {len(raised)}")
        raised.append(exc)
        raise exc

    monkeypatch.setattr(infer, "forward", failing)
    before = threading.active_count()
    with pytest.raises(ShapeError) as info:
        predict_case(case_dir, params, NET, STRIDE)
    assert any(info.value is exc for exc in raised)
    assert threading.active_count() == before

    save_checkpoint(tmp_path / "ckpt", params, NET, 0)
    assert main(["predict", "--checkpoint", str(tmp_path / "ckpt"), "--data",
                 str(tmp_path / "cases"), "--out", str(tmp_path / "pred")]) == 1
    assert "forward failure" in capsys.readouterr().err
    assert not (tmp_path / "pred" / "case000.npy").exists()


def test_cli_predict_subprocess_matches_oracle(params, tmp_path):
    case_dir = _case_dir(tmp_path, (40, 48, 36), seed=6)
    save_checkpoint(tmp_path / "ckpt", params, NET, 0)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-m", "agsevnet.cli", "predict", "--checkpoint", str(tmp_path / "ckpt"),
         "--data", str(tmp_path / "cases"), "--out", str(tmp_path / "pred"), "--stride", "16"],
        env=env, check=True, capture_output=True, timeout=600,
    )
    x = preprocess_case(load_case(case_dir))
    probs = stitched_probs_oracle(x, params, NET, PatchSpec(NET.patch_shape, STRIDE))
    write_npy(tmp_path / "oracle.npy", predict_labels(probs)[0].astype(np.uint8))
    assert (tmp_path / "pred" / "case000.npy").read_bytes() == (tmp_path / "oracle.npy").read_bytes()
