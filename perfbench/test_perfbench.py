"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench

They check that tracing changes no output bit, pin the per-step call
counts of the acceptance network, check the hd95 oracle against the
package, and check the result format the benchmark promises.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from layertrace import Aggregate, Tracer, self_times  # noqa: E402

from agsevnet import infer, losses, train  # noqa: E402
from agsevnet.npyio import write_npy  # noqa: E402
from agsevnet.pipeline import generate_phantom, save_case  # noqa: E402
from agsevnet.rng import Rng  # noqa: E402

# calls per training step of the acceptance network, forward and backward
PER_STEP = {
    "layers.conv3d": 35,
    "layers.deconv3d": 4,
    "layers.instance_norm": 26,
    "se.se_forward": 5,
    "layers.dense": 10,
    "ag.ag_forward": 4,
    "ag.attention_map": 4,
}
BOX_SUMS_PER_STEP = 68


def _tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def test_trace_leaves_training_bitwise_identical_and_counts_calls(tmp_path):
    wl = workloads.TrainP32W4(tmp_path)
    data = wl.write_cases(Rng(5), 2)
    steps = 2
    plain = tmp_path / "plain"
    train.train(wl.config(steps, steps), data, plain, log=lambda s: None)
    traced = tmp_path / "traced"
    with Tracer() as tracer:
        train.train(wl.config(steps, steps), data, traced, log=lambda s: None)
    assert not tracer.installed
    assert _tree(plain) == _tree(traced)

    agg = Aggregate()
    agg.add(tracer.spans)
    for name, per_step in PER_STEP.items():
        assert agg.calls[name, "fwd"] == per_step * steps, name
        assert agg.calls[name, "bwd"] == per_step * steps, name
    assert agg.calls["ag.box_sum", "fwd"] == BOX_SUMS_PER_STEP * steps
    assert agg.calls["network.forward", "bwd"] == steps
    assert agg.calls["train.opt_step", "fwd"] == steps
    assert agg.calls["network.save_checkpoint", "fwd"] == 1


def test_trace_leaves_prediction_bitwise_identical(tmp_path):
    wl = workloads.PredictP64S16(tmp_path)
    plain = wl.replay()
    with Tracer() as tracer:
        traced = wl.replay()
    assert plain.tobytes() == traced.tobytes()
    assert wl.reference_problem(workloads.load_reference()) is None
    agg = Aggregate()
    agg.add(tracer.spans)
    assert agg.calls["network.forward", "fwd"] == 8  # 2^3 patches of a 48^3 case
    assert agg.calls["network.forward", "bwd"] == 0
    assert agg.calls["layers.conv3d", "bwd"] == 0


def _evaluation_case(tmp_path, extent=32):
    truth = generate_phantom(Rng(1).derive("t"), (extent,) * 3, 0.3)
    truth.id = "case000"
    save_case(tmp_path / "truth" / truth.id, truth)
    pred = generate_phantom(Rng(2).derive("p"), (extent,) * 3, 0.3).labels
    (tmp_path / "pred").mkdir()
    write_npy(tmp_path / "pred" / "case000.npy", pred)
    return pred, truth.labels


def test_trace_leaves_evaluation_identical_and_oracle_agrees(tmp_path):
    pred, truth = _evaluation_case(tmp_path)
    plain = infer.evaluate_dirs(tmp_path / "pred", tmp_path / "truth")
    with Tracer():
        traced = infer.evaluate_dirs(tmp_path / "pred", tmp_path / "truth")
    assert plain == traced
    wl = workloads.Evaluate128(tmp_path)
    wl._labels = (pred, truth)
    wl.expect()
    assert wl.check(0, plain) is None
    wl.expected["WT"]["hd95"] += 1e-3
    assert "WT hd95" in wl.check(0, plain)


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (2.5, 1.0, 0.7)])
def test_oracle_matches_package_hd95(spacing):
    rng = np.random.default_rng(3)
    for _ in range(4):
        a = rng.random((12, 14, 10)) < 0.3
        b = rng.random((12, 14, 10)) < 0.3
        want = losses.hausdorff95(a, b, spacing)
        got = oracle.hd95(oracle.surface(a), oracle.surface(b), spacing)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert len(oracle.surface(a)) == len(losses.surface_voxels(a))
    assert oracle.hd95(oracle.surface(np.zeros((4, 4, 4), bool)), oracle.surface(a)) is None


def test_evaluation_streams_are_seeded_and_cost_matched():
    wl = workloads.Evaluate128(Path("."))
    picks = wl.pick_streams(Rng(4))
    assert picks == wl.pick_streams(Rng(4))
    truth = wl._proxy_surfaces(Rng(4).derive("evaluate", picks[0]))
    pred = wl._proxy_surfaces(Rng(4).derive("evaluate", picks[1]))
    assert abs(truth[0] / wl.truth_wt_surface - 1) <= wl.tolerance
    assert abs(float(np.dot(truth, pred)) / wl.pair_target - 1) <= wl.tolerance


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", "fwd", 0.0, 10.0, -1, None],
        ["b", "fwd", 1.0, 4.0, 0, None],
        ["c", "fwd", 2.0, 3.0, 1, None],
        ["d", "bwd", 5.0, 6.0, 0, {"flop": 7}],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    agg = Aggregate()
    assert agg.add(spans) == 10.0
    assert agg.work["d", "bwd", "flop"] == 7


def test_tail_leaves_ten_samples_beyond():
    assert report.tail(list(range(10))) is None
    assert report.tail(list(range(11))) == (0, 100.0 / 11, 10)
    value, pct, beyond = report.tail([float(v) for v in range(40, 0, -1)])
    assert (value, pct, beyond) == (30.0, 75.0, 10)


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == report.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in report.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_run_prints_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "train_p32_w4", "--seed", "1", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in report.PER_LAYER]
    assert result["metrics"]["layers.conv3d.calls"]["value"] == 35
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "train_p32_w4", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
