"""The three benchmark workloads and the closed-loop op clock they share.

Each workload generates its inputs from the run's seed, sets up, and then
runs ops back to back for the requested seconds: one client that waits
for each call before making the next. Every op output goes through a
correctness gate. Train and predict also replay a canonical input whose
outputs were recorded with the benchmark (`reference.json`); evaluation
is checked against an independent oracle instead (`oracle.py`).

The benchmark only calls public functions of the package; it does not
change the package in any way.
"""

from __future__ import annotations

import json
import re
import shutil
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from layertrace import Aggregate

from agsevnet import infer, network, pipeline, train
from agsevnet.npyio import write_npy
from agsevnet.rng import Rng

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 2107
DIFFICULTY = 0.3
STREAM_CANDIDATES = 200  # phantom streams searched for a cost-matched evaluation pair

# The acceptance-scale network (criterion 9 of the test suite).
NET = network.NetConfig(
    in_channels=4, base_width=4, depths=2, se_reduction=4,
    ag_radius=16, ag_eps=0.01, dropout=0.1, patch_shape=(32, 32, 32),
)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _quiet(message: str) -> None:
    pass


class Stop(Exception):
    """Raised from the training log callback once the timed phase is over."""


class OpClock:
    """Times consecutive ops and, in a traced run, traces every other op.

    Alternating traced and untraced ops inside one run measures the
    tracing overhead under identical conditions; the untraced ops of a
    traced run are otherwise ignored.
    """

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.latencies: list[float] = []
        self.traced: list[bool] = []
        self.problems: list[str] = []
        self.aggregate = Aggregate()
        self.covered_s = 0.0
        self.last_spans: list = []
        self.started = False

    def start(self) -> None:
        self.started = True
        self._t_start = perf_counter()
        self.arm()

    def arm(self) -> None:
        """Begin the next op."""
        self._tracing = self.tracer is not None and len(self.latencies) % 2 == 1
        if self._tracing:
            self.tracer.spans = []
            self.tracer.install()
        self._t = perf_counter()

    def lap(self) -> None:
        """End the current op."""
        self.latencies.append(perf_counter() - self._t)
        self.traced.append(self._tracing)
        if self._tracing:
            self.tracer.uninstall()
            self.covered_s += self.aggregate.add(self.tracer.spans)
            self.last_spans = self.tracer.spans

    def record(self, problem: str | None) -> None:
        if problem is not None:
            self.problems.append(f"op {len(self.latencies) - 1}: {problem}")

    @property
    def expired(self) -> bool:
        return perf_counter() - self._t_start >= self.seconds

    def loop(self, op, check) -> None:
        """Run op(i) until the time is up; check(i, output) -> problem or None
        runs between ops, outside the timing."""
        self.start()
        i = 0
        while True:
            try:
                out, problem = op(i), None
            except Exception as exc:  # a failing op is counted, not fatal
                out, problem = None, f"{type(exc).__name__}: {exc}"
            self.lap()
            self.record(problem or check(i, out))
            if self.expired:
                return
            self.arm()
            i += 1


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def record_reference(work: Path) -> dict:
    """Rewrite the reference file from the current code's outputs."""
    reference = {
        "train_losses": TrainP32W4(work).replay(),
        "predict_labels_sha256": label_digest(PredictP64S16(work).replay()),
    }
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return reference


def label_digest(labels: np.ndarray) -> str:
    return sha256(np.ascontiguousarray(labels).tobytes()).hexdigest()


# ---------------------------------------------------------------------------

class TrainP32W4:
    """train.train on 16 phantom cases of 32^3 with the acceptance network.

    One op is one training step: forward, loss, backward, optimizer, and
    the checkpoint write when one is due. Ops are timed between
    consecutive calls of train's per-step log callback, so an op holds
    the checkpoint write that follows the step before it.
    """

    name = "train_p32_w4"
    voxels_per_op = 32 ** 3
    cases = 16
    checkpoint_interval = 5  # several writes land in every timed window

    def __init__(self, work: Path):
        self.work = work

    @staticmethod
    def config(max_steps: int, checkpoint_interval: int) -> train.TrainConfig:
        return train.TrainConfig(
            net=NET, lr_initial=3e-3, lr_decayed=1e-3, lr_decay_step=min(300, max_steps),
            max_steps=max_steps, checkpoint_interval=checkpoint_interval, seed=7,
        )

    def write_cases(self, rng: Rng, count: int) -> Path:
        data = _fresh(self.work / "train_cases")
        for k in range(count):
            case = pipeline.generate_phantom(rng.derive("train", k), (32, 32, 32), DIFFICULTY)
            case.id = f"case{k:03d}"
            pipeline.save_case(data / case.id, case)
        return data

    def setup(self, seed: int) -> None:
        self.data = self.write_cases(Rng(seed), self.cases)
        # warm-up: load patches, build parameters, one step, one checkpoint
        train.train(self.config(1, 1), self.data, _fresh(self.work / "train_warm"), log=_quiet)

    def run(self, clock: OpClock) -> None:
        def log(message: str) -> None:
            if not message.startswith("step"):
                return
            if not clock.started:  # step 0 also paid for loading and building
                clock.start()
                return
            clock.lap()
            match = re.search(r"loss\s+(\S+)", message)
            loss = float(match.group(1)) if match else float("nan")
            ok = -1.0 <= loss <= 0.0  # false for nan and inf as well
            clock.record(None if ok else f"loss {loss} outside [-1, 0] ({message!r})")
            if clock.expired:
                raise Stop
            clock.arm()

        config = self.config(1_000_000, self.checkpoint_interval)
        try:
            train.train(config, self.data, _fresh(self.work / "train_run"), log=log)
        except Stop:
            pass
        except Exception as exc:
            if clock.started:
                clock.lap()
                clock.record(f"{type(exc).__name__}: {exc}")
            else:
                raise

    def replay(self) -> list[float]:
        """Loss series of 3 steps on the canonical 2-case input."""
        data = self.write_cases(Rng(REFERENCE_SEED), 2)
        out = _fresh(self.work / "train_reference")
        train.train(self.config(3, 3), data, out, log=_quiet)
        return [float(line.split()[2]) for line in (out / "losses.txt").read_text().split("\n") if line]

    def reference_problem(self, reference: dict) -> str | None:
        got = self.replay()
        want = reference["train_losses"]
        if len(got) != len(want) or not np.allclose(got, want, rtol=1e-9, atol=0.0):
            return f"reference loss series {got} != recorded {want}"
        return None


class PredictP64S16:
    """infer.predict_case on 64^3 phantoms with stride 16: 27 overlapping
    32^3 patches per case, forward only. One op is one case."""

    name = "predict_p64_s16"
    voxels_per_op = 64 ** 3
    stride = (16, 16, 16)
    cases = 2

    def __init__(self, work: Path):
        self.work = work

    def _write_case(self, rng: Rng, directory: Path, extent: int) -> Path:
        case = pipeline.generate_phantom(rng, (extent,) * 3, DIFFICULTY)
        pipeline.save_case(directory, case)
        return directory

    def setup(self, seed: int) -> None:
        rng = Rng(seed)
        root = _fresh(self.work / "predict_cases")
        self.case_dirs = [
            self._write_case(rng.derive("predict", k), root / f"case{k:03d}", 64)
            for k in range(self.cases)
        ]
        checkpoint = self.work / "predict_checkpoint"
        network.save_checkpoint(checkpoint, network.build(NET, rng.derive("init")), NET, 0)
        self.params, self.net, _, _ = network.load_checkpoint(checkpoint)
        network.forward(np.zeros((1, *NET.patch_shape, NET.in_channels)), self.params, self.net)
        self.first_labels: dict[int, np.ndarray] = {}

    def run(self, clock: OpClock) -> None:
        def op(i):
            return infer.predict_case(self.case_dirs[i % self.cases], self.params, self.net,
                                      self.stride)

        def check(i, labels):
            problem = label_problem(labels, (64, 64, 64))
            first = self.first_labels.setdefault(i % self.cases, labels)
            if problem is None and not np.array_equal(labels, first):
                problem = "labels differ from the first prediction of the same case"
            return problem

        clock.loop(op, check)

    def replay(self) -> np.ndarray:
        """Labels of the canonical 48^3 case (8 patches at stride 16)."""
        rng = Rng(REFERENCE_SEED)
        case_dir = self._write_case(rng.derive("predict"), self.work / "predict_reference", 48)
        params = network.build(NET, rng.derive("init"))
        return infer.predict_case(case_dir, params, NET, self.stride)

    def reference_problem(self, reference: dict) -> str | None:
        labels = self.replay()
        problem = label_problem(labels, (48, 48, 48))
        digest = label_digest(labels)
        if problem is None and digest != reference["predict_labels_sha256"]:
            problem = f"reference labels sha256 {digest} != recorded"
        return problem


def label_problem(labels, shape) -> str | None:
    if labels.shape != shape:
        return f"label shape {labels.shape} != {shape}"
    if labels.dtype != np.uint8 or not np.isin(labels, (0, 1, 2, 4)).all():
        return f"labels outside the {{0,1,2,4}} alphabet (dtype {labels.dtype})"
    return None


class Evaluate128:
    """infer.evaluate_dirs on one 128^3 phantom truth against the labels of
    a phantom from another stream. One op is one case (WT, TC, ET).

    All-pairs hd95 costs about |S_pred| * |S_truth| per region, and phantom
    surfaces vary by about 1.5x in area between streams. So that seeds
    vary the geometry but not the cost, the two streams are picked by
    surface size measured on 32^3 renderings of the same streams (the
    phantom geometry scales with the extent): the truth by its WT surface,
    the prediction by the pair count it makes with that truth.
    """

    name = "evaluate_128"
    voxels_per_op = 128 ** 3
    extent = 128
    proxy_extent = 32
    truth_wt_surface = 776  # median WT surface voxels at 32^3
    pair_target = 735_000  # median of sum_r |S_pred,r| * |S_truth,r| at 32^3
    tolerance = 0.03

    def __init__(self, work: Path):
        self.work = work

    def _proxy_surfaces(self, rng: Rng) -> np.ndarray:
        labels = pipeline.generate_phantom(rng, (self.proxy_extent,) * 3, DIFFICULTY).labels
        masks = oracle.regions(labels)
        return np.array([len(oracle.surface(masks[r])) for r in oracle.REGIONS])

    def pick_streams(self, rng: Rng) -> tuple[int, int]:
        truth_k = truth = None
        for k in range(STREAM_CANDIDATES):
            surfaces = self._proxy_surfaces(rng.derive("evaluate", k))
            if truth is None:
                if abs(surfaces[0] / self.truth_wt_surface - 1.0) <= self.tolerance:
                    truth_k, truth = k, surfaces
            elif abs(float(np.dot(surfaces, truth)) / self.pair_target - 1.0) <= self.tolerance:
                return truth_k, k
        raise RuntimeError(f"no phantom pair within {self.tolerance:.0%} of the cost target "
                           f"among {STREAM_CANDIDATES} candidates")

    def prepare(self, seed: int) -> None:
        """Pick the two streams once per run, before (and outside) set-up:
        the search renders phantoms the program is never given."""
        self.streams = self.pick_streams(Rng(seed))

    def setup(self, seed: int) -> None:
        rng = Rng(seed)
        truth_k, pred_k = self.streams
        shape = (self.extent,) * 3
        truth = pipeline.generate_phantom(rng.derive("evaluate", truth_k), shape, DIFFICULTY)
        truth.id = "case000"
        self.truth_dir = _fresh(self.work / "evaluate_truth")
        pipeline.save_case(self.truth_dir / truth.id, truth)
        # only the labels are needed from here on; free the modalities first
        truth_labels = truth.labels
        del truth
        pred_labels = pipeline.generate_phantom(rng.derive("evaluate", pred_k), shape, DIFFICULTY).labels
        self.pred_dir = _fresh(self.work / "evaluate_pred")
        write_npy(self.pred_dir / "case000.npy", pred_labels)
        self._labels = (pred_labels, truth_labels)

    def expect(self) -> None:
        """Oracle values for the case, computed once, outside the timing."""
        self.expected = oracle.case_expectations(*self._labels)
        self.surface_pairs = sum(r["surface_pairs"] for r in self.expected.values())

    def run(self, clock: OpClock) -> None:
        clock.loop(lambda i: infer.evaluate_dirs(self.pred_dir, self.truth_dir), self.check)

    def check(self, i, report: str) -> str | None:
        rows = {}
        for line in report.splitlines():
            cells = line.split(",")
            if len(cells) == 6 and cells[0] == "case000":
                rows[cells[1]] = cells
        for region, want in self.expected.items():
            if region not in rows:
                return f"report has no {region} row"
            for col, key in ((2, "dice"), (5, "hd95")):
                got = rows[region][col]
                if want[key] is None:
                    if got != "undefined":
                        return f"{region} {key} {got} != undefined"
                elif got == "undefined" or abs(float(got) - want[key]) > 1e-6:
                    return f"{region} {key} {got} != oracle {want[key]:.9f}"
        return None


WORKLOADS = {w.name: w for w in (TrainP32W4, PredictP64S16, Evaluate128)}
