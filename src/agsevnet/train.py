"""Training loop: weighted soft-Dice descent with a two-phase learning
rate schedule, seeded per-traversal shuffling, and bitwise-resumable
checkpoints.

All randomness is derived from (seed, step/traversal) rather than from
mutable generator state, so resuming from a checkpoint replays exactly
the run that would have happened without the interruption. Optimizer
moment arrays ride along in the checkpoint under the `opt.` prefix, and
the run's training config and history (loss and validation rows) as
text files, so a checkpoint alone holds everything a resume replays.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .infer import predict_case
from .losses import (
    LABEL_VALUES,
    METRIC_ORDER,
    REGION_ORDER,
    ClassWeights,
    check_labels,
    dice_loss,
    region_rows,
    summary_cells,
)
from .network import (
    NetConfig,
    build,
    check_finite_floats,
    config_from_text,
    config_to_text,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .npyio import write_npy
from .pipeline import (
    LABEL_FILE,
    Case,
    PatchSpec,
    cut_patch,
    list_cases,
    load_case,
    load_labels,
    patch_starts,
    preprocess_case,
)
from .rng import Rng
from .tensor import DTYPE

# training files inside a checkpoint; the history files are copied to the out dir
TRAIN_CONFIG_FILE = "train_config.txt"
LOSS_FILE, LOSS_LINE = "losses.txt", "{} {:.8e} {:.17e}\n"  # step, learning rate, loss
VAL_FILE, VAL_LINE = "val.txt", "{} {}\n"  # step, validation row


@dataclass
class TrainConfig:
    net: NetConfig = field(default_factory=NetConfig)
    lr_initial: float = 1e-4
    lr_decayed: float = 3e-5
    lr_decay_step: int = 200
    max_steps: int = 300
    checkpoint_interval: int = 100
    seed: int = 0
    class_weights: tuple[float, float, float, float] = (0.1, 1.0, 1.0, 1.0)
    optimizer: str = "adam"  # adam or sgd
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    momentum: float = 0.9
    batch_size: int = 1
    patch_stride: tuple[int, int, int] | None = None  # defaults to the patch shape

    TITLE = "# training configuration"

    def __post_init__(self):
        self.class_weights = tuple(float(v) for v in self.class_weights)
        if self.patch_stride is not None:
            self.patch_stride = tuple(int(v) for v in self.patch_stride)
        self.validate()

    def validate(self):
        check_finite_floats(self)
        if self.lr_initial <= 0 or self.lr_decayed <= 0:
            raise ValueError("learning rates must be positive")
        if not all(0.0 <= v < 1.0 for v in (self.beta1, self.beta2, self.momentum)):
            raise ValueError("beta1, beta2 and momentum must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")
        ClassWeights(self.class_weights)
        if not 0 <= self.lr_decay_step <= self.max_steps:
            raise ValueError("lr_decay_step must lie within [0, max_steps]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.batch_size < 1 or self.max_steps < 1 or self.checkpoint_interval < 1:
            raise ValueError("batch_size, max_steps, checkpoint_interval must be >= 1")
        self.patch_spec()  # rejects a patch_stride without 3 positive extents

    def learning_rate(self, step: int) -> float:
        return self.lr_initial if step < self.lr_decay_step else self.lr_decayed

    def patch_spec(self) -> PatchSpec:
        return PatchSpec(self.net.patch_shape, self.patch_stride)


def config_hash(config: TrainConfig) -> str:
    return hashlib.sha256(config_to_text(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# optimizers over flat parameter dicts

def _opt_state_names(config: TrainConfig, params) -> list[str]:
    """Moment array names: Adam's `m.`/`v.` pair or SGD's `mom.` per parameter."""
    slots = ("m", "v") if config.optimizer == "adam" else ("mom",)
    return [f"{slot}.{name}" for name in params for slot in slots]


def init_opt_state(config: TrainConfig, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {key: np.zeros_like(params[key.split(".", 1)[1]])
            for key in _opt_state_names(config, params)}


def opt_step(config: TrainConfig, params, grads, state, step: int) -> None:
    """One in-place update; `step` is the 0-based index of this update."""
    lr = config.learning_rate(step)
    if config.optimizer == "adam":
        t = step + 1
        b1, b2 = config.beta1, config.beta2
        for name, p in params.items():
            g = grads[name]
            m = state[f"m.{name}"]
            v = state[f"v.{name}"]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + config.adam_eps)
    else:
        mu = config.momentum
        for name, p in params.items():
            mom = state[f"mom.{name}"]
            mom *= mu
            mom += grads[name]
            p -= lr * mom


# ---------------------------------------------------------------------------
# training

class TrainingError(RuntimeError):
    pass


def _load_training_cases(data_dir, spec: PatchSpec):
    """Every case's stacked (1, z, h, w, 4) tensor and (1, z, h, w, 1)
    uint8 labels, and one (case index, patch corner) entry per training
    patch, in case order and patch_starts order."""
    cases, patches = [], []
    for case_dir in list_cases(data_dir):
        case = Case(case_dir.name, load_case(case_dir).modalities, load_labels(case_dir))
        check_labels(case.labels, f"case {case_dir}: {LABEL_FILE}")
        patches += [(len(cases), start) for start in patch_starts(case.labels.shape, spec)]
        cases.append((preprocess_case(case), case.labels[None, ..., None]))
    return cases, patches


def _batch(cases, chosen, spec: PatchSpec):
    """The image and one-hot label patches of the chosen (case, corner)
    entries, stacked on the batch axis. Label padding is 0, the
    background channel."""
    img = np.concatenate([cut_patch(cases[c][0], start, spec) for c, start in chosen], axis=0)
    lbl = np.concatenate([cut_patch(cases[c][1], start, spec) for c, start in chosen], axis=0)
    return img, (lbl == np.array(LABEL_VALUES)).astype(DTYPE)


def train(config: TrainConfig, data_dir, out_dir, resume: str | None = None,
          val_dir=None, log=print) -> Path:
    """Run (or resume) a training job; returns the final checkpoint path
    (the resumed one when the resume has no step left to run).

    Writes checkpoints under out_dir/checkpoint and a deterministic
    report under out_dir/report.txt (loss per step, learning rate,
    seed, config hash, and, when `val_dir` is given, per-traversal
    validation metrics in the evaluation-table layout; no wall-clock
    inside the report so reruns are byte-identical). Each checkpoint
    holds the run's history: the loss rows (losses.txt) and, with
    `val_dir`, the validation rows (val.txt), each row carrying its
    step. A resume reads that history from the checkpoint alone; the
    out_dir copies of both logs and the report are derived from it at
    each checkpoint and when a resume loads one.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = Rng(config.seed)
    spec = config.patch_spec()
    cases, patches = _load_training_cases(data_dir, spec)
    if not patches:
        raise TrainingError(f"no training patches found under {data_dir}")
    n = len(patches)
    with_val = val_dir is not None
    if with_val:  # a bad label fails before step 0, not after a traversal
        for case_dir in list_cases(val_dir):
            check_labels(load_labels(case_dir), f"case {case_dir}: {LABEL_FILE}")

    if resume is not None:
        params, _, start_step, state = load_checkpoint(resume)
        if sorted(state) != sorted(_opt_state_names(config, params)):
            raise ValueError(f"checkpoint optimizer state does not match optimizer={config.optimizer}")
        for key, moment in state.items():
            shape = params[key.split(".", 1)[1]].shape
            if moment.shape != shape:
                raise ValueError(f"checkpoint {resume}: optimizer state {key} has shape "
                                 f"{moment.shape}, its parameter {shape}")
        stored = _check_resumable(resume, config, start_step)
        loss_log, val_rows = _read_history(Path(resume), stored, config, start_step, n, with_val)
        _write_derived(out_dir, config, loss_log, val_rows, with_val)
    else:
        params = build(config.net, rng.derive("init"))
        state = init_opt_state(config, params)
        start_step = 0
        loss_log, val_rows = [], []

    weights = ClassWeights(config.class_weights)
    started = time.time()
    checkpoint_dir = out_dir / "checkpoint"
    for step in range(start_step, config.max_steps):
        order_pos = (step * config.batch_size) % n
        traversal = (step * config.batch_size) // n
        order = rng.derive("shuffle", traversal).permutation(n)
        chosen = [patches[order[(order_pos + k) % n]] for k in range(config.batch_size)]
        img, lbl = _batch(cases, chosen, spec)

        lg = forward(img, params, config.net, training=True, rng=rng.derive("step", step))
        loss, grad_p = dice_loss(lg.output, lbl, weights)
        if not np.isfinite(loss):
            dump = out_dir / f"bad_batch_step{step}"
            dump.mkdir(parents=True, exist_ok=True)
            write_npy(dump / "img.npy", img)
            write_npy(dump / "lbl.npy", lbl)
            raise TrainingError(f"non-finite loss {loss} at step {step}; batch dumped to {dump}")
        _, grads = lg.backward(grad_p)
        opt_step(config, params, grads, state, step)
        loss_log.append((step, config.learning_rate(step), loss))
        log(f"step {step:5d}  lr {config.learning_rate(step):.2e}  loss {loss:+.6f}")

        checkpoint_due = (step + 1) % config.checkpoint_interval == 0 or step + 1 == config.max_steps
        if checkpoint_due:
            _guard_finite(params, step)
        if with_val and _validation_due(config, step, n):
            rows = _validation_metrics(val_dir, params, config, traversal)
            val_rows.extend((step, row) for row in rows)
            log(f"traversal {traversal}: " + "; ".join(rows[-3:]))
        if checkpoint_due:
            texts = {TRAIN_CONFIG_FILE: config_to_text(config),
                     **_history_texts(loss_log, val_rows, with_val)}
            save_checkpoint(checkpoint_dir, params, config.net, step + 1, extra=state, texts=texts)
            _write_derived(out_dir, config, loss_log, val_rows, with_val)

    log(f"trained {config.max_steps - start_step} steps in {time.time() - started:.1f}s")
    # the last step always saves: only a resume with no step left ends on the loaded checkpoint
    return checkpoint_dir if start_step < config.max_steps else Path(resume)


def _check_resumable(checkpoint, config: TrainConfig, start_step: int) -> TrainConfig:
    """Refuse to resume unless the run replays the one the checkpoint's
    stored training config began: every key must match except max_steps
    and checkpoint_interval, max_steps may not fall below the steps
    already taken, and lr_decay_step may move only among the steps not
    yet taken. Returns the stored config.
    """
    path = Path(checkpoint) / TRAIN_CONFIG_FILE
    if not path.exists():
        raise ValueError(f"checkpoint {checkpoint} stores no training configuration "
                         f"({TRAIN_CONFIG_FILE}), so a resume cannot be checked against it")
    stored = config_from_text(TrainConfig, path.read_text())
    if config.max_steps < start_step:
        raise ValueError(f"max_steps={config.max_steps} is below the {start_step} steps the "
                         f"checkpoint {checkpoint} has taken; resume with max_steps >= {start_step}")
    old, new = ([line.partition("=") for line in config_to_text(c).splitlines()]
                for c in (stored, config))
    changed = [k for (k, _, a), (_, _, b) in zip(old, new) if a != b and k not in
               ("max_steps", "checkpoint_interval", "lr_decay_step")]
    decay_steps = {stored.lr_decay_step, config.lr_decay_step}
    if len(decay_steps) == 2 and min(decay_steps) < start_step:
        changed.append("lr_decay_step")
    if changed:
        raise ValueError(f"training config differs from the checkpoint's in "
                         f"{', '.join(changed)}; resume with the stored config or start a new run")
    return stored


def _read_history(checkpoint: Path, stored: TrainConfig, config: TrainConfig,
                  start_step: int, n: int, with_val: bool):
    """The loss rows of steps 0..start_step-1 and, `with_val`, the
    validation rows, read from the checkpoint. The stored rows must be
    exactly those its own run (`stored`) took; the validation rows this
    run would not take, the final-step rows of a run configured to stop
    sooner, are dropped.
    """
    loss_log = _history_rows(checkpoint / LOSS_FILE, _loss_row, LOSS_LINE, list(range(start_step)))
    if not with_val:
        return loss_log, []
    taken = [s for s in range(start_step) if _validation_due(stored, s, n) for _ in REGION_ORDER]
    val_rows = _history_rows(checkpoint / VAL_FILE, _val_row, VAL_LINE, taken)
    return loss_log, [row for row in val_rows if _validation_due(config, row[0], n)]


def _history_rows(path: Path, parse, line: str, steps: list[int]) -> list[tuple]:
    """Rows of a checkpoint history file, refused unless their steps are
    exactly `steps` and each row re-formats to its own line, so a row
    cut short or edited is caught."""
    if not path.exists():
        raise ValueError(f"checkpoint history {path} is missing, so a resume cannot replay "
                         f"the run before the checkpoint; start a new run")
    text = path.read_text()
    try:
        rows = [parse(row) for row in text.splitlines()]
    except ValueError:
        rows = []
    if "".join(line.format(*row) for row in rows) != text or [row[0] for row in rows] != steps:
        raise ValueError(f"checkpoint history {path} does not hold exactly the rows of the run "
                         f"before the checkpoint; resume from an intact checkpoint or start a new run")
    return rows


def _validation_due(config: TrainConfig, step: int, n: int) -> bool:
    """Validation follows the last step of each traversal of the n
    patches, and the run's final step."""
    b = config.batch_size
    return ((step + 1) * b) // n > (step * b) // n or step + 1 == config.max_steps


def _validation_metrics(val_dir, params, config: TrainConfig, traversal: int) -> list[str]:
    """Mean dice/sensitivity/specificity/hd95 per region over val cases."""
    rows = []
    for case_dir in list_cases(val_dir):
        truth = load_labels(case_dir)
        pred = predict_case(case_dir, params, config.net)
        rows += region_rows(case_dir.name, pred, truth, (1.0, 1.0, 1.0))
    return [",".join([str(traversal), region, *summary_cells(rows, region)])
            for region in REGION_ORDER]


def _guard_finite(params, step):
    for name, p in params.items():
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"non-finite parameter {name} at step {step}; checkpoint withheld")


def _loss_row(line: str):
    step, lr, loss = line.split(" ")
    return int(step), float(lr), float(loss)


def _val_row(line: str):
    step, text = line.split(" ", 1)
    return int(step), text


def _history_texts(loss_log, val_rows, with_val: bool) -> dict[str, str]:
    texts = {LOSS_FILE: "".join(LOSS_LINE.format(*row) for row in loss_log)}
    if with_val:
        texts[VAL_FILE] = "".join(VAL_LINE.format(*row) for row in val_rows)
    return texts


def _write_derived(out_dir: Path, config: TrainConfig, loss_log, val_rows, with_val: bool):
    """The out-dir logs and report, derived from the in-memory history;
    each goes to a temp file that then replaces it."""
    texts = {**_history_texts(loss_log, val_rows, with_val),
             "report.txt": _report_text(config, loss_log, val_rows)}
    for name, text in texts.items():
        tmp = out_dir / f"{name}.tmp"
        tmp.write_text(text)
        os.replace(tmp, out_dir / name)


def _report_text(config: TrainConfig, loss_log, val_rows) -> str:
    lines = [
        "# training report",
        f"seed={config.seed}",
        f"config_hash={config_hash(config)}",
        f"steps={len(loss_log)}",
    ]
    if loss_log:
        lines.append(f"first_loss={loss_log[0][2]:.12f}")
        lines.append(f"final_loss={loss_log[-1][2]:.12f}")
    lines.append("")
    lines.append("step,lr,loss")
    for step, lr, loss in loss_log:
        lines.append(f"{step},{lr:.8e},{loss:.12f}")
    if val_rows:
        lines.append("")
        lines.append(",".join(["traversal", "region", *METRIC_ORDER]))
        lines.extend(row for _, row in val_rows)
    return "\n".join(lines) + "\n"
