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

import ctypes
import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .infer import stitched_probs
from .losses import (
    LABEL_VALUES,
    METRIC_ORDER,
    REGION_ORDER,
    check_labels,
    dice_loss,
    region_rows,
    summary_cells,
)
from .network import (
    NetConfig,
    build,
    check_finite_floats,
    config_to_text,
    forward,
    load_checkpoint,
    predict_labels,
    read_config,
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

try:
    import resource
except ImportError:  # no getrusage (Windows): the closing line leaves out the fault count
    resource = None

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

    TITLE = "# training configuration"

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_finite_floats(self)
        if self.lr_initial <= 0 or self.lr_decayed <= 0:
            raise ValueError("learning rates must be positive")
        if not 0 <= self.lr_decay_step <= self.max_steps:
            raise ValueError("lr_decay_step must lie within [0, max_steps]")
        if self.max_steps < 1 or self.checkpoint_interval < 1:
            raise ValueError("max_steps, checkpoint_interval must be >= 1")

    def learning_rate(self, step: int) -> float:
        return self.lr_initial if step < self.lr_decay_step else self.lr_decayed


def config_hash(config: TrainConfig) -> str:
    return hashlib.sha256(config_to_text(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Adam over flat parameter dicts, at its published constants (arXiv:1412.6980)

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _opt_state_names(params) -> list[str]:
    """Moment array names: Adam's `m.`/`v.` pair per parameter."""
    return [f"{slot}.{name}" for name in params for slot in ("m", "v")]


def init_opt_state(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {key: np.zeros_like(params[key.split(".", 1)[1]]) for key in _opt_state_names(params)}


def opt_step(config: TrainConfig, params, grads, state, step: int) -> None:
    """One in-place Adam update; `step` is the 0-based index of this update."""
    lr = config.learning_rate(step)
    t = step + 1
    for name, p in params.items():
        g = grads[name]
        m, v = state[f"m.{name}"], state[f"v.{name}"]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * (g * g)
        mhat = m / (1 - BETA1 ** t)
        vhat = v / (1 - BETA2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training

class TrainingError(RuntimeError):
    pass


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


def _pin_malloc_thresholds() -> None:
    """Set glibc's heap-trim threshold to 1 GiB and its mmap threshold to
    32 MiB for the rest of the process; a no-op where libc has no `mallopt`.

    By default glibc trims the heap top once a step's graph is freed, and
    the next forward faults it back in: about 10,000 minor faults per
    step at width 4, 32³. Setting the trim threshold alone also stops glibc's
    dynamic mmap threshold, and that measured 2.7x the faults, so the mmap
    threshold is set too, at the ceiling the dynamic one can reach: an
    array glibc mmaps at any dynamic threshold is still mmapped.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)


def _minor_faults() -> int | None:
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _read_case(case_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    """A labeled case's stacked (1, z, h, w, 4) tensor and its (z, h, w)
    labels. A missing file, a label outside the alphabet, labels of
    another shape or volumes that are not 3-D raise, naming the case."""
    case = Case(case_dir.name, load_case(case_dir).modalities, load_labels(case_dir))
    check_labels(case.labels, f"case {case_dir}: {LABEL_FILE}")
    return preprocess_case(case), case.labels


def _load_training_cases(data_dir, spec: PatchSpec):
    """Every case's stacked (1, z, h, w, 4) tensor and (1, z, h, w, 1)
    uint8 labels, and one (case index, patch corner) entry per training
    patch, in case order and patch_starts order."""
    cases, patches = [], []
    for case_dir in list_cases(data_dir):
        x, labels = _read_case(case_dir)
        patches += [(len(cases), start) for start in patch_starts(labels.shape, spec)]
        cases.append((x, labels[None, ..., None]))
    return cases, patches


def _batch(cases, entry, spec: PatchSpec):
    """The image and one-hot label patch of one (case, corner) entry, a
    batch of one. Label padding is 0, the background channel."""
    c, start = entry
    img, lbl = (cut_patch(volume, start, spec) for volume in cases[c])
    return img, (lbl == np.array(LABEL_VALUES)).astype(DTYPE)


def train(config: TrainConfig, data_dir, out_dir, resume: str | None = None,
          val_dir=None, log=print) -> Path:
    """Run (or resume) a training job; returns the final checkpoint path
    (the resumed one when the resume has no step left to run).

    Writes checkpoints under out_dir/checkpoint and a deterministic
    report under out_dir/report.txt (loss per step, learning rate,
    seed, config hash, and, when `val_dir` is given, per-traversal
    validation metrics in the evaluation-table layout; no wall-clock
    inside the report so reruns are byte-identical). The `val_dir` cases
    are read once, before step 0, and held for the run like the training
    cases. Each checkpoint holds the run's history: the loss rows
    (losses.txt) and, with `val_dir`, the validation rows (val.txt), each
    row carrying its step. A resume reads that history from the
    checkpoint alone, and trains the network of its config.txt; the
    out_dir copies of both logs and the report are derived from it at
    each checkpoint and when a resume loads one. A refused resume reads
    no case (but for validation rows at the wrong steps, which take the
    patch count to see) and leaves out_dir as it was. Once the run is
    accepted, glibc's malloc thresholds are set for the rest of the
    process (`_pin_malloc_thresholds`).
    """
    out_dir = Path(out_dir)
    rng = Rng(config.seed)
    spec = PatchSpec(config.net.patch_shape)
    with_val = val_dir is not None
    if resume is not None:  # refused before a case is read or a file written
        params, net, start_step, state = load_checkpoint(resume)
        if sorted(state) != sorted(_opt_state_names(params)):
            raise ValueError(f"checkpoint {resume}: optimizer state is not one Adam m/v pair "
                             f"per parameter")
        for key, moment in state.items():
            shape = params[key.split(".", 1)[1]].shape
            if moment.shape != shape:
                raise ValueError(f"checkpoint {resume}: optimizer state {key} has shape "
                                 f"{moment.shape}, its parameter {shape}")
        stored = _check_resumable(resume, config, start_step, net)
        loss_log = _read_history(Path(resume), start_step, with_val)
    else:
        params = build(config.net, rng.derive("init"))
        state = init_opt_state(params)
        start_step = 0
        loss_log = []

    _pin_malloc_thresholds()
    cases, patches = _load_training_cases(data_dir, spec)
    n = len(patches)
    # read once, before step 0: a bad case fails before any step, and none is re-read
    val_cases = [(d.name, *_read_case(d)) for d in list_cases(val_dir)] if with_val else []
    val_rows = [] if resume is None or not with_val else _val_history(
        Path(resume), stored, config, start_step, n)
    out_dir.mkdir(parents=True, exist_ok=True)
    if resume is not None:
        _write_derived(out_dir, config, loss_log, val_rows, with_val)

    started, faults = time.time(), None
    checkpoint_dir = out_dir / "checkpoint"
    for step in range(start_step, config.max_steps):
        traversal = step // n
        order = rng.derive("shuffle", traversal).permutation(n)
        img, lbl = _batch(cases, patches[order[step % n]], spec)

        lg = forward(img, params, config.net, rng=rng.derive("step", step))
        loss, grad_p = dice_loss(lg.output, lbl)
        if not np.isfinite(loss):
            dump = out_dir / f"bad_batch_step{step}"
            dump.mkdir(parents=True, exist_ok=True)
            write_npy(dump / "img.npy", img)
            write_npy(dump / "lbl.npy", lbl)
            raise TrainingError(f"non-finite loss {loss} at step {step}; batch dumped to {dump}")
        opt_step(config, params, lg.backward(grad_p)[1], state, step)
        del lg, grad_p  # one step's graph at a time: it must not live through the next forward
        loss_log.append((step, config.learning_rate(step), loss))
        log(f"step {step:5d}  lr {config.learning_rate(step):.2e}  loss {loss:+.6f}")

        checkpoint_due = (step + 1) % config.checkpoint_interval == 0 or step + 1 == config.max_steps
        if checkpoint_due:
            _guard_finite(params, step)
        if with_val and _validation_due(config, step, n):
            rows = _validation_metrics(val_cases, params, config.net, spec, traversal)
            val_rows.extend((step, row) for row in rows)
            log(f"traversal {traversal}: " + "; ".join(rows[-3:]))
        if checkpoint_due:
            texts = {TRAIN_CONFIG_FILE: config_to_text(config),
                     **_history_texts(loss_log, val_rows, with_val)}
            save_checkpoint(checkpoint_dir, params, config.net, step + 1, extra=state, texts=texts)
            _write_derived(out_dir, config, loss_log, val_rows, with_val)
        if step == start_step:  # the first step pays for first touch, so the count starts after it
            faults = _minor_faults()

    steps = config.max_steps - start_step
    closing = f"trained {steps} steps in {time.time() - started:.1f}s"
    if faults is not None and steps > 1:
        per_step = (_minor_faults() - faults) / (steps - 1)
        closing += f", {per_step:.0f} minor page faults per step after the first"
    log(closing)
    # the last step always saves: only a resume with no step left ends on the loaded checkpoint
    return checkpoint_dir if start_step < config.max_steps else Path(resume)


def _check_resumable(checkpoint, config: TrainConfig, start_step: int, net: NetConfig) -> TrainConfig:
    """Refuse to resume unless the run replays the one the checkpoint's
    stored training config began, its network taken as `net` (config.txt's,
    which the tensors were checked against): every key must match except
    max_steps and checkpoint_interval, max_steps may not fall below the
    steps already taken, and lr_decay_step may move only among the steps
    not yet taken. Returns the stored config."""
    path = Path(checkpoint) / TRAIN_CONFIG_FILE
    if not path.exists():
        raise ValueError(f"checkpoint {checkpoint} stores no training configuration "
                         f"({TRAIN_CONFIG_FILE}), so a resume cannot be checked against it")
    stored = replace(read_config(TrainConfig, path), net=net)
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


def _read_history(checkpoint: Path, start_step: int, with_val: bool):
    """The loss rows of steps 0..start_step-1, read from the checkpoint.
    `with_val`, its validation rows must be intact too; their steps, which
    take the patch count, are checked by `_val_history`.
    """
    loss_log = _history_rows(checkpoint / LOSS_FILE, _loss_row, LOSS_LINE, list(range(start_step)))
    if with_val:
        _history_rows(checkpoint / VAL_FILE, _val_row, VAL_LINE)
    return loss_log


def _val_history(checkpoint: Path, stored: TrainConfig, config: TrainConfig,
                 start_step: int, n: int):
    """The validation rows of the checkpoint, which must be exactly those
    its own run (`stored`) took over n patches; the rows this run would
    not take, the final-step rows of a run configured to stop sooner,
    are dropped."""
    taken = [s for s in range(start_step) if _validation_due(stored, s, n) for _ in REGION_ORDER]
    val_rows = _history_rows(checkpoint / VAL_FILE, _val_row, VAL_LINE, taken)
    return [row for row in val_rows if _validation_due(config, row[0], n)]


def _history_rows(path: Path, parse, line: str, steps: list[int] | None = None) -> list[tuple]:
    """Rows of a checkpoint history file, refused unless each row
    re-formats to its own line, so a row cut short or edited is caught,
    and, given `steps`, their steps are exactly those."""
    if not path.exists():
        raise ValueError(f"checkpoint history {path} is missing, so a resume cannot replay "
                         f"the run before the checkpoint; start a new run")
    text = path.read_text()
    try:
        rows = [parse(row) for row in text.splitlines()]
    except ValueError:
        rows = []
    if "".join(line.format(*row) for row in rows) != text or (
            steps is not None and [row[0] for row in rows] != steps):
        raise ValueError(f"checkpoint history {path} does not hold exactly the rows of the run "
                         f"before the checkpoint; resume from an intact checkpoint or start a new run")
    return rows


def _validation_due(config: TrainConfig, step: int, n: int) -> bool:
    """Validation follows the last step of each traversal of the n
    patches, and the run's final step."""
    return (step + 1) % n == 0 or step + 1 == config.max_steps


def _validation_metrics(val_cases, params, net: NetConfig, spec: PatchSpec,
                        traversal: int) -> list[str]:
    """Mean dice/sensitivity/specificity/hd95 per region over the held val
    cases, each predicted on the tiling `spec` that training cuts."""
    rows = []
    for name, x, truth in val_cases:
        pred = predict_labels(stitched_probs(x, params, net, spec))[0]
        rows += region_rows(name, pred, truth)
    return [",".join([str(traversal), region, *summary_cells(rows, region)])
            for region in REGION_ORDER]


def _guard_finite(params, step):
    for name, p in params.items():
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"non-finite parameter {name} at step {step}; checkpoint withheld")


def _loss_row(line: str):
    step, lr, loss = line.split(" ")
    row = int(step), float(lr), float(loss)
    if not np.isfinite(row[1:]).all():
        raise ValueError(f"non-finite loss row {line!r}")
    return row


def _val_row(line: str):
    step, text = line.split(" ", 1)
    for cell in text.split(",")[2:]:  # after the traversal and region: the metrics
        if cell != "undefined" and not np.isfinite(float(cell)):
            raise ValueError(f"non-finite validation row {line!r}")
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
