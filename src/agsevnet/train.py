"""Training loop: weighted soft-Dice descent with a two-phase learning
rate schedule, seeded per-traversal shuffling, and bitwise-resumable
checkpoints.

All randomness is derived from (seed, step/traversal) rather than from
mutable generator state, so resuming from a checkpoint replays exactly
the run that would have happened without the interruption. Optimizer
moment arrays ride along in the checkpoint under the `opt.` prefix.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .infer import predict_case
from .losses import REGION_ORDER, ClassWeights, case_region_row, derive_regions, dice_loss
from .network import (
    NetConfig,
    build,
    config_from_text,
    config_to_text,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .npyio import write_npy
from .pipeline import PatchSpec, list_cases, load_case, load_labels, preprocess_case
from .rng import Rng


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

    def __post_init__(self):
        self.class_weights = tuple(float(v) for v in self.class_weights)
        if self.patch_stride is not None:
            self.patch_stride = tuple(int(v) for v in self.patch_stride)
        self.validate()

    def validate(self):
        if self.lr_initial <= 0 or self.lr_decayed <= 0:
            raise ValueError("learning rates must be positive")
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
        stride = self.patch_stride or self.net.patch_shape
        return PatchSpec(self.net.patch_shape, stride)


_TRAIN_FLOAT_FIELDS = {
    "lr_initial", "lr_decayed", "beta1", "beta2", "adam_eps", "momentum",
}


def train_config_to_text(config: TrainConfig) -> str:
    lines = ["# training configuration"]
    for f in fields(config):
        if f.name == "net":
            continue
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        elif v is None:
            v = "-"
        lines.append(f"{f.name}={v}")
    lines.append("")
    for line in config_to_text(config.net).splitlines():
        if line.startswith("#"):
            lines.append(line)
        elif line:
            lines.append(f"net.{line}")
    return "\n".join(lines) + "\n"


def train_config_from_text(text: str) -> TrainConfig:
    kv = {}
    net_lines = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("net."):
            net_lines.append(f"{key[4:]}={value}")
        else:
            kv[key] = value
    kwargs: dict = {"net": config_from_text("\n".join(net_lines))}
    for f in fields(TrainConfig):
        if f.name == "net" or f.name not in kv:
            continue
        raw = kv.pop(f.name)
        if f.name == "optimizer":
            kwargs[f.name] = raw
        elif f.name in ("class_weights",):
            kwargs[f.name] = tuple(float(v) for v in raw.split(","))
        elif f.name == "patch_stride":
            kwargs[f.name] = None if raw == "-" else tuple(int(v) for v in raw.split(","))
        elif f.name in _TRAIN_FLOAT_FIELDS:
            kwargs[f.name] = float(raw)
        else:
            kwargs[f.name] = int(raw)
    if kv:
        raise ValueError(f"unknown training config keys: {sorted(kv)}")
    return TrainConfig(**kwargs)


def config_hash(config: TrainConfig) -> str:
    return hashlib.sha256(train_config_to_text(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# optimizers over flat parameter dicts

def init_opt_state(config: TrainConfig, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    state = {}
    if config.optimizer == "adam":
        for name, p in params.items():
            state[f"m.{name}"] = np.zeros_like(p)
            state[f"v.{name}"] = np.zeros_like(p)
    else:
        for name, p in params.items():
            state[f"mom.{name}"] = np.zeros_like(p)
    return state


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


def _load_training_patches(data_dir, spec: PatchSpec):
    patches = []
    for case_dir in list_cases(data_dir):
        case = load_case(case_dir, require_labels=True)
        _, case_patches = preprocess_case(case, spec)
        for img, lbl in case_patches:
            patches.append((img, lbl))
    return patches


def train(config: TrainConfig, data_dir, out_dir, resume: str | None = None,
          val_dir=None, log=print) -> Path:
    """Run (or resume) a training job; returns the final checkpoint path.

    Writes checkpoints under out_dir/checkpoint and a deterministic
    report under out_dir/report.txt (loss per step, learning rate,
    seed, config hash, and, when `val_dir` is given, per-traversal
    validation metrics in the evaluation-table layout; no wall-clock
    inside the report so reruns are byte-identical). The loss rows
    (losses.txt) and validation rows (val.txt) carry their step, so a
    resume keeps exactly those taken before its checkpoint.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = Rng(config.seed)
    spec = config.patch_spec()
    patches = _load_training_patches(data_dir, spec)
    if not patches:
        raise TrainingError(f"no training patches found under {data_dir}")

    if resume is not None:
        params, net_config, start_step, state = load_checkpoint(resume)
        if config_to_text(net_config) != config_to_text(config.net):
            raise TrainingError("checkpoint network configuration does not match")
        loss_log = _read_loss_log(out_dir / "losses.txt", start_step)
    else:
        params = build(config.net, rng.derive("init"))
        state = init_opt_state(config, params)
        start_step = 0
        loss_log = []
    n = len(patches)
    val_rows = []
    if resume is not None and val_dir is not None:
        # rows the uninterrupted run would hold: not the extra final-step
        # row of an earlier run configured to stop sooner
        val_rows = _read_val_log(
            out_dir / "val.txt", lambda s: s < start_step and _validation_due(config, s, n)
        )

    weights = ClassWeights(config.class_weights)
    started = time.time()
    checkpoint_dir = out_dir / "checkpoint"
    for step in range(start_step, config.max_steps):
        order_pos = (step * config.batch_size) % n
        traversal = (step * config.batch_size) // n
        order = rng.derive("shuffle", traversal).permutation(n)
        chosen = [order[(order_pos + k) % n] for k in range(config.batch_size)]
        img = np.concatenate([patches[i][0] for i in chosen], axis=0)
        lbl = np.concatenate([patches[i][1] for i in chosen], axis=0)

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
        if val_dir is not None and _validation_due(config, step, n):
            rows = _validation_metrics(val_dir, params, config, traversal)
            val_rows.extend((step, row) for row in rows)
            log(f"traversal {traversal}: " + "; ".join(rows[-3:]))
        if checkpoint_due:
            # logs before the checkpoint: a run cut in between resumes from
            # the previous checkpoint, which truncates the logs back to it
            _write_loss_log(out_dir / "losses.txt", loss_log)
            if val_dir is not None:
                _write_val_log(out_dir / "val.txt", val_rows)
            save_checkpoint(checkpoint_dir, params, config.net, step + 1, extra=state)

    _write_loss_log(out_dir / "losses.txt", loss_log)
    _write_report(out_dir / "report.txt", config, loss_log, [row for _, row in val_rows])
    log(f"trained {config.max_steps - start_step} steps in {time.time() - started:.1f}s")
    return checkpoint_dir


def _validation_due(config: TrainConfig, step: int, n: int) -> bool:
    """Validation follows the last step of each traversal of the n
    patches, and the run's final step."""
    b = config.batch_size
    return ((step + 1) * b) // n > (step * b) // n or step + 1 == config.max_steps


def _validation_metrics(val_dir, params, config: TrainConfig, traversal: int) -> list[str]:
    """Mean dice/sensitivity/specificity/hd95 per region over val cases."""
    per_region = {r: [] for r in REGION_ORDER}
    for case_dir in list_cases(val_dir):
        truth_regions = derive_regions(load_labels(case_dir))
        pred_regions = derive_regions(predict_case(case_dir, params, config.net))
        for region in REGION_ORDER:
            per_region[region].append(
                case_region_row(case_dir.name, region, pred_regions[region],
                                truth_regions[region], (1.0, 1.0, 1.0))
            )
    rows = []
    for region in REGION_ORDER:
        cells = []
        for m in ("dice", "sensitivity", "specificity", "hd95"):
            vals = [r[m] for r in per_region[region] if r[m] is not None]
            cells.append(f"{float(np.mean(vals)):.6f}" if vals else "undefined")
        rows.append(",".join([str(traversal), region] + cells))
    return rows


def _guard_finite(params, step):
    for name, p in params.items():
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"non-finite parameter {name} at step {step}; checkpoint withheld")


def _write_loss_log(path: Path, loss_log):
    lines = [f"{step} {lr:.8e} {loss:.17e}" for step, lr, loss in loss_log]
    path.write_text("\n".join(lines) + "\n")


def _read_loss_log(path: Path, upto_step: int):
    if not path.exists():
        return []
    out = []
    for line in path.read_text().splitlines():
        s, lr, loss = line.split()
        if int(s) < upto_step:
            out.append((int(s), float(lr), float(loss)))
    return out


def _write_val_log(path: Path, val_rows):
    path.write_text("".join(f"{step} {row}\n" for step, row in val_rows))


def _read_val_log(path: Path, keep):
    if not path.exists():
        return []
    rows = [line.split(" ", 1) for line in path.read_text().splitlines()]
    return [(int(s), row) for s, row in rows if keep(int(s))]


def _write_report(path: Path, config: TrainConfig, loss_log, val_rows=()):
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
        lines.append("traversal,region,dice,sensitivity,specificity,hd95")
        lines.extend(val_rows)
    path.write_text("\n".join(lines) + "\n")
