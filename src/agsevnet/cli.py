"""Command-line interface.

Subcommands: phantom-gen, train, predict, evaluate, gradcheck. Exit
codes: 0 success, 1 validation failure (bad flags, config, shapes, or a
failed gradcheck), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import SCOPES, run_checks
from .infer import evaluate_dirs, predict_dir
from .network import load_checkpoint, read_config
from .pipeline import generate_phantom, save_case
from .rng import Rng
from .train import TrainConfig, train


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = [int(v) for v in text.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected z,h,w triple, got {text!r}")
    return tuple(parts)


def cmd_phantom_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    out = Path(args.out)
    rng = Rng(args.seed)
    for k in range(args.count):
        case = generate_phantom(rng.derive("phantom", k), args.shape, args.difficulty)
        case.id = f"case{k:03d}"
        save_case(out / case.id, case)
    print(f"wrote {args.count} phantom cases under {out}")
    return 0


def cmd_train(args) -> int:
    config = read_config(TrainConfig, args.config) if args.config else TrainConfig()
    checkpoint = train(config, args.data, args.out, resume=args.checkpoint, val_dir=args.val)
    print(f"final checkpoint: {checkpoint}")
    return 0


def cmd_predict(args) -> int:
    params, config, step, _ = load_checkpoint(args.checkpoint)
    print(f"loaded checkpoint at step {step}")
    predict_dir(args.data, params, config, args.out, stride=args.stride)
    return 0


def cmd_evaluate(args) -> int:
    report = evaluate_dirs(args.pred, args.truth)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report)
    print(report, end="")
    print(f"report written to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    failures = 0
    for seed in range(args.seeds):
        results = run_checks(args.scope, seed=args.seed + seed)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:40s} max_rel_err {r.max_err:.3e}  tol {r.tol:.0e}  seed {args.seed + seed}")
            failures += 0 if r.passed else 1
    if failures:
        print(f"{failures} gradient checks failed")
        return 1
    print("all gradient checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="agsevnet",
        description="Volumetric segmentation kit: phantoms, training, inference, "
        "evaluation, and gradient verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom-gen", help="generate synthetic nested-ellipsoid cases")
    p.add_argument("--count", "-n", type=int, default=1)
    p.add_argument("--shape", type=_parse_triple, default=(32, 32, 32))
    p.add_argument("--difficulty", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_phantom_gen)

    p = sub.add_parser("train", help="train on labeled case directories")
    p.add_argument("--config", help="training config file (key=value)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="resume from this checkpoint directory")
    p.add_argument("--val", help="labeled cases evaluated at each traversal")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="patch-wise inference over case directories")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=_parse_triple, default=None)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="per-case region metrics against truth cases")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="run finite-difference and oracle checks")
    p.add_argument("--scope", default="all", choices=[*SCOPES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds to run")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
