"""agsevnet benchmark: train / predict / evaluate workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_p32_w4 --seed 1 --seconds 25 --trace 0

Workloads (see `workloads.py`): train_p32_w4, predict_p64_s16, evaluate_128.
Each run sets up three times (the median is `setup_s`), runs ops back to
back for `--seconds`, checks every op output (evaluation against an
independent all-pairs hd95 oracle), replays the canonical reference input
of train and predict, and prints every metric by name with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

`--blas-threads N` sets the BLAS thread count (default: the CPUs this
process may run on); N=1 gives the single-threaded reference row.
`--record-reference` rewrites `reference.json` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)  # run_seconds in BENCHMARK.json
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=len(os.sched_getaffinity(0)))
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    if args.blas_threads < 1:
        ap.error("--blas-threads must be >= 1")
    return args


def import_package():
    """Put this checkout's sources first on the path; refuse to run without
    them, so the benchmark never measures some other installed copy."""
    if not (SRC / "agsevnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no agsevnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import agsevnet

    if Path(agsevnet.__file__).resolve().parent != (SRC / "agsevnet").resolve():
        raise SystemExit(f"perfbench: imported agsevnet from {agsevnet.__file__}, not {SRC}")


def run(args, work: Path) -> tuple[dict, list[str]]:
    import report
    import workloads
    from layertrace import Aggregate, Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](work)
    tracer = Tracer() if args.trace else None
    lines = []

    if hasattr(workload, "prepare"):
        workload.prepare(args.seed)
    setup_s = []
    setup_agg = Aggregate()
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.spans = []
            tracer.install()
        t0 = perf_counter()
        workload.setup(args.seed)
        setup_s.append(perf_counter() - t0)
        if tracer:
            tracer.uninstall()
            setup_agg.add(tracer.spans)
    if hasattr(workload, "expect"):
        workload.expect()
    rss_before_ops = report.peak_rss_mib()

    clock = workloads.OpClock(args.seconds, tracer)
    with report.RssSampler() as rss:
        workload.run(clock)
    problems = list(clock.problems)
    attempted = len(clock.latencies)
    if hasattr(workload, "reference_problem"):
        attempted += 1
        problem = workload.reference_problem(workloads.load_reference())
        if problem:
            problems.append(f"reference: {problem}")
    failed = len(problems)

    plain = [t for t, traced in zip(clock.latencies, clock.traced) if not traced]
    traced = [t for t, tr in zip(clock.latencies, clock.traced) if tr]
    lines.append(f"setup_s runs: {' '.join(f'{t:.4f}' for t in setup_s)}")
    lines.append(f"ops: {len(clock.latencies)} timed ({len(traced)} traced), op_s: "
                 + " ".join(f"{t:.4f}" for t in clock.latencies))
    lines.append(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} ops failed)")
    lines.extend(f"failure: {p}" for p in problems)
    lines.append(f"peak_rss_before_ops_mib {rss_before_ops:.1f} MiB")
    surface_pairs = getattr(workload, "surface_pairs", 0)
    if surface_pairs:
        per_region = {r: v["surface_pairs"] for r, v in workload.expected.items()}
        lines.append(f"hd95 surface pairs (computed) {surface_pairs} {json.dumps(per_region)}")

    if not args.trace:
        tail = report.tail(plain)
        if tail:
            value, pct, beyond = tail
            lines.append(f"op_s_tail {value:.6f} s (p{pct:.1f}, n={len(plain)}, {beyond} beyond)")
        else:
            lines.append(f"op_s_tail undefined (n={len(plain)}, needs more than 10 ops)")
        metrics = {
            "setup_s": report.median(setup_s),
            "op_s_p50": report.median(plain),
            "vox_per_s": workload.voxels_per_op * len(plain) / sum(plain),
            "peak_rss_mib": rss.peak_mib,
        }
        units = dict(report.END_TO_END)
        values = {k: (v, units[k]) for k, v in metrics.items()}
    else:
        traced_p50 = report.median(traced) if traced else 0.0
        given = {
            "surface_pairs": surface_pairs,
            "coverage": clock.covered_s / sum(traced) if traced else 0.0,
            "traced_p50": traced_p50,
            "overhead_s": traced_p50 - report.median(plain) if traced and plain else 0.0,
            "traced_ops": len(traced),
        }
        values = report.per_layer_values(clock.aggregate, setup_agg, given)
        dump = ROOT / ".perfbench-out" / f"spans_{args.workload}_seed{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"last_traced_op": clock.last_spans}))
        lines.append(f"spans of the last traced op written to {dump.relative_to(ROOT)}")

    for name, (value, unit) in values.items():
        lines.append(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when numpy loads, so set it first.
    for var in THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    import_package()
    import report

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.record_reference:
            import workloads

            print(json.dumps(workloads.record_reference(work), indent=1))
            return 0
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print("env " + json.dumps(report.environment(SRC), sort_keys=True))
        result, lines = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
