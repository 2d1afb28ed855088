"""bklkit benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload cold-queries --seed 1 --seconds 30 --trace 0

Workloads are described in bench/README.md and bench/layers.json.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 they are the per-layer ones from a traced run.  The line
before it is the run record (revision, machine, seed, every operation
with its stratum and raw time), also written to bench/out/.

The package is imported from src/ next to this directory, never from
anywhere else, so the benchmark fails (exit 1, no result) in a tree
without the bklkit sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # every run ends well inside three minutes

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "work_per_s": "1/s",
    "large_op_s": "s",
    "peak_rss_mb": "MB",
}


def import_bklkit():
    """Import bklkit from this tree's src/; exit 1 when it is not there."""
    if not (SRC / "bklkit" / "__init__.py").is_file():
        sys.exit(f"error: no bklkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bklkit

    if Path(bklkit.__file__).resolve().parent != (SRC / "bklkit").resolve():
        sys.exit(f"error: bklkit imported from {bklkit.__file__}, not from {SRC}")


def git_revision() -> str | None:
    """HEAD of the enclosing git checkout; None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bklkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(args) -> tuple:
    """Seconds from process start to the first operation, several times.

    Each sample is a fresh interpreter that imports bklkit, loads the pools
    and draws the run's inputs, then exits.  The calibration kernel is
    timed before the first and after each one; returns (setup samples,
    calibration samples).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples, cal = [], [calibrate.sample()]
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - start)
        cal.append(calibrate.sample())
    return samples, cal


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold-queries", "bar-tables", "table-session"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest strata only (for the smoke tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_bklkit()
    import tracing
    import workloads

    rounds = workloads.make_rounds(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        return 0

    setup, setup_cal = ([], []) if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        res = workloads.run_workload(args.workload, rounds, args.seconds, workdir,
                                     tracer, DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = res["ops"]

    failed = sum(1 for op in ops if op["problems"])
    gated, named = workloads.end_to_end(args.workload, ops, args.tiny)
    if tracer is None:
        named["setup_s"] = statistics.median(setup)
        gated["setup_s"] = statistics.median(calibrate.at_reference(
            setup, [setup_cal[i:i + 2] for i in range(len(setup))]))
        metrics = {name: {"value": gated[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        wall = sum(op.get("s", 0.0) for op in ops)
        metrics = tracing.per_layer_metrics(tracer, wall, res["overhead_s"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": res["rounds"],
        "elapsed_s": res["elapsed_s"],
        "setup_samples_s": setup,
        "setup_calibration_s": setup_cal,
        "untraced_replays": res["replays"],
        "named_metrics": named,
        "absent_hooks": tracer.absent if tracer else [],
        "note": "pass indices as --f=<idx> and --lambda=<w>: argparse reads a "
                "leading '-' as an option flag",
        "ops": ops,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and bool(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
