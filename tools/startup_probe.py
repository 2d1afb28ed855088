"""Time bklkit's start-up in fresh processes, two checkouts side by side.

Runs each command below in a new interpreter, once per checkout per pair,
alternating which checkout goes first, and times the whole process with
time.perf_counter:

    import       python -c "import bklkit.cli"
    bkl          one `bklkit bkl --seq 01 --f=1,0 --no-cache` call, through
                 cli.main as the console script runs it
    setup-probe  bench/run.py --workload cold-queries --seed 21 --setup-probe
                 (imports bklkit and the bench, draws the inputs, exits)

and takes two more samples inside each new interpreter, also with
time.perf_counter, so that interpreter start-up falls outside them:

    import-in-process  the `import bklkit.cli` statement alone
    compile            compile() of the source of every bklkit module that
                       `import bklkit.cli` loaded, read before the clock
                       starts (what each process pays for src/ when no
                       __pycache__ is written); the median of five passes

Each process gets PYTHONPATH=<checkout>/src and the rest of the caller's
environment (PYTHONDONTWRITEBYTECODE included, which decides whether src/
is compiled at every start).  Prints one JSON object: per command and
per in-process sample, each side's samples, median and quartiles, and the
pairs the new checkout won; per checkout the bklkit modules that `import
bklkit.cli` loads, the line count of each and their total (what `wc -l`
prints for those files), and whether it loads dataclasses or inspect;
nproc and the Python version.

    python tools/startup_probe.py --old ../parent --new . --pairs 15
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

COMMANDS = {
    "import": ["-c", "import bklkit.cli"],
    "bkl": [
        "-c",
        "import sys; from bklkit.cli import main; "
        "sys.exit(main(['bkl', '--seq', '01', '--f=1,0', '--no-cache']))",
    ],
    "setup-probe": [
        "bench/run.py", "--workload", "cold-queries", "--seed", "21", "--setup-probe",
    ],
}
IN_PROCESS = {
    "import-in-process": (
        "from time import perf_counter; start = perf_counter(); import bklkit.cli; "
        "print(perf_counter() - start)"
    ),
    "compile": """
import statistics, sys
from time import perf_counter
import bklkit.cli
texts = [(m.__file__, open(m.__file__).read())
         for name, m in list(sys.modules.items()) if name.split(".")[0] == "bklkit"]
passes = []
for _ in range(5):
    start = perf_counter()
    for path, text in texts:
        compile(text, path, "exec")
    passes.append(perf_counter() - start)
print(statistics.median(passes))
""",
}
LOADED = """
import json, sys
before = set(sys.modules)
import bklkit.cli
new = set(sys.modules) - before
lines = {name: open(sys.modules[name].__file__, "rb").read().count(b"\\n")
         for name in sorted(new) if name.split(".")[0] == "bklkit"}
print(json.dumps({"bklkit": list(lines), "lines": lines, "total_lines": sum(lines.values()),
                  "dataclasses": "dataclasses" in new, "inspect": "inspect" in new}))
"""


def run(checkout: Path, args: list) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True,
        check=True,
    )


def timed(checkout: Path, args: list) -> float:
    start = perf_counter()
    run(checkout, args)
    return perf_counter() - start


def timed_inside(checkout: Path, code: str) -> float:
    """The seconds that code, run in a new interpreter, prints."""
    return float(run(checkout, ["-c", code]).stdout)


def summary(samples: list) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "samples_s": [round(s, 4) for s in samples],
        "median_s": round(statistics.median(samples), 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
    }


def probe(old: Path, new: Path, pairs: int) -> dict:
    times: dict = {name: {"old": [], "new": []} for name in (*COMMANDS, *IN_PROCESS)}
    for i in range(pairs):
        order = (("old", old), ("new", new)) if i % 2 == 0 else (("new", new), ("old", old))
        for name, args in COMMANDS.items():
            for side, checkout in order:
                times[name][side].append(timed(checkout, args))
        for name, code in IN_PROCESS.items():
            for side, checkout in order:
                times[name][side].append(timed_inside(checkout, code))
    out: dict = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pairs": pairs,
        "commands": {name: " ".join(args) for name, args in COMMANDS.items()},
        "in_process": IN_PROCESS,
        "loaded_by_import": {
            side: json.loads(run(checkout, ["-c", LOADED]).stdout)
            for side, checkout in (("old", old), ("new", new))
        },
    }
    for name, t in times.items():
        won = sum(n < o for o, n in zip(t["old"], t["new"]))
        out[name] = {"old": summary(t["old"]), "new": summary(t["new"]), "new_won": won}
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--old", type=Path, required=True, help="the checkout to compare against")
    p.add_argument("--new", type=Path, required=True, help="the checkout under test")
    p.add_argument("--pairs", type=int, default=15)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    print(json.dumps(probe(args.old.resolve(), args.new.resolve(), args.pairs)))


if __name__ == "__main__":
    main()
