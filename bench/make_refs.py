"""Record the input pools and reference digests in bench/refs.json.

    python3 bench/make_refs.py      # about five minutes on a 2-core machine

Every candidate input of every stratum is run once, exactly as the
benchmark runs it.  The digest of its output, its time and its peak RSS
are stored, with each pool sorted by time so that the benchmark can draw
from cost bins.  Run this only when the inputs change on purpose: the
digests pin the outputs of the commit that recorded them.
"""
from __future__ import annotations

import itertools
import json
import platform
import random
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIMEOUT = 120.0
# The large stratum of each workload (the last of its round) keeps the
# candidates within this share of their median cost, so that large_op_s
# and the peak RSS of a run compare like with like whatever the seed.
LARGE_BAND = 0.10


def pool(workload: str, stratum: str, items: list) -> list:
    items = sorted(items, key=lambda r: r["cost_s"])
    if stratum == list(workloads.ROUNDS[workload])[-1]:
        mid = items[len(items) // 2]["cost_s"]
        items = [r for r in items if abs(r["cost_s"] - mid) <= LARGE_BAND * mid]
    return items


def seqs(rank: int) -> list:
    return ["".join(bits) for bits in itertools.product("01", repeat=rank)]


def idx(values) -> str:
    return ",".join(str(v) for v in values)


def cold_candidates() -> dict:
    rng = random.Random("bklkit cold-queries pools")
    pools = {"tensor-small": [], "tensor-rank4": [], "wedge": [], "char": [], "rank5": []}
    for rank in (2, 3):
        for b in seqs(rank):
            for f in itertools.product((-1, 0, 1), repeat=rank):
                kind = rng.choice(("canonical", "dual"))
                pools["tensor-small"].append(["bkl", "--seq", b, f"--f={idx(f)}", "--kind", kind])
    for b in seqs(4):
        for kind in ("canonical", "dual"):
            for _ in range(2):
                f = [rng.choice((-1, 0, 1)) for _ in range(4)]
                f[rng.randrange(4)] = 1  # spread 1: automatic level k = 7
                pools["tensor-rank4"].append(["bkl", "--seq", b, f"--f={idx(f)}", "--kind", kind])
    for b in seqs(1) + seqs(2):
        for side in ("V", "W"):
            for kw in (1, 2):
                head = [rng.choice((-1, 0, 1, 2)) for _ in b]
                tail = sorted(rng.sample(range(-2, 3), kw), reverse=(side == "V"))
                kind = rng.choice(("canonical", "dual"))
                pools["wedge"].append(["bkl", "--seq", b, f"--f={idx(head)}/{idx(tail)}",
                                       "--wedge", f"{side}:{kw}", "--kind", kind])
            for lam in ((1,), (2,), (1, 1), (2, 1)):
                head = [rng.choice((-1, 0, 1)) for _ in b]
                kind = rng.choice(("canonical", "dual"))
                pools["wedge"].append(["bkl", "--seq", b, f"--f={idx(head)}",
                                       "--wedge", f"partition:{side}:{idx(lam)}", "--kind", kind])
    for rank, count in ((2, 16), (3, 16), (4, 16)):
        for _ in range(count):
            b = "".join(rng.choice("01") for _ in range(rank))
            lam = [rng.choice((-1, 0, 1)) for _ in range(rank)]
            kind = rng.choice(("irr", "tilt"))
            pools["char"].append(["char", "--seq", b, f"--lambda={idx(lam)}", "--kind", kind])
    mixed5 = [b for b in seqs(5) if "0" in b and "1" in b]
    for b in rng.sample(mixed5, 15):
        f = [rng.choice((0, 1)) for _ in b]
        kind = rng.choice(("canonical", "dual"))
        pools["rank5"].append(["bkl", "--seq", b, f"--f={idx(f)}", "--kind", kind, "--window", "5"])
    return pools


def window_candidates(shapes) -> dict:
    return {f"r{rank}k{k}": [(b, k) for b in seqs(rank)] for rank, k in shapes}


def measure_cold(argv: list) -> dict:
    cache = HERE / "out" / "refs-cache"
    run_argv = argv + (["--cache-dir", str(cache)] if argv[0] == "bkl" else [])
    try:
        res = workloads.in_child(lambda: workloads.cli_call(run_argv, None, 0), None, TIMEOUT)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    val = res.get("value")
    if val is None or val["rc"] != 0:
        raise SystemExit(f"{argv}: {res}")
    problems = workloads.payload_problems(argv, val["stdout"], workloads.sha256(val["stdout"]))
    if problems:
        raise SystemExit(f"{argv}: {problems}")
    return {"key": " ".join(argv), "argv": argv, "sha256": workloads.sha256(val["stdout"]),
            "cost_s": round(val["s"], 4), "rss_mb": round(val["rss_mb"], 1)}


def measure_window(fn, bits: str, k: int) -> dict:
    item = {"key": f"{bits}:{k}", "window": [[int(c) for c in bits], k], "stratum": "",
            "sha256": {"canonical": None, "dual": None} if fn is workloads.table_session else None}
    res = workloads.in_child(lambda: fn([item], None, 0), None, TIMEOUT)
    if "error" in res:
        raise SystemExit(f"{bits}:{k}: {res['error']}")
    ops = res["value"]["ops"]
    for op in ops:
        bad = [p for p in op["problems"] if "digest" not in p]
        if bad:
            raise SystemExit(f"{bits}:{k}: {bad}")
    digest = ops[0]["sha256"] if len(ops) == 1 else {
        kind: op["sha256"] for kind, op in zip(workloads.KINDS, ops)
    }
    return {"key": item["key"], "window": item["window"], "sha256": digest,
            "cost_s": round(sum(op["s"] for op in ops), 4), "rss_mb": round(res["value"]["rss_mb"], 1)}


def main():
    refs = {
        "about": {
            "recorded_with": "python3 bench/make_refs.py",
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "pools": "each stratum sorted by cost_s, the time of one run of the item; "
                     f"large strata keep the items within {LARGE_BAND:.0%} of the median cost",
        }
    }
    cold = {}
    for stratum, argvs in cold_candidates().items():
        argvs = list({" ".join(a): a for a in argvs}.values())
        cold[stratum] = pool("cold-queries", stratum, [measure_cold(a) for a in argvs])
        print(stratum, len(argvs), file=sys.stderr)
    refs["cold-queries"] = cold
    for workload, fn, shapes in (
        ("bar-tables", workloads.bar_round, ((3, 4), (3, 5), (4, 3), (4, 4))),
        ("table-session", workloads.table_session, ((3, 4), (3, 5), (4, 3))),
    ):
        refs[workload] = {}
        for stratum, windows in window_candidates(shapes).items():
            items = [measure_window(fn, b, k) for b, k in windows]
            refs[workload][stratum] = pool(workload, stratum, items)
            print(workload, stratum, len(items), file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
