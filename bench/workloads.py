"""The three benchmark workloads: inputs, runners and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Work runs in worker processes forked
from the benchmark after ``import bklkit``, so no in-memory cache of one
worker reaches the next, and a worker that crashes or hangs is counted as
a failed operation instead of stopping the run.

Inputs are drawn from the pools in ``refs.json``.  A pool holds every input
of one stratum, sorted by its cost at the commit that recorded the pool,
together with the digest of its output there.  A run is a sequence of
rounds of fixed composition and order (``ROUNDS``).  Each stratum draws
its pool without replacement, from three cost bins in turn, so any three
consecutive draws cover the cheap, middle and dear third of the pool once
and no item repeats before the pool is used up.  The seed picks the order.
Rounds are started while time remains, and a started round is finished.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import bklkit.cli  # noqa: F401  (imports every bklkit module)
from bklkit import barinv, canonical, cli
from bklkit.combinat import SignedSeq
from bklkit.fock import Window
from bklkit.scalars import ONE

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"

WORKLOADS = ("cold-queries", "bar-tables", "table-session")

# Operations per round and stratum, in the order they run.  The last
# stratum of each round is the large one behind large_op_s.  A round takes
# about 12 s here, so a 30 s run is three rounds with room either side.
ROUNDS = {
    "cold-queries": {"tensor-small": 12, "wedge": 7, "char": 7, "tensor-rank4": 2, "rank5": 3},
    "bar-tables": {"r3k4": 1, "r3k5": 1, "r4k3": 3, "r4k4": 2},
    "table-session": {"r3k4": 2, "r3k5": 5, "r4k3": 3},
}
TINY_ROUNDS = {
    "cold-queries": {"tensor-small": 2, "wedge": 1, "char": 1},
    "bar-tables": {"r3k4": 1},
    "table-session": {"r3k4": 1},
}
MAX_ROUNDS = 64
BINS = 3
KINDS = (canonical.CANONICAL, canonical.DUAL)


def load_refs() -> dict:
    return json.loads(REFS.read_text())


def deal(size: int, rng: random.Random) -> list:
    """Every index of a cost-sorted pool once, taking the bins in turn."""
    bins = [list(range(size * b // BINS, size * (b + 1) // BINS)) for b in range(BINS)]
    for b in bins:
        rng.shuffle(b)
    order = []
    while any(bins):
        turn = [b for b in bins if b]
        rng.shuffle(turn)
        order += [b.pop() for b in turn]
    return order


def make_rounds(workload: str, seed: int, tiny: bool = False) -> list:
    """MAX_ROUNDS rounds of pool items, a pure function of the seed."""
    refs = load_refs()
    comp = (TINY_ROUNDS if tiny else ROUNDS)[workload]
    rng = random.Random(f"{workload}/{seed}")
    decks = {name: [] for name in comp}
    rounds = []
    for _ in range(MAX_ROUNDS):
        items = []
        for stratum, count in comp.items():
            pool, deck = refs[workload][stratum], decks[stratum]
            taken: set = set()
            for _ in range(count):
                if not deck:
                    # No item twice in a round: a table session would
                    # find the repeat in its engine cache.
                    order = deal(len(pool), rng)
                    order.sort(key=lambda i: i in taken)
                    deck.extend(reversed(order))
                taken.add(deck[-1])
                items.append(dict(pool[deck.pop()], stratum=stratum))
        rounds.append(items)
    return rounds


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_child(fn, tracer, timeout: float) -> dict:
    """Run fn() in a forked child; its JSON result, or {"error": ...}.

    The child sends {"value": ..., "trace": ...} through a pipe and exits
    without running cleanup handlers.  A child still running at the
    timeout is killed.  The child is always reaped before returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(rfd)
            if tracer is not None:
                tracer.reset()
            try:
                msg = {"value": fn()}
            except Exception:
                msg = {"error": traceback.format_exc(limit=8)}
            if tracer is not None:
                msg["trace"] = tracer.export()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(json.dumps(msg).encode())
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(wfd)
    chunks = []
    deadline = perf_counter() + timeout
    timed_out = False
    try:
        while True:
            left = deadline - perf_counter()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"worker killed after {timeout:.0f} s"}
    try:
        msg = json.loads(b"".join(chunks))
    except ValueError:
        return {"error": "worker exited without a result"}
    if tracer is not None and "trace" in msg:
        tracer.merge(msg.pop("trace"))
    return msg


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def entry_problems(kind: str, poly: dict) -> list:
    """Degree class and positivity of one off-diagonal entry {exp: coeff}.

    Canonical entries lie in qZ[q] with t in N[q]; dual entries lie in
    q^-1 Z[q^-1] with l(-q^-1) in N[q].
    """
    if not poly:
        return ["zero entry stored"]
    if kind == canonical.CANONICAL:
        if min(poly) < 1:
            return [f"canonical entry {poly} not in qZ[q]"]
        if any(v < 0 for v in poly.values()):
            return [f"canonical entry {poly} not in N[q]"]
    else:
        if max(poly) > -1:
            return [f"dual entry {poly} not in q^-1 Z[q^-1]"]
        if any(v * (-1) ** (e % 2) < 0 for e, v in poly.items()):
            return [f"dual entry {poly}: l(-q^-1) not in N[q]"]
    return []


def column_problems(payload: dict) -> list:
    """Checks of one `bklkit bkl --format json` payload."""
    kind, f, u = payload["kind"], payload["f"], payload.get("u")
    problems, diagonal = [], None
    for item in payload["column"]:
        poly = {int(e): v for e, v in item["poly"].items()}
        if item["g"] == f and item.get("u") == u:
            diagonal = poly
        else:
            problems += entry_problems(kind, poly)
    if diagonal != {0: 1}:
        problems.append(f"diagonal is {diagonal}, not 1")
    return problems


def character_problems(payload: dict) -> list:
    """Checks of one `bklkit char --format json` payload."""
    mult = {t["mu"]: t["mult"] for t in payload["terms"]}
    problems = []
    if mult.get(payload["lambda"]) != 1:
        problems.append(f"highest weight has multiplicity {mult.get(payload['lambda'])}")
    if payload["kind"] == "tilting" and any(v <= 0 for v in mult.values()):
        problems.append("tilting multiplicity not positive")
    return problems


def payload_problems(argv: list, stdout: str, want: str | None) -> list:
    problems = []
    if sha256(stdout) != want:
        problems.append("output digest differs from the reference")
    try:
        payload = json.loads(stdout)
        problems += (column_problems if argv[0] == "bkl" else character_problems)(payload)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable payload: {exc!r}")
    return problems


def table_problems(kind: str, entries: dict) -> list:
    """Degree class and positivity of a BklTable's entries {(g, f): Laurent}."""
    for c in entries.values():
        problems = entry_problems(kind, dict(c.c))
        if problems:
            return problems
    return []


def diagonal_problems(window, kind: str, tracer) -> list:
    """The diagonal entry of every column the table was built from is 1.

    BklTable leaves the diagonal out, so it is read from the engine's
    columns, which the table has just solved (memo hits, untraced).
    """
    eng = canonical.engine(window)
    with tracer.suspended() if tracer is not None else nullcontext():
        bad = [f for f in window.basis() if eng.column(f, kind).entries.get(f) != ONE]
    return [f"{kind} diagonal at {f} is not 1" for f in bad[:1]]


# ---------------------------------------------------------------------------
# Operations (each runs inside a worker)
# ---------------------------------------------------------------------------


def cli_call(argv: list, tracer, qid: int, calibrated: bool = False) -> dict:
    """One `bklkit` invocation through cli.main, stdout captured.

    With `calibrated`, the calibration kernel is timed just before and
    just after it.
    """
    before = calibrate.sample() if calibrated else None
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.qid = qid
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    secs = perf_counter() - start
    cal = [before, calibrate.sample()] if calibrated else None
    return {"rc": rc, "s": secs, "stdout": out.getvalue(), "stderr": err.getvalue()[-400:],
            "rss_mb": maxrss_mb(), "cal_s": cal}


def bar_round(items: list, tracer, qid: int) -> dict:
    """Bar tables plus unitriangularity checks, one per window."""
    ops = []
    cal = calibrate.sample()
    for i, item in enumerate(items):
        bits, k = item["window"]
        if tracer is not None:
            tracer.qid = qid + i
        op = {"stratum": item["stratum"], "key": item["key"]}
        start = perf_counter()
        try:
            table = barinv.bar_table(Window(SignedSeq(tuple(bits)), k))
            table.check_unitriangular()
            defect = None
        except AssertionError as exc:
            defect = exc
        op["s"] = perf_counter() - start
        after = calibrate.sample()
        op["cal_s"], cal = [cal, after], after
        if defect is not None:
            op["problems"] = [f"bar table defect: {defect}"]
            ops.append(op)
            continue
        op["rows"] = len(table.rows)
        digest = sha256(json.dumps(table.to_json(), sort_keys=True))
        op["problems"] = [] if digest == item["sha256"] else ["bar table digest differs from the reference"]
        op["sha256"] = digest
        ops.append(op)
    return {"ops": ops, "rss_mb": maxrss_mb()}


def table_session(items: list, tracer, qid: int) -> dict:
    """BklTable.over_window for both kinds over a list of windows, one process.

    One operation is one window: its canonical table, then its dual table,
    which reuses the bar rows the canonical one built.
    """
    ops = []
    cal = calibrate.sample()
    for i, item in enumerate(items):
        bits, k = item["window"]
        window = Window(SignedSeq(tuple(bits)), k)
        op = {"stratum": item["stratum"], "key": item["key"], "s": 0.0, "problems": [],
              "columns": 0, "s_by_kind": {}, "sha256": {}}
        for j, kind in enumerate(KINDS):
            if tracer is not None:
                tracer.qid = qid + 2 * i + j
            start = perf_counter()
            try:
                table = canonical.BklTable.over_window(window, kind)
            except AssertionError as exc:
                op["s"] += perf_counter() - start
                op["problems"].append(f"{kind} table defect: {exc}")
                continue
            secs = perf_counter() - start
            op["s"] += secs
            op["s_by_kind"][kind] = secs
            op["columns"] += tracing.window_volume(window)
            op["problems"] += table_problems(kind, table.entries)
            op["problems"] += diagonal_problems(window, kind, tracer)
            digest = sha256(json.dumps(table.to_json(), sort_keys=True))
            if digest != item["sha256"][kind]:
                op["problems"].append(f"{kind} table digest differs from the reference")
            op["sha256"][kind] = digest
        after = calibrate.sample()
        op["cal_s"], cal = [cal, after], after
        op["rss_mb"] = maxrss_mb()
        ops.append(op)
    return {"ops": ops, "rss_mb": maxrss_mb()}


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


class Run:
    """Operations of one run, with their timings and failures."""

    def __init__(self, workload: str, workdir: Path, tracer, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.deadline = deadline
        self.ops: list = []
        self.next_qid = 0

    def timeout(self) -> float:
        return max(1.0, self.deadline - perf_counter())

    def unit(self, rnd: int, items: list) -> list:
        """Run one round; returns the operations it added."""
        first = len(self.ops)
        getattr(self, "_" + self.workload.replace("-", "_"))(rnd, items)
        return self.ops[first:]

    def _failed_op(self, rnd, item, error, **extra):
        self.ops.append(dict(round=rnd, stratum=item["stratum"], key=item["key"],
                             problems=[error.strip().splitlines()[-1]], **extra))

    def _cold_queries(self, rnd: int, items: list):
        for item in items:
            argv = list(item["argv"])
            qid = self.next_qid
            self.next_qid += 2
            if argv[0] != "bkl":
                res = in_child(lambda: cli_call(argv, self.tracer, qid, True), self.tracer,
                               self.timeout())
                self._record_cli(rnd, item, "cold", res, None)
                continue
            cache = self.workdir / f"cache-{qid}"
            argv += ["--cache-dir", str(cache)]
            try:
                cold = in_child(lambda: cli_call(argv, self.tracer, qid, True), self.tracer,
                                self.timeout())
                warm = in_child(lambda: cli_call(argv, self.tracer, qid + 1), self.tracer, self.timeout())
            finally:
                shutil.rmtree(cache, ignore_errors=True)
            cold_out = self._record_cli(rnd, item, "cold", cold, None)
            self._record_cli(rnd, item, "warm", warm, cold_out)

    def _record_cli(self, rnd, item, phase, res, cold_out):
        if "error" in res:
            self._failed_op(rnd, item, res["error"], phase=phase)
            return None
        val = res["value"]
        op = {"round": rnd, "stratum": item["stratum"], "key": item["key"], "phase": phase,
              "s": val["s"], "rss_mb": val["rss_mb"], "problems": []}
        if val["cal_s"] is not None:
            op["cal_s"] = val["cal_s"]
        if val["rc"] != 0:
            op["problems"].append(f"exit code {val['rc']}: {val['stderr'].strip()}")
        elif phase == "cold":
            op["problems"] += payload_problems(item["argv"], val["stdout"], item["sha256"])
        elif val["stdout"] != cold_out:
            op["problems"].append("warm payload differs from the cold payload")
        self.ops.append(op)
        return val["stdout"]

    def _bar_tables(self, rnd: int, items: list):
        self._batch(rnd, items, bar_round, len(items))

    def _table_session(self, rnd: int, items: list):
        self._batch(rnd, items, table_session, 2 * len(items))

    def _batch(self, rnd, items, fn, nqid):
        qid = self.next_qid
        self.next_qid += nqid
        res = in_child(lambda: fn(items, self.tracer, qid), self.tracer, self.timeout())
        if "error" in res:
            for item in items:
                self._failed_op(rnd, item, res["error"])
            return
        for op in res["value"]["ops"]:
            op.setdefault("rss_mb", res["value"]["rss_mb"])
            op["round"] = rnd
            self.ops.append(op)


def run_workload(workload: str, rounds: list, seconds: float, workdir: Path,
                 tracer=None, deadline: float = 170.0) -> dict:
    """Run whole rounds until `seconds` have passed; the operations and wall.

    With a tracer, round 0 also runs untraced just before and just after
    its traced run.  The traced wall time of round 0 minus the mean of the
    two untraced ones is the tracing overhead; the untraced operations are
    returned apart, as "replays", and are not in "ops".
    """
    workdir.mkdir(parents=True, exist_ok=True)
    # The workers' garbage collector should see their own objects only, as
    # in a process of their own, not the benchmark's pools and rounds.
    gc.collect()
    gc.freeze()
    start = perf_counter()
    run = Run(workload, workdir, tracer, start + deadline)
    replays, overhead = [], None
    done = 0
    for rnd, items in enumerate(rounds):
        if rnd and perf_counter() - start >= seconds:
            break
        if tracer is not None and rnd == 0:
            replays.append(replay(workload, workdir, tracer, run.deadline, items))
        traced = run.unit(rnd, items)
        if tracer is not None and rnd == 0:
            replays.append(replay(workload, workdir, tracer, run.deadline, items))
            overhead = wall(traced) - (wall(replays[0]) + wall(replays[1])) / 2
        done += 1
        if perf_counter() > run.deadline:
            break
    return {"ops": run.ops, "rounds": done, "elapsed_s": perf_counter() - start,
            "overhead_s": overhead, "replays": replays}


def replay(workload, workdir, tracer, deadline, items) -> list:
    """One round run untraced, with the tracer's hooks taken out meanwhile."""
    with tracer.suspended():
        return Run(workload, workdir, None, deadline).unit(-1, items)


def wall(ops: list) -> float:
    return sum(op.get("s", 0.0) for op in ops)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples); (max, 100, n) when there are
    fewer than eleven samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def median(values: list):
    return statistics.median(values) if values else None


def end_to_end(workload: str, ops: list, tiny: bool = False) -> tuple:
    """(gated metrics, named metrics) from the operations of one run.

    The gated timings are scaled to the reference speed of the calibration
    kernel (see calibrate.py); the named ones are as measured.
    """
    comp = (TINY_ROUNDS if tiny else ROUNDS)[workload]
    large = list(comp)[-1]
    timed = [op for op in ops if "s" in op and op.get("phase", "cold") == "cold"]
    secs = [op["s"] for op in timed]
    large_s = [op["s"] for op in timed if op["stratum"] == large]
    rss = max((op["rss_mb"] for op in ops if "rss_mb" in op), default=None)
    failed = sum(1 for op in ops if op["problems"])
    named = {"peak_rss_mb": rss, "failed_ratio": failed / len(ops)}
    if workload == "cold-queries":
        work = len(secs) / sum(secs) if secs else None
        value, pct, n = tail(secs) if secs else (None, None, 0)
        warm = [op["s"] for op in ops if op.get("phase") == "warm" and "s" in op]
        named.update(
            query_p50_s=median(secs),
            query_tail_s={"value": value, "percentile": pct, "samples": n},
            large_query_s=median(large_s),
            warm_query_p50_ms=1000 * median(warm) if warm else None,
            queries_per_s=work,
        )
    elif workload == "bar-tables":
        work = sum(op.get("rows", 0) for op in timed) / sum(secs) if secs else None
        named.update(bar_rows_per_s=work)
    else:
        work = sum(op.get("columns", 0) for op in timed) / sum(secs) if secs else None
        named.update(columns_per_s=work)
    if not secs:
        return {"op_p50_s": None, "work_per_s": None, "large_op_s": None, "peak_rss_mb": rss}, named
    # Every timed operation carries the calibration samples around it.
    named["calibration_p50_s"] = median([c for op in timed for c in op["cal_s"]])
    ref = calibrate.at_reference(secs, [op["cal_s"] for op in timed])
    ref_large = [t for op, t in zip(timed, ref) if op["stratum"] == large]
    gated = {
        "op_p50_s": median(ref),
        "work_per_s": work * sum(secs) / sum(ref),
        "large_op_s": median(ref_large),
        "peak_rss_mb": rss,
    }
    return gated, named
