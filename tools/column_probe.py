"""Time one BKL column, or one window's tables, in a fresh process; print one JSON line.

Column mode solves engine(Window(seq, k)).column(f, kind) once, without
bkl's descent check and with no cache, and prints

    {"seq", "f", "k", "kind", "seconds", "peak_rss_mb", "entries",
     "lanes", "chain_memo", "sha256"}

seconds is the time.perf_counter span of the column call alone; sha256 is
taken over the column's to_json() dumped with sorted keys.

Table mode (--table, no --f or --kind) times the phases of one tensor
window in order: its bar rows through one BarContext ("rows"),
BarTable.involution_defect ("involution"), check_unitriangular
("unitriangular"), then BklTable.over_window for the canonical and then
the dual kind.  Both tables come from one engine, which builds its own
bar rows during the canonical table, as a table-session window does.  It
prints

    {"seq", "k", "seconds": {phase: s}, "peak_rss_mb", "rows",
     "chain_memo", "sha256": {"bar", "canonical", "dual"}}

each sha256 over that table's to_json() dumped with sorted keys, as the
bench digests its tables.  The bar table is dropped before the BKL tables
are built.

In both modes peak_rss_mb is the process's ru_maxrss (import included),
and chain_memo = {"pairs", "terms"} sizes the engine's BarContext memo of
full-length chain scans at the end: the (g, c) pairs it holds and the
chain terms over all of them (each term one interned key and one code in
a flat tuple, so the memo holds about 2 * terms pointers), or null on a
revision whose BarContext keeps no such memo.
Run it once per measurement, so that every run starts from empty caches:

    PYTHONPATH=src python tools/column_probe.py --seq 000111 --f 1,1,1,1,1,1 --k 9 --kind dual
    PYTHONPATH=src python tools/column_probe.py --seq 0010 --k 4 --table

The rank-6 column above has 1,331 entries and a sha256 starting 34b1245e.
Point PYTHONPATH at another checkout's src to probe that revision.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

from bklkit.barinv import BarContext, BarTable
from bklkit.canonical import CANONICAL, DUAL, BklTable, engine
from bklkit.combinat import SignedSeq, Window, parse_weight


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj.to_json(), sort_keys=True).encode()).hexdigest()


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _chain_memo(ctx: BarContext) -> dict | None:
    memo = getattr(ctx, "_chain_memo", None)  # None on a revision without it
    if memo is None:
        return None
    return {"pairs": len(memo), "terms": sum(map(len, memo.values())) // 2}


def probe(seq: str, f: tuple, k: int, kind: str) -> dict:
    eng = engine(Window(SignedSeq.parse(seq), k))
    start = time.perf_counter()
    col = eng.column(f, kind)
    seconds = time.perf_counter() - start
    return {
        "seq": seq,
        "f": list(f),
        "k": k,
        "kind": kind,
        "seconds": round(seconds, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "entries": len(col.entries),
        "lanes": list(getattr(eng, "_lanes", ())),
        "chain_memo": _chain_memo(eng._ctx),
        "sha256": _sha256(col),
    }


def probe_table(seq: str, k: int) -> dict:
    window = Window(SignedSeq.parse(seq), k)
    seconds, sha = {}, {}

    def timed(phase: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        seconds[phase] = round(time.perf_counter() - start, 3)
        return out

    ctx = BarContext(window)
    bar = timed("rows", lambda: BarTable(window, {f: ctx.row(f) for f in window.basis()}))
    defect = timed("involution", bar.involution_defect)
    if defect is not None:
        raise AssertionError(f"bar is not an involution on {window}: {defect!r}")
    timed("unitriangular", bar.check_unitriangular)
    rows, sha["bar"] = len(bar.rows), _sha256(bar)
    del ctx, bar
    for kind in (CANONICAL, DUAL):
        sha[kind] = _sha256(timed(kind, BklTable.over_window, window, kind))
    return {
        "seq": seq,
        "k": k,
        "seconds": seconds,
        "peak_rss_mb": _peak_rss_mb(),
        "rows": rows,
        "chain_memo": _chain_memo(engine(window)._ctx),
        "sha256": sha,
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seq", required=True, help="0^m1^n sequence, e.g. 000111")
    p.add_argument("--k", type=int, required=True, help="window level")
    p.add_argument("--f", help="tensor index, e.g. 1,1,1,1,1,1 (column mode)")
    p.add_argument("--kind", choices=[CANONICAL, DUAL], help="column mode")
    p.add_argument("--table", action="store_true", help="time the window's table phases")
    args = p.parse_args(argv)
    if args.table:
        if args.f is not None or args.kind is not None:
            p.error("--table takes no --f or --kind")
        print(json.dumps(probe_table(args.seq, args.k)))
    else:
        if args.f is None or args.kind is None:
            p.error("a column needs --f and --kind (or pass --table)")
        print(json.dumps(probe(args.seq, parse_weight(args.f), args.k, args.kind)))


if __name__ == "__main__":
    main()
