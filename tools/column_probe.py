"""Time one BKL column in a fresh process and print one JSON line.

Solves engine(Window(seq, k)).column(f, kind) once, with no stability
check and no cache, and prints

    {"seq", "f", "k", "kind", "seconds", "peak_rss_mb", "entries",
     "lanes", "sha256"}

seconds is the time.perf_counter span of the column call alone; peak_rss_mb
is the process's ru_maxrss (import included); sha256 is taken over the
column's to_json() dumped with sorted keys.  Run it once per measurement,
so that every run starts from an empty engine:

    PYTHONPATH=src python tools/column_probe.py --seq 000111 --f 1,1,1,1,1,1 --k 9 --kind dual

The rank-6 column above has 1,331 entries and a sha256 starting 34b1245e.
Point PYTHONPATH at another checkout's src to probe that revision.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

from bklkit.canonical import CANONICAL, DUAL, engine
from bklkit.combinat import SignedSeq, parse_weight
from bklkit.fock import Window


def probe(seq: str, f: tuple, k: int, kind: str) -> dict:
    eng = engine(Window(SignedSeq.parse(seq), k))
    start = time.perf_counter()
    col = eng.column(f, kind)
    seconds = time.perf_counter() - start
    text = json.dumps(col.to_json(), sort_keys=True)
    return {
        "seq": seq,
        "f": list(f),
        "k": k,
        "kind": kind,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "entries": len(col.entries),
        "lanes": list(getattr(eng, "_lanes", ())),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seq", required=True, help="0^m1^n sequence, e.g. 000111")
    p.add_argument("--f", required=True, help="tensor index, e.g. 1,1,1,1,1,1")
    p.add_argument("--k", type=int, required=True, help="window level")
    p.add_argument("--kind", choices=[CANONICAL, DUAL], required=True)
    args = p.parse_args(argv)
    print(json.dumps(probe(args.seq, parse_weight(args.f), args.k, args.kind)))


if __name__ == "__main__":
    main()
