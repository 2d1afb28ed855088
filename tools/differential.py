"""Differential check of whole BKL tables against recorded digests.

Computes the canonical and dual BklTable of every window in two sets and
takes the sha256 of each table's JSON:

- every tensor window with 1 <= m+n <= 4 at 1 <= k <= 4 (120 windows);
- every wedge window with m+n <= 2, side V or W, kw in {1, 2}, at
  1 <= k <= 3 (84 windows).

A map is keyed "b|k|wedge|kind", with wedge the (side, kw) tuple or None.
When an algorithm is replaced, record the digests before the change and
check them after it:

    PYTHONPATH=src python tools/differential.py --write digests.json
    PYTHONPATH=src python tools/differential.py --check digests.json

--check exits 1 and names the first window that differs.  With neither
option the script prints the sha256 of the whole sorted map.  It takes
tens of seconds, which is why no test runs it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import product

from bklkit.canonical import CANONICAL, DUAL, BklTable
from bklkit.combinat import SignedSeq
from bklkit.fock import Window


def windows():
    for n in range(1, 5):
        for bits in product((0, 1), repeat=n):
            for k in range(1, 5):
                yield Window(SignedSeq(bits), k)
    for n in range(3):
        for bits in product((0, 1), repeat=n):
            for side, kw, k in product("VW", (1, 2), range(1, 4)):
                yield Window(SignedSeq(bits), k, (side, kw))


def digests() -> dict:
    out = {}
    for w in windows():
        for kind in (CANONICAL, DUAL):
            text = json.dumps(BklTable.over_window(w, kind).to_json(), sort_keys=True)
            out[f"{w.b}|{w.k}|{w.wedge}|{kind}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="FILE", help="record the digests in FILE")
    mode.add_argument("--check", metavar="FILE", help="compare the digests with FILE")
    args = ap.parse_args(argv)
    got = digests()
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.check:
        with open(args.check) as fh:
            want = json.load(fh)
        for key in sorted(want.keys() | got.keys()):
            if want.get(key) != got.get(key):
                print(f"differs at {key}: {want.get(key)} != {got.get(key)}", file=sys.stderr)
                return 1
        print(f"{len(got)} tables match")
        return 0
    print(hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
