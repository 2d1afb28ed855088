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

With --cli the map covers the command line instead: each call in
CLI_CALLS runs through cli.main in this process, keyed by its argv, and
records "<exit code>:<sha256 of stdout>".  Every `bkl` call gets a fresh
temporary --cache-dir (or runs with --no-cache), so no cache from the
environment leaks in.  Each call with a --cache-dir then runs a second
time in the same dir, and the mode exits 1 naming the call if this warm
run differs from the cold one; COLD_WARM records both runs.  This mode
takes about a second:

    PYTHONPATH=src python tools/differential.py --cli --check tools/cli_digests.json
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

from bklkit import cli
from bklkit.canonical import CANONICAL, DUAL, BklTable
from bklkit.combinat import SignedSeq, Window


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


CLI_CALLS = (
    "bkl --seq 01 --f=0,1",
    "bkl --seq 10 --f=1,-1 --kind dual",
    "bkl --seq 011 --f=1,0,-1 --format csv",
    "bkl --seq 0101 --f=1,0,0,-1 --kind dual --format csv --no-cache",
    "bkl --seq 01 --f=1,-1 --kind dual --format tex",
    "bkl --seq 0 --f=0/2,1 --wedge V:2",
    "bkl --seq 1 --f=0/2,1,0 --wedge V:3 --kind dual",
    "bkl --seq 01 --f=0,1/0,2 --wedge W:2",
    "bkl --seq 0 --f=-1 --wedge partition:V:2,1 --kind dual",
    "bkl --seq 11110 --f=0,0,1,1,0 --window 5",
    "bkl --seq 0011 --f=5,5,5,5 --window 6",
    "bkl --seq 01 --f=1,-1 --kind dual --at-q1",
    "bkl --seq 011 --f=1,0,-1 --format csv --at-q1",
    "bkl --seq 0 --f=1,2",
    "bkl --seq 01 --f=3,0 --window 2",
    "bkl --seq 0101 --f=2,1,1,2 --window 2 --kind dual",
    "bkl --seq 0110 --f=1,1,1,1 --kind dual",
    "bkl --seq 0101 --f=1,1,1,1 --format csv",
    "bkl --se 01 --f=0,1",
    "bkl --seq 01 --f=1,1 --window -1",
    "bkl --seq 01 --f=0,x",
    "bkl --seq 0x --f=0,1",
    "bkl --seq 0 --f=0 --wedge partition:V:a",
    "char --seq 01 --lambda=0,1",
    "char --seq 11 --lambda=-1,0 --kind tilt --format csv",
    "char --seq 01 --lambda=0,0 --bogus",
    "char --seq 01 --lambda=0,y",
    "verify --suite tensor-wedge",
    "verify --suite shift",
    "verify --suite odd-reflection",
)
COLD_WARM = "bkl --seq 0110 --f=1,0,-1,0 --kind dual"


def cli_run(argv: list) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return f"{code}:{hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def cli_digests() -> dict:
    out = {}
    for call in CLI_CALLS:
        argv = call.split()
        with tempfile.TemporaryDirectory() as tmp:
            cached = argv[0] == "bkl" and "--no-cache" not in argv
            if cached:
                argv += ["--cache-dir", tmp]
            out[call] = cli_run(argv)
            if cached and cli_run(argv) != out[call]:
                raise SystemExit(f"warm run differs from cold at {call}")
    with tempfile.TemporaryDirectory() as tmp:
        argv = COLD_WARM.split() + ["--cache-dir", tmp]
        out[f"{COLD_WARM} (cold)"] = cli_run(argv)
        out[f"{COLD_WARM} (warm)"] = cli_run(argv)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="FILE", help="record the digests in FILE")
    mode.add_argument("--check", metavar="FILE", help="compare the digests with FILE")
    ap.add_argument("--cli", action="store_true", help="digest CLI calls, not tables")
    args = ap.parse_args(argv)
    got = cli_digests() if args.cli else digests()
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
        print(f"{len(got)} {'calls' if args.cli else 'tables'} match")
        return 0
    print(hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
