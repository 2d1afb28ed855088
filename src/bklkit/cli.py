"""Command-line front end.

Three subcommands: `bkl` prints a canonical/dual-canonical column, `char`
prints an irreducible or tilting character in Verma characters, `verify`
runs the exact-identity suites.  Columns are cached content-addressed
under a two-level hash directory; a cache hit is returned byte-identically
and never recomputed unless --no-cache.

Every flag is declared once, in COMMANDS, and two parsers read it.  A
plain call (a subcommand, then its long flags spelled out in full, each at
most once, every value valid for its flag and every required flag given)
is read by `_fast_args`, which builds no argparse parser; argparse is not
even imported.  Any other input (help, abbreviated flags, '--', a value
starting with '-' after a space, a repeated flag, an unknown flag or value,
a missing flag) goes to argparse: it returns the namespace, prints help,
or prints its own usage message and exits 2.

Exit codes: 0 success, 2 usage error (raised while the input is parsed), 1
any later failure, with its diagnostic (a verify run with no check is one).
"""
from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import cache as cachemod
from .canonical import CANONICAL, DUAL, BklColumn, bkl, query_window, wedge_bkl
from .characters import irreducible_character, tilting_character
from .combinat import (
    SignedSeq, WedgeIndex, Window, check_partition, parse_int, parse_weight, weight_to_f,
)
from .scalars import Laurent


class UsageError(Exception):
    pass


def _read(flag: str, parse, text: str):
    """parse(text); a ValueError is a usage error that names flag."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag} {exc}") from exc


def _parse_wedge(text: str):
    """'V:2' or 'W:3' finite wedge; 'partition:V:2,1' a partition tail."""
    parts = text.split(":")
    if parts[0] in ("V", "W") and len(parts) == 2:
        try:
            kw = int(parts[1])
            if kw >= 0:
                return ("finite", parts[0], kw)
        except ValueError:
            pass
        raise UsageError(f"bad wedge size in {text!r}")
    if parts[0] == "partition" and len(parts) in (2, 3):
        side = parts[1] if len(parts) == 3 else "V"
        lam = tuple(parse_int(v) for v in parts[-1].split(",")) if parts[-1] else ()
        check_partition(lam)  # a ValueError here is a usage error, see _read
        if side not in ("V", "W"):
            raise UsageError(f"bad wedge side in {text!r}")
        return ("partition", side, lam)
    raise UsageError(f"cannot parse wedge spec {text!r}")


def _check_window(idx: tuple, k: int | None) -> None:
    """A --window level k admits only indices with every |entry| <= k."""
    if k is not None and k <= 0:
        raise UsageError(f"window level {k} is not positive")
    if k is not None and any(abs(v) > k for v in idx):
        raise UsageError(f"index {','.join(map(str, idx))} lies outside window level {k}")


def _poly_tex(p: Laurent) -> str:
    if not p.c:
        return "0"
    bits = []
    for e in sorted(p.c, reverse=True):
        v = p.c[e]
        mag = abs(v)
        if e == 0:
            term = str(mag)
        else:
            coeff = "" if mag == 1 else str(mag)
            if e == 1:
                term = f"{coeff}q"
            else:
                term = f"{coeff}q^{{{e}}}"
        bits.append(("-" if v < 0 else "+") + term)
    out = "".join(bits)
    return out[1:] if out.startswith("+") else out


def _poly_compact(p: Laurent) -> str:
    return " ".join(f"{e}:{v}" for e, v in sorted(p.c.items())) or "0"


def _render_column(payload: dict, fmt: str, at_q1: bool) -> str:
    if fmt == "json":
        if at_q1:
            payload = dict(payload)
            payload["column_q1"] = [
                {
                    "g": item["g"],
                    **({"u": item["u"]} if "u" in item else {}),
                    "mult": Laurent.from_json(item["poly"]).ev(),
                }
                for item in payload["column"]
            ]
        return json.dumps(payload, sort_keys=True)
    lines = []
    if fmt == "csv":
        head = "g,u,poly" if any("u" in it for it in payload["column"]) else "g,poly"
        lines.append(head + (",q1" if at_q1 else ""))
        for item in payload["column"]:
            poly = Laurent.from_json(item["poly"])
            row = [item["g"].replace(",", " ")]
            if "u" in item:
                row.append(item["u"].replace(",", " "))
            row.append(_poly_compact(poly))
            if at_q1:
                row.append(str(poly.ev()))
            lines.append(",".join(row))
        return "\n".join(lines)
    # tex: the --format choices reject any other format
    kindsym = "t" if payload["kind"] == CANONICAL else "\\ell"
    fidx = payload["f"] + (";" + payload["u"] if "u" in payload else "")
    for item in payload["column"]:
        poly = Laurent.from_json(item["poly"])
        gidx = item["g"] + (";" + item["u"] if "u" in item else "")
        val = str(poly.ev()) if at_q1 else _poly_tex(poly)
        lines.append(f"{kindsym}_{{({gidx}),({fidx})}} &= {val} \\\\")
    return "\n".join(lines)


def _served(data: bytes, window: Window, f: tuple, kind: str) -> dict | None:
    """The cached payload in data if it is the column of f over window, else None (a miss).

    The payload is decoded into a column and served only if every index
    lies in the window and the column's to_json, encoded as it is stored,
    gives back data byte for byte.
    """
    try:
        payload = json.loads(data)
        entries = {}
        for item in payload["column"]:
            g = parse_weight(item["g"]) + parse_weight(item.get("u", ""))
            entries[g] = Laurent.from_json(item["poly"])
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None
    if not all(map(window.valid_index, entries)):
        return None
    col = BklColumn(window, f, kind, entries).to_json()
    return payload if json.dumps(col, sort_keys=True).encode() == data else None


def cmd_bkl(args) -> int:
    b = _read("--seq", SignedSeq.parse, args.seq)
    kind = {"canonical": CANONICAL, "dual": DUAL}[args.kind]
    wedge = _read("--wedge", _parse_wedge, args.wedge) if args.wedge else None
    if wedge and wedge[0] == "partition":
        _, side, lam = wedge
        head = _read("--f", parse_weight, args.f)
        if len(head) != len(b):
            raise UsageError(f"--f needs {len(b)} tensor entries")
        idx = WedgeIndex(head, side, lam)
        kw = max(len(lam), 1)
        flat = idx.flat(kw)
        wspec = {"side": side, "kw": kw, "partition": list(lam)}
    elif wedge:
        _, side, kw = wedge
        if "/" in args.f:
            head_s, tail_s = args.f.split("/", 1)
        else:
            head_s, tail_s = args.f, ""
        head, tail = _read("--f", parse_weight, head_s), _read("--f", parse_weight, tail_s)
        if len(head) != len(b) or len(tail) != kw:
            raise UsageError(f"--f must be '<{len(b)} tensor entries>/<{kw} tail entries>'")
        if any((x <= y) if side == "V" else (x >= y) for x, y in zip(tail, tail[1:])):
            order = "decreasing" if side == "V" else "increasing"
            raise UsageError(f"{side} tail {','.join(map(str, tail))} is not strictly {order}")
        flat = head + tail
        wspec = {"side": side, "kw": kw}
    else:
        flat = _read("--f", parse_weight, args.f)
        if len(flat) != len(b):
            raise UsageError(f"--f needs {len(b)} entries for sequence {b}")
        wspec = None
    _check_window(flat, args.window)

    payload = None
    if not args.no_cache:
        key = cachemod.cache_key(
            "bkl-column",
            b=str(b),
            f=list(flat),
            kind=kind,
            window=args.window,
            wedge=wspec,
        )
        root = cachemod.cache_dir(args.cache_dir)
        payload_bytes = cachemod.load(root, key)
        if payload_bytes is not None:
            side_kw = (wspec["side"], wspec["kw"]) if wspec else None
            window = query_window(b, flat, args.window, side_kw)
            payload = _served(payload_bytes, window, flat, kind)
    if payload is None:
        if wspec is None:
            col = bkl(b, flat, kind, k=args.window)
        else:
            col = wedge_bkl(b, wspec["side"], wspec["kw"], flat, kind, k=args.window)
        # every value is a JSON-native str, int, list, dict or None with str
        # keys, so the payload renders as it would after a json round trip
        payload = col.to_json()
        if not args.no_cache:
            cachemod.store(root, key, json.dumps(payload, sort_keys=True).encode())
    print(_render_column(payload, args.format, args.at_q1))
    return 0


def cmd_char(args) -> int:
    b = _read("--seq", SignedSeq.parse, args.seq)
    lam = _read("--lambda", parse_weight, getattr(args, "lambda"))
    if len(lam) != len(b):
        raise UsageError(f"--lambda needs {len(b)} entries for sequence {b}")
    _check_window(weight_to_f(b, lam), args.window)
    fn = irreducible_character if args.kind == "irr" else tilting_character
    exp = fn(b, lam, k=args.window)
    payload = exp.to_json()
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print("mu,mult")
        for item in payload["terms"]:
            print(f"{item['mu'].replace(',', ' ')},{item['mult']}")
    else:  # tex
        sym = "L" if args.kind == "irr" else "T"
        terms = " + ".join(
            f"{item['mult']}\\,[M_{{{item['mu']}}}]" for item in payload["terms"]
        )
        print(f"[{sym}_{{{payload['lambda']}}}] = {terms}")
    return 0


def cmd_verify(args) -> int:
    # imported here, so that bkl and char load neither verify nor oracle
    from .verify import SUITES, run_suite

    if args.suite not in (*SUITES, "all"):
        raise UsageError(f"unknown suite {args.suite!r}; try {', '.join(SUITES)} or all")
    for flag, v in (("--max-rank", args.max_rank), ("--max-window", args.max_window)):
        if v <= 0:
            raise UsageError(f"{flag} {v} is not positive")
    suite = run_suite(args.suite, max_rank=args.max_rank, max_window=args.max_window)
    if not suite.results:
        where = f"--max-rank {args.max_rank} --max-window {args.max_window}"
        print(f"no check ran for suite {args.suite} at {where}", file=sys.stderr)
        return 1
    for r in suite.results:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        print(f"{status}  {r.name}{detail}")
    if not suite.ok:
        print(f"{sum(not r.ok for r in suite.results)} failing checks", file=sys.stderr)
        return 1
    return 0


FORMATS = ("json", "csv", "tex")

# The one declaration of the command line: per subcommand its help line,
# its handler and its flags, each (name, type, choices, default, required,
# help); a bool flag is store-true.  Both parsers read it.
COMMANDS = {
    "bkl": ("print one canonical/dual-canonical column", cmd_bkl, (
        ("--seq", str, None, None, True, "0^m1^n sequence, e.g. 01"),
        ("--f", str, None, None, True, "index, e.g. 3,3 (tail after '/')"),
        ("--kind", str, ("canonical", "dual"), "canonical", False, None),
        ("--window", int, None, None, False, "window level k"),
        ("--wedge", str, None, None, False, "V:k, W:k or partition:V:2,1"),
        ("--format", str, FORMATS, "json", False, None),
        ("--cache-dir", str, None, None, False, None),
        ("--no-cache", bool, None, False, False, None),
        ("--at-q1", bool, None, False, False, "also evaluate at q=1"),
    )),
    "char": ("character of an irreducible or tilting module", cmd_char, (
        ("--seq", str, None, None, True, None),
        ("--lambda", str, None, None, True, "highest weight, e.g. 0,0"),
        ("--kind", str, ("irr", "tilt"), "irr", False, None),
        ("--window", int, None, None, False, None),
        ("--format", str, FORMATS, "json", False, None),
    )),
    "verify": ("run exact-identity suites", cmd_verify, (
        ("--suite", str, None, "all", False,
         "rank2, involution, positivity, adjacency, superduality, "
         "truncation, shift, kl-oracle, or all (plus: bar-properties, "
         "triangularity, tensor-wedge, odd-reflection, parabolic)"),
        ("--max-rank", int, None, 2, False, None),
        ("--max-window", int, None, 3, False, None),
    )),
}


def build_parser():
    # imported here: a well-formed call never builds a parser (_fast_args)
    import argparse

    ap = argparse.ArgumentParser(
        prog="bklkit",
        description="Canonical bases and BKL polynomials in mixed Fock spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (summary, fn, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, type_, choices, default, required, text in flags:
            if type_ is bool:
                p.add_argument(name, action="store_true", help=text)
            else:
                p.add_argument(name, type=type_, choices=choices, default=default,
                               required=required, help=text)
        p.set_defaults(fn=fn)
    return ap


def _fast_args(argv: list):
    """The namespace argparse would return for argv, if argv is plain; else None.

    Plain means: a subcommand, then exactly spelled long flags of it, each
    at most once, as --name=value, as --name value with a value that does
    not start with '-', or as a bare store-true flag; every value in its
    flag's choices, every int value read by int(), every required flag
    present.  Help, abbreviations, '--' and every usage error are left to
    argparse, so its messages stay its own.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, flags = COMMANDS[argv[0]]
    spec = {flag[0]: flag for flag in flags}
    got = {}
    rest = iter(argv[1:])
    for token in rest:
        name, eq, value = token.partition("=")
        if name not in spec or name in got:
            return None
        _, type_, choices, _, _, _ = spec[name]
        if type_ is bool:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None or value.startswith("-"):
                    return None
            if type_ is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            if choices is not None and value not in choices:
                return None
        got[name] = value
    if any(required and name not in got for name, _, _, _, required, _ in flags):
        return None
    values = {name[2:].replace("-", "_"): got.get(name, default)
              for name, _, _, default, _, _ in flags}
    return SimpleNamespace(command=argv[0], fn=fn, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ValueError, KeyError, OSError) as exc:
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
