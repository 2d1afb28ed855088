"""Command-line front end.

Three subcommands: `bkl` prints a canonical/dual-canonical column, `char`
prints an irreducible or tilting character in Verma characters, `verify`
runs the exact-identity suites.  Columns are cached content-addressed
under a two-level hash directory; a cache hit is returned byte-identically
and never recomputed unless --no-cache.

Exit codes: 0 success, 2 usage error (raised while the input is parsed), 1
any later failure, with its diagnostic (a verify run with no check is one).
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import cache as cachemod
from .canonical import CANONICAL, DUAL, bkl, wedge_bkl
from .characters import irreducible_character, tilting_character
from .combinat import SignedSeq, WedgeIndex, check_partition, parse_weight, weight_to_f
from .scalars import Laurent


class UsageError(Exception):
    pass


@contextmanager
def _parsing():
    """Input rejected by a parser or a constructor is a usage error."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        raise UsageError(str(exc)) from exc


def _parse_wedge(text: str):
    """'V:2' or 'W:3' finite wedge; 'partition:V:2,1' a partition tail."""
    parts = text.split(":")
    if parts[0] in ("V", "W") and len(parts) == 2:
        try:
            return ("finite", parts[0], int(parts[1]))
        except ValueError as exc:
            raise UsageError(f"bad wedge size in {text!r}") from exc
    if parts[0] == "partition" and len(parts) in (2, 3):
        side = parts[1] if len(parts) == 3 else "V"
        lam = tuple(int(v) for v in parts[-1].split(",")) if parts[-1] else ()
        check_partition(lam)  # a ValueError here is a usage error, see _parsing
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
    # tex: argparse's choices reject any other format
    kindsym = "t" if payload["kind"] == CANONICAL else "\\ell"
    fidx = payload["f"] + (";" + payload["u"] if "u" in payload else "")
    for item in payload["column"]:
        poly = Laurent.from_json(item["poly"])
        gidx = item["g"] + (";" + item["u"] if "u" in item else "")
        val = str(poly.ev()) if at_q1 else _poly_tex(poly)
        lines.append(f"{kindsym}_{{({gidx}),({fidx})}} &= {val} \\\\")
    return "\n".join(lines)


def cmd_bkl(args) -> int:
    with _parsing():
        b = SignedSeq.parse(args.seq)
        kind = {"canonical": CANONICAL, "dual": DUAL}[args.kind]
        wedge = _parse_wedge(args.wedge) if args.wedge else None
        if wedge and wedge[0] == "partition":
            _, side, lam = wedge
            head = parse_weight(args.f)
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
            head, tail = parse_weight(head_s), parse_weight(tail_s)
            if len(head) != len(b) or len(tail) != kw:
                raise UsageError(
                    f"--f must be '<{len(b)} tensor entries>/<{kw} tail entries>'"
                )
            if any((x <= y) if side == "V" else (x >= y) for x, y in zip(tail, tail[1:])):
                order = "decreasing" if side == "V" else "increasing"
                raise UsageError(
                    f"{side} tail {','.join(map(str, tail))} is not strictly {order}"
                )
            flat = head + tail
            wspec = {"side": side, "kw": kw}
        else:
            flat = parse_weight(args.f)
            if len(flat) != len(b):
                raise UsageError(f"--f needs {len(b)} entries for sequence {b}")
            wspec = None
        _check_window(flat, args.window)

    key = cachemod.cache_key(
        "bkl-column",
        b=str(b),
        f=list(flat),
        kind=kind,
        window=args.window,
        wedge=wspec,
    )
    root = cachemod.cache_dir(args.cache_dir)
    payload = None
    if not args.no_cache:
        payload_bytes = cachemod.load(root, key)
        if payload_bytes is not None:
            # an undecodable entry or one without a column is a miss
            try:
                payload = json.loads(payload_bytes)
            except ValueError:
                pass
            if not isinstance(payload, dict) or "column" not in payload:
                payload = None
    if payload is None:
        if wspec is None:
            col = bkl(b, flat, kind, k=args.window)
        else:
            col = wedge_bkl(b, wspec["side"], wspec["kw"], flat, kind, k=args.window)
        payload = col.to_json()
        payload_bytes = json.dumps(payload, sort_keys=True).encode()
        if not args.no_cache:
            cachemod.store(root, key, payload_bytes)
        payload = json.loads(payload_bytes)
    print(_render_column(payload, args.format, args.at_q1))
    return 0


def cmd_char(args) -> int:
    with _parsing():
        b = SignedSeq.parse(args.seq)
        lam = parse_weight(getattr(args, "lambda"))
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bklkit",
        description="Canonical bases and BKL polynomials in mixed Fock spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bkl", help="print one canonical/dual-canonical column")
    p.add_argument("--seq", required=True, help="0^m1^n sequence, e.g. 01")
    p.add_argument("--f", required=True, help="index, e.g. 3,3 (tail after '/')")
    p.add_argument("--kind", choices=["canonical", "dual"], default="canonical")
    p.add_argument("--window", type=int, default=None, help="window level k")
    p.add_argument("--wedge", default=None, help="V:k, W:k or partition:V:2,1")
    p.add_argument("--format", choices=["json", "csv", "tex"], default="json")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--at-q1", action="store_true", help="also evaluate at q=1")
    p.set_defaults(fn=cmd_bkl)

    p = sub.add_parser("char", help="character of an irreducible or tilting module")
    p.add_argument("--seq", required=True)
    p.add_argument("--lambda", required=True, help="highest weight, e.g. 0,0")
    p.add_argument("--kind", choices=["irr", "tilt"], default="irr")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv", "tex"], default="json")
    p.set_defaults(fn=cmd_char)

    p = sub.add_parser("verify", help="run exact-identity suites")
    p.add_argument(
        "--suite",
        default="all",
        help="rank2, involution, positivity, adjacency, superduality, "
        "truncation, shift, kl-oracle, or all (plus: bar-properties, "
        "triangularity, tensor-wedge, odd-reflection, parabolic)",
    )
    p.add_argument("--max-rank", type=int, default=2)
    p.add_argument("--max-window", type=int, default=3)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
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
