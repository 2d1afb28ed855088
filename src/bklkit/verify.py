"""Verification suites.

Each suite exercises one family of exact identities at desk scale and
returns per-check results; the CLI and the acceptance tests drive these.
All comparisons are coefficient-exact; any failure carries a
counterexample in its detail string.

The witnesses the suites call, which bkl and char never run, follow the
suites; the bar-map equivariance check sits before its suite, and so do
_sequences, the column comparison _agree with its box test _in_box, and
the degree test _in_degrees.  The slot swap of a mixed pair
(swap, swap_slots) heads the adjacent-pair section.
"""
from __future__ import annotations

import random
from itertools import combinations, product

from .barinv import BarContext, bar_table, wedge_gather
from .canonical import (
    CANONICAL,
    DUAL,
    BklEngine,
    TriangularityError,
    auto_level,
    engine,
    wedge_bkl,
)
from .characters import IRREDUCIBLE, TILTING, _expansion, irreducible_character, tilting_character
from .combinat import (
    SharpPack,
    SignedSeq,
    WedgeIndex,
    Weight,
    Window,
    bruhat_leq,
    check_partition,
    f_to_weight,
    weight_to_f,
)
from .fock import _act_raw
from .oracle import bar_row_rl, brute_bar_uniqueness, rank2_forms, schur_jimbo_match
from .scalars import Laurent, ONE, ZERO, addmul


class CheckResult:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        self.name = name
        self.ok = ok
        self.detail = detail


class Suite:
    __slots__ = ("results",)

    def __init__(self):
        self.results = []

    def run(self, name: str, fn):
        try:
            detail = fn()
            self.results.append(CheckResult(name, True, detail if isinstance(detail, str) else ""))
        except Exception as exc:  # deliberate: any failure is a counterexample
            self.results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _sequences(max_rank: int, min_rank: int = 0):
    """Every 0^m1^n-sequence with min_rank <= m+n <= max_rank, by rank, then m."""
    for rank in range(min_rank, max_rank + 1):
        for m in range(rank + 1):
            for ones in combinations(range(rank), rank - m):
                yield SignedSeq(tuple(int(i in ones) for i in range(rank)))


def _in_box(g: tuple, k: int) -> bool:
    return all(abs(v) <= k for v in g)


def _agree(a: dict, b: dict, keep, what: str) -> None:
    """Raise at the first key kept by keep (None: all) where a and b differ."""
    for g in [*a, *(g for g in b if g not in a)]:
        if keep is None or keep(g):
            x, y = a.get(g, ZERO), b.get(g, ZERO)
            if x != y:
                raise AssertionError(f"{what}: mismatch at g={g}: {x!r} != {y!r}")


def _partitions_up_to(n: int):
    out = [()]

    def rec(rest, maxpart, acc):
        for p in range(min(rest, maxpart), 0, -1):
            out.append(tuple(acc + [p]))
            rec(rest - p, p, acc + [p])

    rec(n, n, [])
    return out


def suite_rank2(max_window: int = 6) -> Suite:
    """Every canonical/dual column in the mixed rank-2 windows matches the
    closed forms (ties expand by one q-step for T, geometrically for L)."""
    s = Suite()
    for case, bits in (("VW", (0, 1)), ("WV", (1, 0))):
        def check(case=case, bits=bits):
            eng = engine(Window(SignedSeq(bits), max_window))
            n = 0
            for f in eng.window.basis():
                T, L = rank2_forms(case, f, max_window)
                if eng.column(f, CANONICAL).entries != T:
                    raise AssertionError(f"T column at {f} differs from closed form")
                if eng.column(f, DUAL).entries != L:
                    raise AssertionError(f"L column at {f} differs from closed form")
                n += 1
            return f"{n} columns, window {max_window}"

        s.run(f"rank2 closed forms {case}", check)
    return s


def suite_involution(max_rank: int = 4, max_window: int = 4) -> Suite:
    """bar is an involution: sum_h r_{gh} bar(r_{hf}) = delta_{gf} for every
    in-window pair, every sequence up to the rank bound."""
    s = Suite()
    for b in _sequences(max_rank, 1):
        k = max_window if len(b) < 4 else min(max_window, 4)

        def check(b=b, k=k):
            t = bar_table(Window(b, k))
            t.check_unitriangular()
            return f"{len(t.rows)} rows, window {k}"

        s.run(f"involution b={b} k={k}", check)
    return s


def equivariance_defect(ctx: BarContext, f: tuple, a: int):
    """Compare bar(X M_f) with X bar(M_f) for X = E_a, then F_a.

    Returns the first differing (lhs, rhs), or None when both agree.
    Exact whenever |a| + 1 < k, since then E_a and F_a commute with the
    window projection.
    """
    win = ctx.window
    for kind in ("E", "F"):
        moved = _act_raw(win, {tuple(f): ONE}, kind, a)
        lhs: dict = {}
        for h, c in moved.items():
            cb = c.bar()
            for g, r in ctx.row(h).items():
                addmul(lhs, g, r, cb)
        rhs = _act_raw(win, ctx.row(tuple(f)), kind, a)
        if lhs != rhs:
            return (lhs, rhs)
    return None


def suite_bar_properties(max_window: int = 3) -> Suite:
    """Equivariance, tensor-order independence, and rank-2 uniqueness."""
    s = Suite()
    rng = random.Random(7)
    for bs in ("01", "10", "010", "0011"):
        b = SignedSeq.parse(bs)
        k = max_window + 1

        def check_eq(b=b, k=k):
            ctx = BarContext(Window(b, k))
            for _ in range(8):
                f = tuple(rng.randint(-(k - 1), k - 1) for _ in range(len(b)))
                for a in range(-(k - 1), k - 1):
                    if equivariance_defect(ctx, f, a) is not None:
                        raise AssertionError(f"equivariance fails at f={f}, a={a}")
            return "8 random vectors"

        s.run(f"equivariance b={b}", check_eq)

        def check_rl(b=b):
            win = Window(b, 2)
            ctx = BarContext(win)
            for f in win.basis():
                if bar_row_rl(win, f) != ctx.row(f):
                    raise AssertionError(f"tensor-order dependence at {f}")
            return "full window, k=2"

        s.run(f"order independence b={b}", check_rl)
    for bits in ((0, 1), (1, 0), (0, 0), (1, 1), (0, 1, 0), (1, 0, 1)):
        s.run(
            f"bar uniqueness {bits}",
            lambda bits=bits: str(brute_bar_uniqueness(Window(SignedSeq(bits), 2))),
        )
    return s


def suite_triangularity(max_rank: int = 3, max_window: int = 3) -> Suite:
    """Diagonals 1, strict Bruhat descent, t in qZ[q] and l in q^-1 Z[q^-1]."""
    s = Suite()
    for b in _sequences(max_rank, 1):
        def check(b=b):
            eng = engine(Window(b, max_window))
            order = SharpPack(b, -max_window, max_window)
            packed = {g: order.pack(g) for g in eng.window.basis()}
            guard, mask = order.guard, order.mask
            n = 0
            for kind in (CANONICAL, DUAL):
                for f, col in eng.table(kind).items():
                    if col.get(f) != ONE:
                        raise AssertionError(f"diagonal at {f} is {col.get(f)}")
                    top = guard + packed[f]
                    for g, c in col.items():
                        if g == f:
                            continue
                        if (top - packed[g]) & mask != guard:  # g is not Bruhat-below f
                            raise AssertionError(f"entry at ({g}, {f}) is not below f: {c!r}")
                        if not _in_degrees(c, kind):
                            raise AssertionError(f"degree class violated at ({g}, {f}): {c!r}")
                    n += 1
            return f"{n} columns"

        s.run(f"triangularity b={b} k={max_window}", check)
    return s


def _in_degrees(c: Laurent, kind: str) -> bool:
    """c is nonzero and in qZ[q] for CANONICAL, in q^-1Z[q^-1] for DUAL."""
    sign = 1 if kind == CANONICAL else -1
    return bool(c.c) and all(sign * e >= 1 for e in c.c)


def _expand_in_canonical(eng: BklEngine, vec: dict):
    """Triangular expansion of a window vector in the T-basis.

    Repeatedly peels the support element of least order key, which nothing
    else in the support lies above; exact whenever the vector is the window
    projection of a global T-linear combination (e.g. E_a T_f with
    |a| + 1 < k), in which case the residue empties out.
    """
    work = dict(vec)
    coeffs = {}
    while work:
        top = min(work, key=lambda g: (eng.key(g), g))
        c = work.pop(top)
        coeffs[top] = c
        for g, t in eng.column(top, CANONICAL).entries.items():
            if g != top:
                addmul(work, g, t, -c)
    return coeffs


def suite_positivity(max_rank: int = 4, max_window: int = 4) -> Suite:
    """t in N[q], l(-q^-1) in N[q]; E_a T_f expands T-positively."""
    s = Suite()
    for b in _sequences(max_rank, 1):
        k = 3 if len(b) <= 3 else 2
        k = min(k, max_window)

        def check(b=b, k=k):
            eng = engine(Window(b, k))
            checked = 0
            for f, col in eng.table(CANONICAL).items():
                for g, c in col.items():
                    if any(v < 0 for v in c.c.values()):
                        raise AssertionError(f"t_{{{g},{f}}} = {c!r} not in N[q]")
                    checked += 1
            for f, col in eng.table(DUAL).items():
                for g, c in col.items():
                    # l(-q^-1) in N[q]: coefficient of q^{-e} must have sign (-1)^e
                    for e, v in c.c.items():
                        if v * ((-1) ** (e % 2)) < 0:
                            raise AssertionError(
                                f"l_{{{g},{f}}} = {c!r} fails sign pattern"
                            )
                    checked += 1
            return f"{checked} entries"

        s.run(f"positivity b={b} k={k}", check)

    rng = random.Random(3)
    for bs in ("01", "010", "001", "110"):
        b = SignedSeq.parse(bs)

        def check_chev(b=b):
            k = 3
            eng = engine(Window(b, k))
            done = 0
            for _ in range(6):
                f = tuple(rng.randint(-1, 1) for _ in range(len(b)))
                a = rng.randint(-1, 0)  # |a| + 1 < k keeps the expansion exact
                tcol = eng.column(f, CANONICAL).entries
                vec = {}
                for g, c in tcol.items():
                    for h, w in _act_raw(eng.window, {g: c}, "E", a).items():
                        addmul(vec, h, w)
                for g, c in _expand_in_canonical(eng, vec).items():
                    if any(v < 0 for v in c.c.values()):
                        raise AssertionError(
                            f"E_{a} T_{f} has negative T-coefficient at {g}: {c!r}"
                        )
                done += 1
            return f"{done} expansions"

        s.run(f"chevalley positivity b={b}", check_chev)
    return s


def suite_shift(max_rank: int = 3) -> Suite:
    """Columns are invariant under the overall index shift."""
    s = Suite()
    rng = random.Random(11)

    def check():
        draws = []
        for _ in range(100):
            rank = rng.randint(1, max_rank)
            bits = tuple(rng.randint(0, 1) for _ in range(rank))
            f = tuple(rng.randint(-2, 2) for _ in range(rank))
            p = rng.choice([-2, -1, 1, 2, 3])
            draws.append((bits, f, p, rng.choice([CANONICAL, DUAL])))
        # grouped by window (bits, spread of f and f + p), so that each
        # window's engine is built once under the two-window engine cache
        draws.sort(key=lambda d: (d[0], max(abs(v + s) for v in d[1] for s in (0, d[2]))))
        for bits, f, p, kind in draws:
            shift_column_invariant(SignedSeq(bits), f, p, kind)
        return f"{len(draws)} random instances"

    s.run("shift invariance", check)
    return s


def suite_adjacency(max_rank: int = 4) -> Suite:
    """Parabolic l-check / t-check tables agree across every odd swap."""
    s = Suite()
    for b in _sequences(max_rank, 2):
        k = 3 if len(b) <= 3 else 2
        for kappa in adjacent_positions(b):
            def check(b=b, kappa=kappa, k=k):
                n = 0
                there: dict = {}  # receiving-side columns, shared across f
                for f in product(range(-1, 2), repeat=len(b)):
                    adjacency_transport(b, kappa, f, k=k, there=there)
                    n += 1
                return f"{n} columns, window {k}"

            s.run(f"adjacency b={b} kappa={kappa}", check)
    return s


def suite_superduality(max_rank: int = 3) -> Suite:
    """Tail conjugation preserves BKL polynomials and the Bruhat order.

    Both sides share one window per sequence: the truncation level is the
    max partition size, so a single column serves every compared tail.
    """
    s = Suite()
    kw = 3
    parts = _partitions_up_to(kw)
    for b in _sequences(max_rank):

        def check(b=b):
            heads = [(0,) * len(b)]
            if len(b) >= 1:
                heads.append(tuple((1 if i % 2 == 0 else 0) for i in range(len(b))))
            idxs = [WedgeIndex(head, "V", lam) for head in heads for lam in parts]
            k = kw + 2
            nonzero = 0
            total = 0
            for fidx, gidx in product(idxs, repeat=2):
                for kind in (DUAL, CANONICAL):
                    lv, _ = superduality_compare(b, fidx, gidx, kind, kw, k)
                    total += 1
                    if lv:
                        nonzero += 1
            if nonzero == 0:
                raise AssertionError("suite compared no nonzero entries")
            return f"{total} compared entries, {nonzero} nonzero"

        s.run(f"superduality columns b={b}", check)

    def check_order():
        rng2 = random.Random(17)
        n = 0
        for _ in range(200):
            rank = rng2.randint(0, max_rank)
            bits = tuple(rng2.randint(0, 1) for _ in range(rank))
            b = SignedSeq(bits)
            head1 = tuple(rng2.randint(-2, 2) for _ in range(rank))
            head2 = tuple(rng2.randint(-2, 2) for _ in range(rank))
            lam = rng2.choice(parts)
            mu = rng2.choice(parts)
            superduality_order_preserved(
                b, WedgeIndex(head1, "V", lam), WedgeIndex(head2, "V", mu)
            )
            n += 1
        return f"{n} random pairs"

    s.run("superduality order preservation", check_order)
    return s


def suite_truncation(max_rank: int = 3, max_window: int = 3) -> Suite:
    """Window growth and wedge truncation both restrict columns exactly."""
    s = Suite()
    for b in _sequences(max_rank, 1):
        def check_tensor(b=b):
            n = 0
            for f in product(range(-1, 2), repeat=len(b)):
                for kind in (CANONICAL, DUAL):
                    truncation_consistent_tensor(b, f, kind, max_window)
                    n += 1
            return f"{n} columns"

        s.run(f"window stability b={b}", check_tensor)
    for bs in ("", "0", "1", "01"):
        b = SignedSeq.parse(bs)
        for side in ("V", "W"):
            for kw in (1, 2):
                def check_wedge(b=b, side=side, kw=kw):
                    n = 0
                    # vacuum value appended at slot kw+1
                    vac = -kw if side == "V" else kw + 1
                    heads = list(product(range(-1, 2), repeat=len(b)))
                    tails = []
                    base = range(vac - 1, vac + 4)
                    for t in product(base, repeat=kw):
                        if side == "V":
                            ok = all(t[i] > t[i + 1] for i in range(kw - 1))
                            ok = ok and t[-1] > vac  # must admit the vacuum extension
                        else:
                            ok = all(t[i] < t[i + 1] for i in range(kw - 1))
                            ok = ok and t[-1] < vac
                        if ok:
                            tails.append(t)
                    for head in heads[:5]:
                        for tail in tails[:4]:
                            for kind in (CANONICAL, DUAL):
                                truncation_consistent_wedge(
                                    b, side, kw, head + tail, kind, max_window + kw
                                )
                                n += 1
                    return f"{n} columns"

                s.run(f"wedge truncation b={b or '()'} {side}:{kw}", check_wedge)
    return s


def suite_tensor_wedge(max_rank: int = 2) -> Suite:
    """Wedge duals restrict tensor duals; wedge canonicals are tensor
    canonicals times H_0, gathered in wedge coordinates."""
    s = Suite()
    for b in _sequences(max_rank):
        for side in ("V", "W"):
            for kw in (1, 2):
                def check(b=b, side=side, kw=kw):
                    k = 3
                    win = Window(b, k, (side, kw))
                    n = 0
                    for f in win.basis():
                        if max(abs(v) for v in f) > 1:
                            continue
                        wedge_vs_tensor_dual(b, side, kw, f, k=k)
                        tensor_to_wedge_canonical(b, side, kw, f, k=k)
                        n += 1
                    return f"{n} columns"

                s.run(f"tensor-vs-wedge b={b or '()'} {side}:{kw}", check)
    return s


def suite_kl_oracle() -> Suite:
    """Classical endpoints: the Hecke KL oracle and typical weights."""
    s = Suite()
    for m in (2, 3):
        s.run(
            f"Schur-Jimbo dictionary m={m}",
            lambda m=m: ("ok" if schur_jimbo_match(m, tuple(range(1, m + 1)), m + 2) else "no"),
        )

    def check_typical():
        n = 0
        for (m, nn) in ((1, 1), (2, 1), (1, 2), (2, 2)):
            b = SignedSeq((0,) * m + (1,) * nn)
            for f in product(range(-1, 3), repeat=m + nn):
                lam = f_to_weight(b, f)
                if not (typical(b, lam) and antidominant(b, lam)):
                    continue
                ch = irreducible_character(b, lam)
                if ch.terms != {lam: 1}:
                    raise AssertionError(f"typical antidominant {lam} not a single Verma")
                ti = tilting_character(b, lam)
                if ti.terms != {lam: 1}:
                    raise AssertionError(f"typical antidominant tilting {lam} not single")
                n += 1
        return f"{n} typical antidominant weights"

    s.run("typical antidominant single Verma", check_typical)
    return s


def suite_odd_reflection() -> Suite:
    """Character coherence across odd reflections for (1,1) and (2,1)."""
    s = Suite()
    cases = []
    for bs in ("01", "10"):
        cases.append((bs, 1))
    for bs in ("010", "001", "100", "011", "101", "110"):
        b = SignedSeq.parse(bs)
        for kappa in range(1, len(b)):
            if b.bits[kappa - 1] != b.bits[kappa]:
                cases.append((bs, kappa))
    for i, (bs, kappa) in enumerate(cases):
        b = SignedSeq.parse(bs)

        def check(b=b, kappa=kappa, down=i % 2 == 1):
            # the 0/1 box, then one atypical deep case; sorted by window
            # level, every other case from the top, so that a case starts on
            # the level where the last one (often the same pair) stopped
            fs = list(product(range(0, 2), repeat=len(b))) + [(1,) * len(b)]
            for f in sorted(fs, key=lambda f: auto_level(b, f), reverse=down):
                odd_reflection_check(b, kappa, f_to_weight(b, f))
            return f"{len(fs)} weights"

        s.run(f"odd reflection b={b} kappa={kappa}", check)

    def check_path():
        # two-step path 01 -> 10 -> 01 returns the original expansion
        b = SignedSeq.parse("01")
        for f in ((2, 2), (0, 1)):
            lam = f_to_weight(b, f)
            bp = swap(b, 1)
            lam1 = lambda_L(b, 1, lam)
            lam2 = lambda_L(bp, 1, lam1)
            if lam2 != lam:
                raise AssertionError("L path does not close")
            lam1 = lambda_U(b, 1, lam)
            lam2 = lambda_U(bp, 1, lam1)
            if lam2 != lam:
                raise AssertionError("U path does not close")
        return "round trips"

    s.run("odd reflection path closure", check_path)
    return s


def suite_parabolic(max_rank: int = 3) -> Suite:
    """Degree classes and refined support of the N/U coordinate columns."""
    s = Suite()
    for b in _sequences(max_rank, 2):
        for kappa in adjacent_positions(b):
            def check(b=b, kappa=kappa):
                n = 0
                for f in product(range(-1, 2), repeat=len(b)):
                    parabolic_columns(b, kappa, f, k=3)
                    n += 1
                return f"{n} columns"

            s.run(f"parabolic b={b} kappa={kappa}", check)
    return s


SUITES = {
    "rank2": lambda max_rank, max_window: suite_rank2(max(max_window, 6)),
    "involution": lambda max_rank, max_window: suite_involution(max_rank, max_window),
    "bar-properties": lambda max_rank, max_window: suite_bar_properties(min(max_window, 3)),
    "triangularity": lambda max_rank, max_window: suite_triangularity(
        min(max_rank, 3), min(max_window, 3)
    ),
    "positivity": lambda max_rank, max_window: suite_positivity(max_rank, max_window),
    "adjacency": lambda max_rank, max_window: suite_adjacency(max_rank),
    "superduality": lambda max_rank, max_window: suite_superduality(min(max_rank, 3)),
    "truncation": lambda max_rank, max_window: suite_truncation(
        min(max_rank, 3), min(max_window, 3)
    ),
    "tensor-wedge": lambda max_rank, max_window: suite_tensor_wedge(min(max_rank, 2)),
    "shift": lambda max_rank, max_window: suite_shift(min(max_rank, 3)),
    "kl-oracle": lambda max_rank, max_window: suite_kl_oracle(),
    "odd-reflection": lambda max_rank, max_window: suite_odd_reflection(),
    "parabolic": lambda max_rank, max_window: suite_parabolic(min(max_rank, 3)),
}


def run_suite(name: str, max_rank: int = 2, max_window: int = 3) -> Suite:
    if name == "all":
        total = Suite()
        for key in SUITES:
            total.results.extend(SUITES[key](max_rank, max_window).results)
        return total
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](max_rank, max_window)


# ---------------------------------------------------------------------------
# Tensor versus q-wedge comparisons
# ---------------------------------------------------------------------------


def tensor_to_wedge_canonical(
    b: SignedSeq, side: str, kw: int, f: tuple, k: int
) -> dict:
    """The canonical wedge column of f, checked against the tensor level.

    The extended canonical column of f.w0 times H_0, gathered in wedge
    coordinates, must equal the wedge column entry by entry; a mismatch
    is a hard error.  Returns the wedge column.
    """
    mn = len(b)
    wwin = Window(b, k, (side, kw))
    f = tuple(f)
    f_w0 = f[:mn] + tuple(reversed(f[mn:]))
    ext = engine(wwin.extended()).column(f_w0, CANONICAL).entries
    direct = engine(wwin).column(f, CANONICAL).entries
    _agree(wedge_gather(ext, mn, side, kw), direct, None, f"tensor-vs-wedge canonical of f={f}")
    return direct


def wedge_vs_tensor_dual(b: SignedSeq, side: str, kw: int, f: tuple, k: int) -> dict:
    """The dual wedge column of f equals the tensor column at the same
    sorted indices; a mismatch is a hard error.  Returns the wedge column."""
    wwin = Window(b, k, (side, kw))
    f = tuple(f)
    direct = engine(wwin).column(f, DUAL).entries
    tensor = engine(wwin.extended()).column(f, DUAL).entries
    _agree(direct, tensor, wwin.valid_index, f"wedge-vs-tensor dual of f={f}")
    return direct


# ---------------------------------------------------------------------------
# An adjacent pair: index maps, N/U coordinates, transports, odd reflection
# ---------------------------------------------------------------------------


def adjacent_positions(b: SignedSeq) -> list:
    """1-based kappa with (b_kappa, b_kappa+1) = (0, 1)."""
    bits = b.bits
    return [i + 1 for i in range(len(bits) - 1) if bits[i] == 0 and bits[i + 1] == 1]


def _check_adjacent(b: SignedSeq, kappa: int):
    """ValueError unless 1 <= kappa < len(b) and slots kappa, kappa+1 differ."""
    if not (1 <= kappa < len(b)) or b.bits[kappa - 1] == b.bits[kappa]:
        raise ValueError(f"sequence {b} has no mixed pair at position {kappa}")


def swap_slots(f: Weight, kappa: int) -> Weight:
    """f with its slots kappa, kappa+1 exchanged."""
    g = list(f)
    g[kappa - 1], g[kappa] = g[kappa], g[kappa - 1]
    return tuple(g)


def swap(b: SignedSeq, kappa: int) -> SignedSeq:
    """The adjacent sequence obtained by swapping slots kappa, kappa+1."""
    _check_adjacent(b, kappa)
    return SignedSeq(swap_slots(b.bits, kappa))


def f_L(f: Weight, kappa: int) -> Weight:
    """Swap slots kappa, kappa+1, or bump both up when the values tie."""
    if f[kappa - 1] != f[kappa]:
        return swap_slots(f, kappa)
    g = list(f)
    g[kappa - 1] += 1
    g[kappa] += 1
    return tuple(g)


def f_U(f: Weight, kappa: int) -> Weight:
    """Swap slots kappa, kappa+1, or bump both down when the values tie."""
    if f[kappa - 1] != f[kappa]:
        return swap_slots(f, kappa)
    g = list(f)
    g[kappa - 1] -= 1
    g[kappa] -= 1
    return tuple(g)


def lambda_L(b: SignedSeq, kappa: int, lam: Weight) -> Weight:
    """Highest-weight map for irreducibles across the odd reflection.

    Input in b coordinates, output in coordinates of the swapped sequence.
    The odd simple root at kappa pairs to +-(lam_kappa + lam_{kappa+1}),
    so the two orientations share the same zero test.
    """
    _check_adjacent(b, kappa)
    pairing = lam[kappa - 1] + lam[kappa]
    mu = list(lam)
    if pairing != 0:
        mu[kappa - 1] -= 1
        mu[kappa] += 1
    return swap_slots(mu, kappa)


def lambda_U(b: SignedSeq, kappa: int, lam: Weight) -> Weight:
    """Highest-weight map for tiltings across the odd reflection."""
    _check_adjacent(b, kappa)
    pairing = lam[kappa - 1] + lam[kappa]
    mu = list(lam)
    if pairing == 0:
        mu[kappa - 1] -= 2
        mu[kappa] += 2
    else:
        mu[kappa - 1] -= 1
        mu[kappa] += 1
    return swap_slots(mu, kappa)


def _tied(h: tuple, kappa: int) -> bool:
    return h[kappa - 1] == h[kappa]


def column_to_parabolic(
    entries: dict, kappa: int, pair_kind: str, basis: str, k: int
) -> dict:
    """Rewrite an M-coordinate column into N or U coordinates.

    pair_kind "VW" marks a (0,1) pair at kappa, "WV" a (1,0) pair; basis
    "N" produces the dual-side coefficients, "U" the canonical-side ones.
    Entries whose tie chain escapes the window stay exact as long as the
    caller compares them inside a safe sub-box (the suites do).
    """
    up = 1 if pair_kind == "VW" else -1
    # on a tied index f_L bumps both slots up and f_U bumps them down
    lower, upper = (f_U, f_L) if up == 1 else (f_L, f_U)
    out: dict = {}
    if basis == "N":
        # M_h = N_h + q^-1 N_{h bumped down}; collect per N index
        for h, c in entries.items():
            addmul(out, h, c)
            if _tied(h, kappa):
                hb = lower(h, kappa)
                if _in_box(hb, k):
                    addmul(out, hb, c.shift(-1))
        return out
    # basis == "U": solve m_h = u_h + q u_{h bumped up} down the tie chains.
    # Chains extend below the support to the window edge: a plain monomial
    # expands into a truncated geometric U-series, while honest canonical
    # columns terminate on their own.
    todo = set(entries)
    for h in entries:
        if _tied(h, kappa):
            g = lower(h, kappa)
            while _in_box(g, k):
                todo.add(g)
                g = lower(g, kappa)
    order = sorted(todo, key=lambda h: -up * h[kappa - 1])
    for h in order:
        val = entries.get(h, ZERO)
        if _tied(h, kappa):
            hb = upper(h, kappa)
            prev = out.get(hb)
            if prev is not None:
                val = val - prev.shift(1)
        if val:
            out[h] = val
    return out


def _pair_kind(b: SignedSeq, kappa: int) -> str:
    _check_adjacent(b, kappa)
    return "VW" if b.bits[kappa - 1] == 0 else "WV"


def parabolic_columns(b: SignedSeq, kappa: int, f: tuple, k: int) -> tuple:
    """(l-check, t-check) columns of f in N and U coordinates.

    Verifies degree classes and the refined support conditions (both
    orders must strictly descend) before returning.
    """
    pair_kind = _pair_kind(b, kappa)
    bp = swap(b, kappa)
    eng = engine(Window(b, k))
    lcol = eng.column(tuple(f), DUAL)
    tcol = eng.column(tuple(f), CANONICAL)
    lcheck = column_to_parabolic(lcol.entries, kappa, pair_kind, "N", k)
    tcheck = column_to_parabolic(tcol.entries, kappa, pair_kind, "U", k)
    f = tuple(f)
    vw = pair_kind == "VW"
    for name, side, table, fwd in (
        ("l-check", DUAL, lcheck, f_L if vw else f_U),
        ("t-check", CANONICAL, tcheck, f_U if vw else f_L),
    ):
        for g, c in table.items():
            if g == f or not _in_box(g, k - 1):
                continue
            if not _in_degrees(c, side):
                raise TriangularityError(f"{name} degree at g={g}, f={f}: {c!r}")
            if not (bruhat_leq(b, g, f) and bruhat_leq(bp, fwd(g, kappa), fwd(f, kappa))):
                raise AssertionError(f"refined support violated ({side}) at g={g}, f={f}")
    return lcheck, tcheck


def adjacency_transport(b: SignedSeq, kappa: int, f: tuple, k: int, there: dict | None = None) -> tuple:
    """Transport both columns of f across the odd swap and verify them from scratch.

    Dual columns relabel N-coordinates by f -> f^L, canonical ones
    U-coordinates by f -> f^U; the receiving side is recomputed
    independently and compared on the safe sub-box.  Returns the
    transported (dual, canonical) columns.  there maps f' to the
    receiving side's parabolic_columns at f'; a caller that transports
    several f of one (b, kappa, k) passes one dict to all of them, so that
    an f' two of them reach is computed once.
    """
    if _pair_kind(b, kappa) != "VW":
        raise ValueError("transport starts from the (0,1) side of the pair")
    bp = swap(b, kappa)
    f = tuple(f)
    here = parabolic_columns(b, kappa, f, k)
    if there is None:
        there = {}  # f' -> its columns over bp; f^L = f^U when f is untied
    out = []
    # the dual (l-check) column comes first, the canonical (t-check) second;
    # back is the inverse bijection of move
    for i, (kind, move, back) in enumerate(((DUAL, f_L, f_U), (CANONICAL, f_U, f_L))):
        fp = move(f, kappa)
        if fp not in there:
            there[fp] = parabolic_columns(bp, kappa, fp, k)
        moved = {move(g, kappa): c for g, c in here[i].items()}
        _agree(
            moved,
            there[fp][i],
            lambda gp: _in_box(gp, k - 1) and _in_box(back(gp, kappa), k - 1),
            f"adjacency transport ({kind}) of f={f}->{fp}",
        )
        out.append(moved)
    return tuple(out)


def odd_reflection_check(b: SignedSeq, kappa: int, lam: tuple):
    """A character computed on both sides of an odd reflection must agree.

    Every Verma of the first Borel is rewritten as a Verma of the second
    (index level: a swap of the two distinguished slots).  The rewritten
    expansion and the direct expansion at the reflected highest weight are
    infinite alternating sums that agree as formal characters, so both are
    telescoped into parabolic-N coefficients, where comparison is finite
    and exact on the safe part of the window.  Mismatch raises.
    """
    bp = swap(b, kappa)
    lam = tuple(lam)
    f = weight_to_f(b, lam)
    k = auto_level(b, f) + 1
    pair = _pair_kind(bp, kappa)  # ties bump along bp's pair
    for kind, move in ((IRREDUCIBLE, lambda_L), (TILTING, lambda_U)):
        here = _expansion(b, lam, kind, k)
        lam_p = move(b, kappa, lam)
        there = _expansion(bp, lam_p, kind, k)
        rewritten = {}
        for mu, mult in here.terms.items():
            rewritten[swap_slots(weight_to_f(b, mu), kappa)] = Laurent(mult)
        direct = {weight_to_f(bp, mu): Laurent(mult) for mu, mult in there.terms.items()}
        na = column_to_parabolic(rewritten, kappa, pair, "N", k)
        nb = column_to_parabolic(direct, kappa, pair, "N", k)
        safe = k - 1
        for h in set(na) | set(nb):
            if max(abs(v) for v in h) > safe:
                continue
            x, y = na.get(h, ZERO).ev(), nb.get(h, ZERO).ev()
            if x != y:
                raise AssertionError(
                    f"odd reflection mismatch for {kind} at lam={lam}, b={b}, "
                    f"kappa={kappa}, index {h}: {x} vs {y}"
                )
    return True


# ---------------------------------------------------------------------------
# Combinatorial super duality
# ---------------------------------------------------------------------------


def conjugate(parts: tuple) -> tuple:
    check_partition(parts)
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p > i) for i in range(parts[0])
    )


def natural_bij(x: WedgeIndex) -> WedgeIndex:
    """The tail-conjugating bijection between V-side and W-side indices."""
    return WedgeIndex(x.head, "W" if x.side == "V" else "V", conjugate(x.parts))


def superduality_compare(
    b: SignedSeq,
    fidx: WedgeIndex,
    gidx: WedgeIndex,
    kind: str,
    kw: int,
    k: int,
) -> tuple:
    """Both-sides BKL entries under the tail-conjugating bijection.

    Returns (value_V_side, value_W_side); raises if they differ.  Both
    sides are truncated at tail length kw, which every involved partition
    and its conjugate must fit, and computed in windows of level k.
    """
    if fidx.side != "V" or gidx.side != "V":
        raise ValueError("compare from the V side; the W side is derived")
    fn, gn = natural_bij(fidx), natural_bij(gidx)
    colv = wedge_bkl(b, "V", kw, fidx.flat(kw), kind, k=k)
    colw = wedge_bkl(b, "W", kw, fn.flat(kw), kind, k=k)
    lhs = colv.entries.get(gidx.flat(kw), ZERO)
    rhs = colw.entries.get(gn.flat(kw), ZERO)
    if lhs != rhs:
        raise AssertionError(
            f"super duality mismatch ({kind}) at g={gidx}, f={fidx}: {lhs!r} != {rhs!r}"
        )
    return lhs, rhs


def superduality_order_preserved(b: SignedSeq, x: WedgeIndex, y: WedgeIndex) -> bool:
    """Bruhat comparability agrees on the two sides of the bijection."""
    if x.side != "V" or y.side != "V":
        raise ValueError("compare V-side indices")
    n = max(len(x.parts), len(y.parts), 1)
    xn, yn = natural_bij(x), natural_bij(y)
    nn = max(len(xn.parts), len(yn.parts), n)
    bv = SignedSeq(b.bits + (0,) * nn)
    bw = SignedSeq(b.bits + (1,) * nn)
    lhs = bruhat_leq(bv, x.flat(nn), y.flat(nn))
    rhs = bruhat_leq(bw, xn.flat(nn), yn.flat(nn))
    if lhs != rhs:
        raise AssertionError(f"order preservation fails for {x} vs {y}")
    return lhs


# ---------------------------------------------------------------------------
# Truncation comparisons
# ---------------------------------------------------------------------------


def truncation_consistent_tensor(
    b: SignedSeq, f: tuple, kind: str, k: int
) -> bool:
    """Level-(k+1) column restricted to the k-box equals the k-column.

    The two columns come from the cached engines of both windows, each
    over bar rows of its own.
    """
    small = engine(Window(b, k)).column(tuple(f), kind).entries
    big = engine(Window(b, k + 1)).column(tuple(f), kind).entries
    _agree(small, big, lambda g: _in_box(g, k), f"tensor truncation of f={f}")
    return True


def truncation_consistent_wedge(
    b: SignedSeq, side: str, kw: int, f: tuple, kind: str, k: int
) -> bool:
    """Tr of the (kw+1)-level column equals the kw-level column.

    f is a flat index at tail length kw; it is extended by one vacuum
    entry for the bigger space.
    """
    vac = (-kw) if side == "V" else (kw + 1)
    fbig = tuple(f) + (vac,)
    kk = max(k, abs(vac) + 1)
    small = engine(Window(b, kk, (side, kw))).column(tuple(f), kind).entries
    big = engine(Window(b, kk, (side, kw + 1))).column(fbig, kind).entries
    # Tr keeps the entries whose last tail slot is the vacuum, and drops it
    trunc = {g[:-1]: c for g, c in big.items() if g[-1] == vac}
    _agree(small, trunc, None, f"wedge truncation of f={f}")
    return True


def shift_column_invariant(b: SignedSeq, f: tuple, p: int, kind: str) -> bool:
    """Columns of f and f + p*(1,...,1) agree under the shift relabeling."""
    f = tuple(f)
    fs = tuple(v + p for v in f)
    k = auto_level(b, f + fs)
    col = engine(Window(b, k)).column(f, kind).entries
    cols = engine(Window(b, k)).column(fs, kind).entries
    safe = k - abs(p)
    shifted = {tuple(v + p for v in g): c for g, c in col.items()}
    _agree(
        shifted,
        cols,
        lambda gs: _in_box(gs, safe) and _in_box([v - p for v in gs], safe),
        f"shift by p={p} of f={f}",
    )
    return True


# ---------------------------------------------------------------------------
# Typicality predicates (standard sequence only)
# ---------------------------------------------------------------------------


def _require_standard(b: SignedSeq):
    if b.bits != tuple(sorted(b.bits)):
        raise ValueError("predicate is defined for the standard sequence only")


def typical(b: SignedSeq, lam: Weight) -> bool:
    _require_standard(b)
    f = weight_to_f(b, lam)
    m = b.bits.count(0)
    return all(f[i] != f[j] for i in range(m) for j in range(m, len(b)))


def antidominant(b: SignedSeq, lam: Weight) -> bool:
    _require_standard(b)
    f = weight_to_f(b, lam)
    m = b.bits.count(0)
    return all(f[i] <= f[i + 1] for i in range(m - 1)) and all(
        f[j] >= f[j + 1] for j in range(m, len(b) - 1)
    )
