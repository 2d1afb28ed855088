"""Verification suites.

Each suite exercises one family of exact identities at desk scale and
returns per-check results; the CLI and the acceptance tests drive these.
All comparisons are coefficient-exact; any failure carries a
counterexample in its detail string.
"""
from __future__ import annotations

import random
from itertools import product

from .barinv import BarContext, bar_table, bar_row_rl, equivariance_defect
from .canonical import (
    CANONICAL,
    DUAL,
    BklEngine,
    adjacency_transport,
    auto_level,
    engine,
    parabolic_columns,
    shift_column_invariant,
    superduality_compare,
    superduality_order_preserved,
    tensor_to_wedge_canonical,
    truncation_consistent_tensor,
    truncation_consistent_wedge,
    wedge_vs_tensor_dual,
)
from .characters import irreducible_character, odd_reflection_check, tilting_character
from .combinat import (
    SharpPack,
    SignedSeq,
    WedgeIndex,
    antidominant,
    f_to_weight,
    typical,
)
from .fock import Window, _act_raw
from .oracle import brute_bar_uniqueness, rank2_forms, schur_jimbo_match
from .scalars import DegreeClass, ONE, addmul


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
            yield from SignedSeq.all_sequences(m, rank - m)


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
                if eng.column(f, CANONICAL).entries != T.terms:
                    raise AssertionError(f"T column at {f} differs from closed form")
                if eng.column(f, DUAL).entries != L.terms:
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
            n = 0
            for kind in (CANONICAL, DUAL):
                want = DegreeClass.IN_qZq if kind == CANONICAL else DegreeClass.IN_qinvZqinv
                for f, col in eng.table(kind).items():
                    if col.get(f) != ONE:
                        raise AssertionError(f"diagonal at {f} is {col.get(f)}")
                    pf = packed[f]
                    for g, c in col.items():
                        if g == f:
                            continue
                        if not order.leq(packed[g], pf):
                            raise AssertionError(f"entry at ({g}, {f}) is not below f: {c!r}")
                        if c.degree_class() is not want:
                            raise AssertionError(f"degree class violated at ({g}, {f}): {c!r}")
                    n += 1
            return f"{n} columns"

        s.run(f"triangularity b={b} k={max_window}", check)
    return s


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
        for kappa in b.adjacent_positions():
            def check(b=b, kappa=kappa, k=k):
                n = 0
                for f in product(range(-1, 2), repeat=len(b)):
                    adjacency_transport(b, kappa, f, DUAL, k=k)
                    adjacency_transport(b, kappa, f, CANONICAL, k=k)
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
            b = SignedSeq.standard(m, nn)
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
        from .combinat import lambda_L, lambda_U

        for f in ((2, 2), (0, 1)):
            lam = f_to_weight(b, f)
            bp = b.swap(1)
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
        for kappa in b.adjacent_positions():
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
