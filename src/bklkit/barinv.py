"""The windowed bar involution on truncated mixed Fock spaces.

The involution is built factor by factor, left to right.  Appending one
natural or dual-natural factor to an already barred block costs a single
layer of quasi-R-matrix corrections, and against such a factor the
correction collapses: bar(x (x) y_c) picks up, besides bar(x) (x) y_c, one
term per admissible single move of the last index, weighted by
(q - q^-1) times a root-vector operator applied to bar(x).

The root vectors are iterated q^-1-commutators of Chevalley actions, with
nesting ends mirrored between the two module types:

    last factor V, move c -> d (d > c):
        R(c,d),  R(i,j) = R(i,j-1) E_{j-1} - q^-1 E_{j-1} R(i,j-1)
    last factor W, move c -> d (d < c):
        S(d,c),  S(i,j) = S(i+1,j) E_i - q^-1 E_i S(i+1,j)

Both conventions were pinned against the Hecke-algebra bar on pure tensor
blocks and the rank-2 closed forms, and are guarded by the involution,
equivariance and uniqueness test suites.
"""
from __future__ import annotations

from dataclasses import dataclass

from .combinat import SignedSeq, bruhat_leq
from .fock import FockVector, Window, _act_raw, h0_apply, wedge_project
from .scalars import Laurent, ONE, QINV, ZERO, Z_QMQINV


def _sub_scaled(t1: dict, t2: dict, factor: Laurent) -> dict:
    """t1 - factor * t2 on raw term dicts."""
    out = dict(t1)
    for f, c in t2.items():
        s = out.get(f, ZERO) - c * factor
        if s:
            out[f] = s
        else:
            out.pop(f, None)
    return out


class BarContext:
    """Bar rows for one pure tensor window, with shared prefix caches."""

    def __init__(self, window: Window):
        if window.wedge is not None:
            raise ValueError("BarContext works on tensor windows; see wedge_bar_row")
        self.window = window
        self.bits = window.b.bits
        self.k = window.k
        self._rows: dict = {(): {(): ONE}}
        self._bracket: dict = {}
        self._prefix_windows = {0: None}

    def _pwin(self, p: int) -> Window:
        w = self._prefix_windows.get(p)
        if w is None:
            w = Window(SignedSeq(self.bits[:p]), self.k)
            self._prefix_windows[p] = w
        return w

    def _e(self, p: int, terms: dict, a: int) -> dict:
        if not terms:
            return {}
        return _act_raw(self._pwin(p), terms, "E", a, project=True)

    def _rv(self, p: int, i: int, j: int, terms: dict) -> dict:
        """R(i,j) applied to a raw vector over the length-p prefix."""
        if not terms:
            return {}
        if j == i + 1:
            return self._e(p, terms, i)
        x = self._e(p, terms, j - 1)
        t1 = self._rv(p, i, j - 1, x) if x else {}
        y = self._rv(p, i, j - 1, terms)
        t2 = self._e(p, y, j - 1) if y else {}
        return _sub_scaled(t1, t2, QINV)

    def _sw(self, p: int, i: int, j: int, terms: dict) -> dict:
        """S(i,j) applied to a raw vector over the length-p prefix."""
        if not terms:
            return {}
        if j == i + 1:
            return self._e(p, terms, i)
        x = self._e(p, terms, i)
        t1 = self._sw(p, i + 1, j, x) if x else {}
        y = self._sw(p, i + 1, j, terms)
        t2 = self._e(p, y, i) if y else {}
        return _sub_scaled(t1, t2, QINV)

    def _bracket_app(self, side: str, i: int, j: int, prefix: tuple) -> dict:
        key = (side, i, j, prefix)
        hit = self._bracket.get(key)
        if hit is None:
            base = self.row(prefix)
            p = len(prefix)
            hit = self._rv(p, i, j, base) if side == "V" else self._sw(p, i, j, base)
            self._bracket[key] = hit
        return hit

    def row(self, f: tuple) -> dict:
        """bar(M_f) within the window, as a raw dict {g: Laurent}."""
        f = tuple(f)
        hit = self._rows.get(f)
        if hit is not None:
            return hit
        p = len(f)
        if p > len(self.bits):
            raise ValueError("index longer than the window")
        if any(abs(v) > self.k for v in f):
            raise ValueError(f"index {f} not in window")
        prefix, c = f[:-1], f[-1]
        base = self.row(prefix)
        out: dict = {}
        for g, coef in base.items():
            out[g + (c,)] = coef
        beta = self.bits[p - 1]
        if beta == 0:
            for d in range(c + 1, self.k + 1):
                for g, coef in self._bracket_app("V", c, d, prefix).items():
                    key = g + (d,)
                    s = out.get(key, ZERO) + coef * Z_QMQINV
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        else:
            for d in range(-self.k, c):
                for g, coef in self._bracket_app("W", d, c, prefix).items():
                    key = g + (d,)
                    s = out.get(key, ZERO) + coef * Z_QMQINV
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        self._rows[f] = out
        return out


def bar_row_rl(window: Window, f: tuple) -> dict:
    """Right-to-left variant of the recursion (prepends factors).

    Exists to witness independence of the tensor order; not cached.
    """
    bits = window.b.bits
    k = window.k
    f = tuple(f)

    def suffix_window(p):
        return Window(SignedSeq(bits[p:]), k)

    def fop(p, terms, a):
        if not terms:
            return {}
        return _act_raw(suffix_window(p), terms, "F", a, project=True)

    def fbv(p, i, j, terms):
        # first factor V: Fb(i,j) = Fb(i+1,j) F_i - q^-1 F_i Fb(i+1,j)
        if not terms:
            return {}
        if j == i + 1:
            return fop(p, terms, i)
        x = fop(p, terms, i)
        t1 = fbv(p, i + 1, j, x) if x else {}
        y = fbv(p, i + 1, j, terms)
        t2 = fop(p, y, i) if y else {}
        return _sub_scaled(t1, t2, QINV)

    def fbw(p, i, j, terms):
        # first factor W: Fb(i,j) = Fb(i,j-1) F_{j-1} - q^-1 F_{j-1} Fb(i,j-1)
        if not terms:
            return {}
        if j == i + 1:
            return fop(p, terms, j - 1)
        x = fop(p, terms, j - 1)
        t1 = fbw(p, i, j - 1, x) if x else {}
        y = fbw(p, i, j - 1, terms)
        t2 = fop(p, y, j - 1) if y else {}
        return _sub_scaled(t1, t2, QINV)

    def rec(p, fs):
        if not fs:
            return {(): ONE}
        c, rest = fs[0], fs[1:]
        base = rec(p + 1, rest)
        out = {(c,) + g: coef for g, coef in base.items()}
        if bits[p] == 0:
            for d in range(-k, c):
                for g, coef in fbv(p + 1, d, c, base).items():
                    key = (d,) + g
                    s = out.get(key, ZERO) + coef * Z_QMQINV
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        else:
            for d in range(c + 1, k + 1):
                for g, coef in fbw(p + 1, c, d, base).items():
                    key = (d,) + g
                    s = out.get(key, ZERO) + coef * Z_QMQINV
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return out

    return rec(0, f)


def wedge_bar_row(wwin: Window, ext_ctx: BarContext, idx: tuple) -> dict:
    """bar of a wedge-basis monomial, in wedge-basis coordinates.

    Computed through the embedding W_h -> M_{h.w0} H_0: bar the embedded
    monomial, push the bar-invariant H_0 across, and read off the
    coefficients of sorted-tail monomials.
    """
    side, kw = wwin.wedge
    mn = wwin.tensor_len
    rev = idx[:mn] + tuple(reversed(idx[mn:]))
    raw = ext_ctx.row(rev)
    v = FockVector(ext_ctx.window, dict(raw))
    v = h0_apply(v, mn, kw)
    return dict(wedge_project(v, wwin).terms)


@dataclass
class BarTable:
    """Rows bar(M_f) = sum_g r_{gf} M_g for f in a chosen part of a window."""

    window: Window
    rows: dict  # f -> {g: Laurent}

    def check_unitriangular(self):
        bext = SignedSeq(self.window.extended_bits())
        for f, row in self.rows.items():
            if row.get(f) != ONE:
                raise AssertionError(f"diagonal of bar row {f} is not 1")
            for g in row:
                if g != f and not bruhat_leq(bext, g, f):
                    raise AssertionError(f"bar row {f} hits non-lower index {g}")

    def involution_defect(self):
        """First (g, f) where sum_h r_{gh} bar(r_{hf}) != delta, or None.

        Valid for every pair of indices carried by the table whenever the
        table holds all rows of the enclosing window (intervals of
        in-window pairs stay in the window).
        """
        for f, row_f in self.rows.items():
            acc: dict = {}
            for h, rhf in row_f.items():
                row_h = self.rows.get(h)
                if row_h is None:
                    continue
                bar_rhf = rhf.bar()
                for g, rgh in row_h.items():
                    s = acc.get(g, ZERO) + rgh * bar_rhf
                    if s:
                        acc[g] = s
                    else:
                        acc.pop(g, None)
            if acc.get(f) != ONE:
                return (f, f, acc.get(f, ZERO))
            for g, val in acc.items():
                if g != f:
                    return (g, f, val)
        return None

    def to_json(self) -> dict:
        def key(f):
            return ",".join(str(v) for v in f)

        return {
            "b": str(self.window.b),
            "k": self.window.k,
            "wedge": f"{self.window.wedge[0]}:{self.window.wedge[1]}"
            if self.window.wedge
            else None,
            "rows": {
                key(f): {key(g): c.to_json() for g, c in sorted(row.items())}
                for f, row in sorted(self.rows.items())
            },
        }


def bar_table(window: Window, fbox: int | None = None) -> BarTable:
    """Bar rows for every index of the window whose entries are <= fbox.

    fbox defaults to the full window.  The involution identity is verified
    for all pairs carried by the table and a failure is a hard error.
    """
    bound = window.k if fbox is None else min(fbox, window.k)
    rows = {}
    if window.wedge is None:
        ctx = BarContext(window)
        for f in window.basis():
            if max((abs(v) for v in f), default=0) <= bound:
                rows[f] = ctx.row(f)
    else:
        ctx = BarContext(window.extended())
        for f in window.basis():
            if max((abs(v) for v in f), default=0) <= bound:
                rows[f] = wedge_bar_row(window, ctx, f)
    table = BarTable(window, rows)
    if fbox is None or fbox >= window.k:
        defect = table.involution_defect()
        if defect is not None:
            g, f, val = defect
            raise AssertionError(
                f"bar is not an involution on {window}: pair g={g}, f={f}, defect {val!r}"
            )
    return table


def equivariance_defect(ctx: BarContext, f: tuple, a: int):
    """Compare bar(X M_f) with X bar(M_f) for X = E_a, then F_a.

    Returns the first differing (lhs, rhs), or None when both agree.
    Exact whenever |a| + 1 < k, since then E_a and F_a commute with the
    window projection.
    """
    win = ctx.window
    for kind in ("E", "F"):
        moved = _act_raw(win, {tuple(f): ONE}, kind, a, project=True)
        lhs: dict = {}
        for h, c in moved.items():
            cb = c.bar()
            for g, r in ctx.row(h).items():
                s = lhs.get(g, ZERO) + r * cb
                if s:
                    lhs[g] = s
                else:
                    lhs.pop(g, None)
        rhs = _act_raw(win, ctx.row(tuple(f)), kind, a, project=True)
        if lhs != rhs:
            return (lhs, rhs)
    return None
