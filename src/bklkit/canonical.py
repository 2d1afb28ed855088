"""Canonical and dual canonical bases via the triangular algorithm.

A column of the canonical basis solves, inside the finite interval below
its index, the fixed-point system t = R . bar(t) with t unitriangular and
off-diagonal entries in qZ[q]; the dual basis does the same in
q^-1 Z[q^-1].  Windowed columns coincide with the global Brundan-
Kazhdan-Lusztig polynomials on the window, which is what this module
returns, always together with the window it used.

The engine keeps each bar row in one form only, the one the solve reads:
a flat push list [id of h, r_hg, pack(r_hg), ...], built when the solve
first pops the row's index.  A full-length tensor row, and the extended
row a wedge row is gathered from, is taken out of the BarContext
(BarContext.take) as the list is built; the context keeps the prefix rows.
The build checks the row, once: diagonal 1, every other entry at a larger
linear key.  Indices get int ids, (key << bits) + serial, that order like
keys, so the heap and the pending sums hold ints only.  The solve keeps
each pending sum as one int in lanes of B bits at exponent offset O
(Kronecker substitution, scalars.pack), so a push is one big-int
multiply-add.  It decodes a sum only when it pops it, checks the
antisymmetry it needs as one integer identity, and restarts a column in
wider lanes whenever a bound says the sums could outgrow them; the lanes
stay on the engine, and widening re-packs the stored push lists
(CONVENTIONS.md, "Integer encodings").

engine(window) caches the engines of the two most recently used windows,
enough for every pair of windows a check alternates between (k and k+1
in the truncation suite, a wedge window and its extension, b and its odd
swap).  bkl, wedge_bkl and char each solve a column once, in the engine
of their own window: the k-box is order-convex in the Bruhat order, so
the column at level k is the column at any higher level cut to the box
(CONVENTIONS.md, "Truncation").  bkl then checks every push list its
column was built from for Bruhat descent, which the engine's key-order
test does not decide.  An engine's bar rows share their values and index
tuples through its BarContext (see barinv); its push lists and columns
reuse those tuples and values, and a column holds one object per
distinct entry value and kind.

The column witnesses (tensor against wedge, adjacent pairs, super duality,
truncation and shift) are in verify, which bkl and char do not load.
"""
from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from math import comb

from .barinv import BarContext, wedge_bar_row
from .combinat import SharpPack, SignedSeq, Window, bruhat_leq, format_weight
from .scalars import ONE, pack, unpack

CANONICAL = "canonical"
DUAL = "dual"

WINDOW_MARGIN = 2  # added to m+n when auto-selecting a window level

_LANES = (12, 16)  # the lanes a new engine's solve starts from


class TriangularityError(AssertionError):
    """A solved coefficient violated its required degree class."""


class BklColumn:
    __slots__ = ("window", "f", "kind", "entries")

    def __init__(self, window: Window, f: tuple, kind: str, entries: dict):
        self.window = window
        self.f = f
        self.kind = kind
        self.entries = entries  # g -> Laurent, diagonal included

    def to_json(self) -> dict:
        mn = self.window.tensor_len
        wedge = self.window.wedge
        col = []
        for g in sorted(self.entries):
            item = {"g": format_weight(g[:mn])}
            if wedge:
                item["u"] = format_weight(g[mn:])
            item["poly"] = self.entries[g].to_json()
            col.append(item)
        out = {
            "b": str(self.window.b),
            "f": format_weight(self.f[:mn]),
            "kind": self.kind,
            "window": self.window.k,
            "column": col,
        }
        if wedge:
            out["wedge"] = f"{wedge[0]}:{wedge[1]}"
            out["u"] = format_weight(self.f[mn:])
        return out


class BklEngine:
    """Columns over one window, with push lists and columns memoized."""

    def __init__(self, window: Window):
        self.window = window
        self.bext = window.extended().b
        self._ctx = BarContext(window.extended())
        self._weights = [(i + 1) * self.bext.sign(i + 1) for i in range(len(self.bext))]
        # the id of an index is (key << _bits) + serial, serial the number of
        # ids given before it: _bits is the bit length of the basis size, so
        # serial < 2^_bits and ids order like keys
        side = 2 * window.k + 1
        self._bits = (side**window.tensor_len * comb(side, window.wedge_len)).bit_length()
        self._num: dict = {}  # index -> its id
        self._idx: dict = {}  # id -> index
        self._columns: dict = {}
        # id of g -> the push list of g, [id of h, r_hg, pack(r_hg, B, O), ...]
        # over the bar row of g without its diagonal
        self._pushes: dict = {}
        # the solve's lanes (bits per coefficient, offset of the exponents),
        # widened as columns need and kept for the engine's lifetime
        self._lanes = _LANES
        # id of a bar-row value -> its pack at the lanes; ids stay valid
        # because the BarContext pools every row value it stores (see
        # barinv) for as long as the engine lives
        self._packs: dict = {}
        self._l1 = 0  # the largest L1 norm of a packed bar-row value
        # per kind, the lanes e >= 0 of a popped pending sum s = p - bar(p)
        # -> (the packed s that p solves, t, pt, st, L1(t))
        self._decoded: dict = {CANONICAL: {}, DUAL: {}}

    def key(self, g: tuple) -> int:
        """The linear order key sum_i (i+1) s_i g_i, s_i = (-1)^{b_i} (0-based i).

        The total of all sharp values over a grid of levels a in [lo, hi]
        covering g and f, sum_{a,j} sharp(g, a, j), is strictly
        order-monotone and equals (hi+1) sum_i (i+1) s_i - key(g).  So
        g < f implies key(g) > key(f): ascending keys list every index
        after everything above it.
        """
        return sum(w * v for w, v in zip(self._weights, g))

    def _id(self, g: tuple) -> int:
        """The id of g, given the first time the engine sees g; ids order like keys."""
        n = self._num.get(g)
        if n is None:
            g = self._ctx._keys.setdefault(g, g)  # the context's one copy of g
            n = self._num[g] = (self.key(g) << self._bits) + len(self._num)
            self._idx[n] = g
        return n

    def candidates(self, f: tuple) -> list:
        """{g <= f} sorted by key, from a window scan; the solve never calls it."""
        down = [g for g in self.window.basis() if bruhat_leq(self.bext, g, f)]
        return sorted(down, key=lambda g: (self.key(g), g))

    def column(self, f: tuple, kind: str) -> BklColumn:
        f = tuple(f)
        memo = (f, kind)
        hit = self._columns.get(memo)
        if hit is not None:
            return hit
        if kind not in (CANONICAL, DUAL):
            raise ValueError(f"kind must be {CANONICAL!r} or {DUAL!r}")
        if not self.window.valid_index(f):
            raise ValueError(f"index {f} not in window {self.window}")
        out = self._solve(f, kind)
        while out is None:  # the column outgrew the lanes, which are wider now
            out = self._solve(f, kind)
        col = BklColumn(self.window, f, kind, out)
        self._columns[memo] = col
        return col

    def _push_list(self, n: int) -> list:
        """The push list of the index f with id n, built from its bar row.

        The row is checked here, once: diagonal 1 and every other entry at
        a larger key than f.  Key order only: bkl, BarTable.check_unitriangular
        and suite_triangularity test Bruhat descent.  A tensor row, or the
        extended row of a wedge row, is taken out of the context, so the
        engine keeps the row in this form only.
        """
        f, ctx = self._idx[n], self._ctx
        row = ctx.take(f) if self.window.wedge is None else wedge_bar_row(self.window, ctx, f)
        if row.get(f) != ONE:
            raise TriangularityError(f"bar data at the diagonal f={f} is {row.get(f)!r}, not 1")
        num, number, pack_at = self._num, self._id, self._pack
        top = ((n >> self._bits) + 1) << self._bits  # every id below has a key <= key(f)
        lanes = self._lanes
        push: list = []
        for h, r in row.items():
            m = num.get(h)
            if m is None:
                m = number(h)
            if m < top:
                if h == f:
                    continue
                raise TriangularityError(f"bar data at g={h} is not below f={f}: r_gf={r!r}")
            push += (m, r, pack_at(r))
        if self._lanes != lanes:  # widened mid-build: re-pack what was packed before
            self._repack(push)
        self._pushes[n] = push
        return push

    def _pack(self, r) -> int:
        """pack(r, B, O) at the engine's lanes, once per value; an r with an
        exponent beyond O widens the lanes first."""
        pr = self._packs.get(id(r))
        if pr is None:
            base, off = self._lanes
            span = max(map(abs, r.c), default=0)
            if span > off:
                self._widen(base, span)
                base, off = self._lanes
            self._l1 = max(self._l1, sum(map(abs, r.c.values())))
            pr = self._packs[id(r)] = pack(r, base, off)
        return pr

    def _repack(self, push: list) -> None:
        push[2::3] = map(self._pack, push[1::3])

    def _solve(self, f: tuple, kind: str) -> dict | None:
        """The entries of the column of f, or None after widening the lanes.

        Push-style: once t_g is known, its push list adds r_hg bar(t_g) to
        the pending sum s_h of every h below it, and a heap hands out the
        pending ids by ascending key, so each comes after its pushers.
        Each s_h is one int, s_h(2^B) 2^(2BO) for the lanes (B, O); see
        CONVENTIONS.md for why every test below is exact.
        """
        base, off = self._lanes
        shift = 2 * base * off
        pushes, idx = self._pushes, self._idx
        decoded = self._decoded[kind]
        out: dict = {}
        pending: dict = {}  # id -> its packed pending sum
        heap: list = []
        load = 0  # bounds every coefficient of every pending sum
        n = self._id(f)
        g, t = idx[n], ONE
        pt, st, l1 = 1, base * off, 1  # pack(bar(t), B, O) == pt << st; L1(t)
        while True:
            out[g] = t
            push = pushes.get(n)
            if push is None:
                push = self._push_list(n)
                if self._lanes != (base, off):
                    return None
            it = iter(push)
            for h, _, pr in zip(it, it, it):
                x = pending.get(h)
                if x is None:
                    heappush(heap, h)
                    pending[h] = pr * pt << st
                else:
                    pending[h] = x + (pr * pt << st)
            load += l1 * self._l1
            if load >> (base - 1):
                self._widen(load.bit_length() + 1, off)
                return None
            x = 0
            while not x:  # a zero sum cancelled
                if not heap:
                    return out
                n = heappop(heap)
                x = pending.pop(n)
            g = idx[n]
            # s = p - bar(p), p in qZ[q]; hi packs the lanes e >= 0 of s
            hi = (x + (1 << (shift - 1))) >> shift
            known = decoded.get(hi)
            if known is None:
                p = unpack(hi, base, 0)
                pbar = p.bar()
                t, tbar = (p, pbar) if kind == CANONICAL else (-pbar, -p)
                # pt packs bar(t) from its lowest exponent e, st = B (O + e):
                # the product with a bar-row value has no zero lanes to carry
                e = min(tbar.c, default=0)
                known = decoded[hi] = (
                    (hi << shift) - pack(pbar, base, 2 * off),
                    t,
                    pack(tbar, base, -e),
                    base * (off + e),
                    sum(map(abs, p.c.values())),
                )
            target, t, pt, st, l1 = known
            if x != target:  # also fails on a constant term
                raise TriangularityError(
                    f"inconsistent bar data at g={g}, f={f}: s={unpack(x, base, 2 * off)!r}"
                )

    def _widen(self, base: int, off: int) -> None:
        """Lanes of at least base bits and offset off: a part that grows at
        least doubles, so an engine restarts a few times at most.  The
        stored push lists are re-packed in place."""
        b, o = self._lanes
        self._lanes = (max(base, 2 * b) if base > b else b, max(off, 2 * o) if off > o else o)
        self._packs = {}
        self._decoded = {CANONICAL: {}, DUAL: {}}
        for push in self._pushes.values():
            self._repack(push)

    def table(self, kind: str) -> dict:
        return {f: self.column(f, kind).entries for f in self.window.basis()}


@lru_cache(maxsize=2)
def engine(window: Window) -> BklEngine:
    """The engine of a window; the two most recently used ones stay cached."""
    return BklEngine(window)


def auto_level(b: SignedSeq, f: tuple, wedge_len: int = 0) -> int:
    spread = max((abs(v) for v in f), default=0)
    return spread + len(b) + wedge_len + WINDOW_MARGIN


def query_window(b: SignedSeq, f: tuple, k: int | None, wedge: tuple | None = None) -> Window:
    """The window a query on f solves over: level k, or auto_level if k is None."""
    if k is None:
        k = auto_level(b, f, wedge[1] if wedge else 0)
    return Window(b, k, wedge)


def bkl(
    b: SignedSeq,
    f: tuple,
    kind: str,
    k: int | None = None,
) -> BklColumn:
    """A BKL column over the tensor window of level k (auto_level if None).

    Solved once, in the cached engine of the window, as wedge_bkl and char
    solve theirs: the k-box is order-convex in the Bruhat order
    (CONVENTIONS.md, "Truncation"), so a solve one level up, cut to the
    box, gives the same column.  Then every entry of every push list the
    column was built from must lie Bruhat-below its row's index, tested
    through one SharpPack of the window; the engine tests key order only.
    The truncation suite of verify (truncation_consistent_tensor) compares
    the columns of two separately built row sets.
    """
    eng = engine(query_window(b, tuple(f), k))
    col = eng.column(f, kind)
    k = eng.window.k
    order = SharpPack(eng.bext, -k, k)
    guard, mask = order.guard, order.mask
    num, idx, pushes = eng._num, eng._idx, eng._pushes
    packs: dict = {}  # id -> the SharpPack of its index
    for g in col.entries:
        n = num[g]
        pg = packs.get(n)
        if pg is None:
            pg = packs[n] = order.pack(g)
        top = guard + pg  # SharpPack.leq(ph, pg), inlined
        it = iter(pushes[n])
        for m, r, _ in zip(it, it, it):
            ph = packs.get(m)
            if ph is None:
                ph = packs[m] = order.pack(idx[m])
            if (top - ph) & mask != guard:
                raise TriangularityError(
                    f"bar data at g={idx[m]} is not Bruhat-below {g} in the column of f={col.f}: r={r!r}"
                )
    return col


def wedge_bkl(
    b: SignedSeq,
    side: str,
    kw: int,
    f: tuple,
    kind: str,
    k: int | None = None,
) -> BklColumn:
    """A BKL column over a finite q-wedge window (flat index f)."""
    return engine(query_window(b, f, k, (side, kw))).column(tuple(f), kind)


# ---------------------------------------------------------------------------
# Whole-table export
# ---------------------------------------------------------------------------


class BklTable:
    __slots__ = ("window", "kind", "entries")

    def __init__(self, window: Window, kind: str, entries: dict):
        self.window = window
        self.kind = kind
        self.entries = entries  # (g, f) -> Laurent, diagonal implicit 1

    @classmethod
    def over_window(cls, window: Window, kind: str) -> "BklTable":
        eng = engine(window)
        ent = {}
        for f, col in eng.table(kind).items():
            for g, c in col.items():
                if g != f:
                    ent[(g, f)] = c
        return cls(window, kind, ent)

    def to_json(self) -> dict:
        return {
            "b": str(self.window.b),
            "k": self.window.k,
            "kind": self.kind,
            "entries": [
                {"g": format_weight(g), "f": format_weight(f), "poly": c.to_json()}
                for (g, f), c in sorted(self.entries.items())
            ],
        }
