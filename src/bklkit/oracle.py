"""Independent validators.

A self-contained Iwahori-Hecke engine computing the classical
Kazhdan-Lusztig basis (normalization matched to this package's q), the
rank-2 closed forms for a mixed pair, and a certificate that the bar table
of a tiny window is the only solution of the linear constraints that
define it: exact residuals in Z[q, q^-1] and a rank computed modulo a prime.
All of it exists to cross-check the main pipeline, not to feed it.

At the end: references for the vector actions, the wedge embedding and
the bar rows (_nested, bar_row_rl, the right-to-left witness of barinv's
tensor order) that the tests compare parts against.
"""
from __future__ import annotations

from itertools import permutations

from .barinv import BarContext
from .combinat import SignedSeq, Window, bruhat_leq
from .fock import _act_raw, _hecke_raw, _weight_classes, h0_apply, wt_signature
from .scalars import Laurent, ONE, ZERO, Z_QMQINV, addmul


def q_power(n: int) -> Laurent:
    return Laurent({n: 1})


# ---------------------------------------------------------------------------
# Symmetric group helpers (0-based one-line notation)
# ---------------------------------------------------------------------------


def perm_inversions(p: tuple) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def reduced_word(p: tuple) -> list:
    """A reduced word, read left to right, multiplying into p."""
    p = list(p)
    word = []
    for _ in range(perm_inversions(tuple(p))):
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i)
                break
    word.reverse()
    return word


def perm_bruhat_leq(u: tuple, w: tuple) -> bool:
    """Dominance criterion for the Bruhat order on permutations."""
    n = len(u)
    for i in range(1, n):
        cu = sorted(u[:i])
        cw = sorted(w[:i])
        # u <= w iff the i-prefix of u, sorted, dominates that of w entrywise
        if any(a > b for a, b in zip(cu, cw)):
            return False
    return True


# ---------------------------------------------------------------------------
# Hecke algebra with (H_i - q^-1)(H_i + q) = 0
# ---------------------------------------------------------------------------


_MINUS_Z = -Z_QMQINV


class HeckeElt:
    """Sparse element of the Hecke algebra of S_m."""

    __slots__ = ("m", "c")

    def __init__(self, m: int, c: dict | None = None):
        self.m = m
        self.c = {p: v for p, v in (c or {}).items() if v}

    @classmethod
    def unit(cls, m: int) -> "HeckeElt":
        return cls(m, {tuple(range(m)): ONE})

    def __eq__(self, other):
        return isinstance(other, HeckeElt) and self.m == other.m and self.c == other.c

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        c = dict(self.c)
        for p, v in other.c.items():
            addmul(c, p, v)
        return HeckeElt(self.m, c)

    def scale(self, x: Laurent) -> "HeckeElt":
        return HeckeElt(self.m, {p: v * x for p, v in self.c.items()})

    def times_h(self, i: int) -> "HeckeElt":
        """Right multiplication by H_i (1-based generator index)."""
        out: dict = {}
        i -= 1
        for p, v in self.c.items():
            addmul(out, p[:i] + (p[i + 1], p[i]) + p[i + 2 :], v)
            if p[i] > p[i + 1]:
                addmul(out, p, v, _MINUS_Z)
        return HeckeElt(self.m, out)

    def times_h_inv(self, i: int) -> "HeckeElt":
        """H_i^{-1} = H_i + (q - q^{-1})."""
        return self.times_h(i) + self.scale(Z_QMQINV)

    def bar(self) -> "HeckeElt":
        """bar(sum c_w H_w) = sum bar(c_w) H_{w^{-1}}^{-1}."""
        total = HeckeElt(self.m)
        for w, c in self.c.items():
            elt = HeckeElt.unit(self.m).scale(c.bar())
            for i in reduced_word(w):
                elt = elt.times_h_inv(i + 1)
            total = total + elt
        return total


def kl_basis(m: int, w: tuple) -> HeckeElt:
    """The bar-invariant element H_w + sum over u < w of qZ[q] terms."""
    w = tuple(w)
    row_cache: dict = {}

    def bar_row(x):
        hit = row_cache.get(x)
        if hit is None:
            hit = HeckeElt(m, {x: ONE}).bar().c
            row_cache[x] = hit
        return hit

    cands = [u for u in permutations(range(m)) if perm_bruhat_leq(u, w)]
    cands.sort(key=lambda u: -perm_inversions(u))
    assert cands[0] == w
    solved: dict = {w: ONE}
    for u in cands[1:]:
        s = ZERO
        for h, th in solved.items():
            r = bar_row(h).get(u)
            if r is not None:
                s = s + r * th.bar()
        if not s:
            continue
        # a solvable column demands bar(s) == -s; the answer is its q-positive part
        if any(s.c.get(-e, 0) != -v for e, v in s.c.items()):
            raise AssertionError(f"inconsistent Hecke bar data at {u} below {w}")
        val = {e: v for e, v in s.c.items() if e >= 1}
        if val:
            solved[u] = Laurent(_raw=val)
    return HeckeElt(m, solved)


def schur_jimbo_match(m: int, base: tuple, k: int) -> bool:
    """Canonical coefficients on a regular orbit match the KL basis.

    base is a strictly increasing tuple; the orbit {base . sigma} inside
    the level-k window plays the role of the regular representation.
    """
    from .canonical import CANONICAL, engine

    b = SignedSeq((0,) * m)
    eng = engine(Window(b, k))
    for w in permutations(range(m)):
        fw = tuple(base[w[i]] for i in range(m))
        col = eng.column(fw, CANONICAL).entries
        heck = kl_basis(m, w).c
        for u in permutations(range(m)):
            fu = tuple(base[u[i]] for i in range(m))
            if col.get(fu, ZERO) != heck.get(u, ZERO):
                raise AssertionError(
                    f"Schur-Jimbo mismatch at u={u}, w={w}: "
                    f"{col.get(fu, ZERO)!r} != {heck.get(u, ZERO)!r}"
                )
    return True


# ---------------------------------------------------------------------------
# Rank-2 closed forms
# ---------------------------------------------------------------------------


def rank2_forms(case: str, f: tuple, k: int) -> tuple:
    """(T_f, L_f) as term dicts for the mixed rank-2 Fock space, truncated at level k.

    case "VW" is the (0,1) sequence (ties expand downward), "WV" the
    (1,0) one (ties expand upward).
    """
    if case not in ("VW", "WV"):
        raise ValueError("case must be VW or WV")
    if k <= 0:
        raise ValueError("window level k must be positive")
    a, c = f
    if a != c:
        return ({(a, c): ONE}, {(a, c): ONE})
    step = -1 if case == "VW" else 1
    tterms = {f: ONE}
    if abs(a + step) <= k:
        tterms[(a + step, a + step)] = Laurent({1: 1})
    lterms = {f: ONE}
    t = 1
    while abs(a + step * t) <= k:
        d = a + step * t
        lterms[(d, d)] = q_power(-t) * ((-1) ** (t % 2))
        t += 1
    return (tterms, lterms)


# ---------------------------------------------------------------------------
# Uniqueness of the bar involution on a tiny window, certified
# ---------------------------------------------------------------------------


_PRIME = 2**61 - 1  # the rank check works in Z/_PRIME at q = 2
_MAX_DIM = 400  # the largest window dimension the solver takes


def _at_two(c: Laurent) -> int:
    """The image of c under Z[q, q^-1] -> Z/_PRIME, q -> 2 (a ring map)."""
    return sum(v * pow(2, e, _PRIME) for e, v in c.c.items()) % _PRIME


def _rank_mod_prime(rows: list) -> int:
    """Rank over Z/_PRIME of sparse rows {column: int}, by elimination."""
    pivots: dict = {}  # pivot column -> row normalized to 1 there
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            j = min(row)
            if j not in pivots:
                inv = pow(row[j], -1, _PRIME)
                pivots[j] = {jj: v * inv % _PRIME for jj, v in row.items()}
                break
            factor = row[j]
            for jj, v in pivots[j].items():
                w = (row.get(jj, 0) - factor * v) % _PRIME
                if w:
                    row[jj] = w
                else:
                    row.pop(jj, None)
    return len(pivots)


def brute_bar_uniqueness(window: Window) -> dict:
    """Certify that the bar table is the only equivariant unitriangular map.

    Unknowns: the below-diagonal coefficients of an antilinear
    unitriangular map psi.  Constraints: psi(X M_f) = X psi(M_f) for every
    basis index f and every Chevalley generator X = E_a, F_a acting inside
    the window.  The certificate has two parts:

    - the bar table computed by the quasi-R-matrix recursion is unitriangular
      and leaves an exactly zero Laurent residual in every constraint;
    - the coefficient matrix has full column rank at q = 2 modulo the prime
      2^61 - 1.  A minor is a Laurent polynomial and evaluation is a ring
      map, so a nonzero minor there is a nonzero minor over Q(q), and the
      table is the unique solution.

    A rank that falls short at that point fails the run; it never passes.
    """
    if window.wedge is not None:
        raise ValueError("uniqueness solver works on tensor windows")
    basis = list(window.basis())
    if len(basis) > _MAX_DIM:
        raise ValueError(f"window dimension {len(basis)} too large for the solver")
    b = window.b
    ctx = BarContext(window)
    classes = _weight_classes(window)

    index = {}  # the unknowns: (g, f) with g strictly below f -> column
    for f in basis:
        for g in classes[wt_signature(b, f)]:
            if g != f and bruhat_leq(b, g, f):
                index[(g, f)] = len(index)

    table = [ZERO] * len(index)
    for f in basis:
        row = ctx.row(f)
        if row.get(f) != ONE:
            raise AssertionError(f"bar row of {f} has diagonal {row.get(f)!r}")
        for g, c in row.items():
            j = index.get((g, f))
            if j is not None:
                table[j] = c
            elif g != f:
                raise AssertionError(f"bar row of {f} is not unitriangular at {g}: {c!r}")

    rows = []  # the constraints' coefficients, evaluated by _at_two
    gens = [("E", a) for a in range(-window.k, window.k)] + [
        ("F", a) for a in range(-window.k, window.k)
    ]
    for f in basis:
        for kind, a in gens:
            moved = _act_raw(window, {f: ONE}, kind, a)
            lin: dict = {}  # output index -> {unknown: coefficient}
            rhs: dict = {}  # output index -> constant term
            # psi(X M_f) = sum_h bar(c_h) (M_h + sum_g x_gh M_g)
            for h, c in moved.items():
                cb = c.bar()
                addmul(rhs, h, c - cb)
                for g in classes[wt_signature(b, h)]:
                    j = index.get((g, h))
                    if j is not None:
                        addmul(lin.setdefault(g, {}), j, cb)
            # X psi(M_f) = X M_f + sum_g x_gf X M_g
            for g in classes[wt_signature(b, f)]:
                j = index.get((g, f))
                if j is not None:
                    for h, c in _act_raw(window, {g: ONE}, kind, a).items():
                        addmul(lin.setdefault(h, {}), j, -c)
            for h in set(lin) | set(rhs):
                coeffs = lin.get(h, {})
                residual: dict = {}
                addmul(residual, h, -rhs.get(h, ZERO))
                for j, c in coeffs.items():
                    addmul(residual, h, c, table[j])
                if residual:
                    raise AssertionError(
                        f"bar table leaves residual {residual[h]!r} at {h} in "
                        f"psi({kind}_{a} M_{f}) = {kind}_{a} psi(M_{f})"
                    )
                rows.append({j: _at_two(c) for j, c in coeffs.items()})

    rank = _rank_mod_prime(rows)
    if rank < len(index):
        raise AssertionError(
            f"bar map not certified unique: constraint rank {rank} of "
            f"{len(index)} unknowns at q = 2 mod 2^61 - 1"
        )
    return {"dimension": len(basis), "unknowns": len(index), "unique": True}


# ---------------------------------------------------------------------------
# References for the vector actions, down moves and bar rows
# ---------------------------------------------------------------------------


def hecke_act(window: Window, terms: dict, i: int) -> dict:
    """Right action of H_i (1-based) on a pure tensor window."""
    if window.wedge is not None:
        raise ValueError("Hecke action needs a pure tensor window")
    bits = window.b.bits
    if len(set(bits)) > 1:
        raise ValueError("Hecke action is defined on pure V or pure W windows")
    if not (1 <= i <= len(bits) - 1):
        raise ValueError("Hecke index out of range")
    return _hecke_raw(bits, terms, i - 1)


def wedge_embed(wwin: Window, idx: tuple) -> dict:
    """Embed a wedge basis vector into the extended tensor window.

    The wedge vector indexed by a sorted tail h goes to M_{h.w0} H_0 on the
    trailing block.
    """
    if wwin.wedge is None:
        raise ValueError("window has no wedge part")
    side, kw = wwin.wedge
    if not wwin.valid_index(idx):
        raise ValueError(f"{idx} is not a wedge index of {wwin}")
    ext = wwin.extended()
    mn = wwin.tensor_len
    rev = idx[:mn] + tuple(reversed(idx[mn:]))
    return h0_apply(ext, {rev: ONE}, mn, kw)


_MINUS_QINV = Laurent({-1: -1})


def _nested(act, i: int, j: int, terms: dict, top: bool) -> dict:
    """The iterated q^-1-commutator X(i,j) of act applied to raw terms.

    act(terms, a) applies X_a.  X(i,i+1) = X_i, and one index is peeled
    from the top end, X(i,j) = X(i,j-1) X_{j-1} - q^-1 X_{j-1} X(i,j-1),
    or from the bottom, X(i,j) = X(i+1,j) X_i - q^-1 X_i X(i+1,j).
    """
    if not terms:
        return {}
    if j == i + 1:
        return act(terms, i)
    a, i2, j2 = (j - 1, i, j - 1) if top else (i, i + 1, j)
    out = _nested(act, i2, j2, act(terms, a), top)
    y = _nested(act, i2, j2, terms, top)
    if y:
        for g, c in act(y, a).items():
            addmul(out, g, c, _MINUS_QINV)
    return out


def bar_row_rl(window: Window, f: tuple) -> dict:
    """Right-to-left variant of the recursion (prepends factors).

    Exists to witness independence of the tensor order; not cached.
    """
    bits = window.b.bits
    k = window.k

    def rec(p, fs):
        if not fs:
            return {(): ONE}
        c = fs[0]
        base = rec(p + 1, fs[1:])
        out = {(c,) + g: coef for g, coef in base.items()}
        # a W first factor moves up and peels the top of
        # Fb(i,j) = Fb(i,j-1) F_{j-1} - q^-1 F_{j-1} Fb(i,j-1); a V first
        # factor moves down and peels the bottom
        up = bits[p] == 1
        win = Window(SignedSeq(bits[p + 1 :]), k)

        def act(terms, a):
            return _act_raw(win, terms, "F", a)

        # each move c -> d adds (q - q^-1) Fb(min, max) base, with d in front
        for d in range(c + 1, k + 1) if up else range(-k, c):
            for g, coef in _nested(act, min(c, d), max(c, d), base, up).items():
                addmul(out, (d,) + g, coef, Z_QMQINV)
        return out

    return rec(0, tuple(f))
