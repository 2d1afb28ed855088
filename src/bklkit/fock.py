"""The reference actions on windowed Fock spaces.

No bkl or char query runs this module: verify, the oracle and the tests
check the pipeline against it.  A vector is a term dict {basis index:
Laurent} over a combinat.Window, and every function here that acts on one
returns a new term dict.

Chevalley generators act positionwise through the comultiplication
Delta(E_a) = 1 (x) E_a + E_a (x) K_{a+1,a} and
Delta(F_a) = F_a (x) 1 + K_{a,a+1} (x) F_a, so E twists to the right of the
acting slot and F twists to the left.  They act on tensor windows and
drop every term moved outside the window (the window projection).

h0_apply multiplies by H_0 through the Hecke action on slot pairs, and
wedge_project reads the wedge coordinates of its image: the reference
that barinv.wedge_gather's closed form is tested against.  wt_signature
and _weight_classes group a window's basis by weight for the oracle.
"""
from __future__ import annotations

from .combinat import SignedSeq, Weight, Window
from .scalars import Laurent, addmul


def wt_signature(b: SignedSeq, f: Weight) -> tuple:
    """Canonical form of the formal weight sum_i (-1)^{b_i} eps_{f(i)}."""
    acc: dict = {}
    for i, v in enumerate(f):
        s = -1 if b.bits[i] else 1
        w = acc.get(v, 0) + s
        if w:
            acc[v] = w
        else:
            acc.pop(v, None)
    return tuple(sorted(acc.items()))


def _weight_classes(window: Window) -> dict:
    """The whole basis of the window grouped by wt_signature (a full scan)."""
    b = window.extended().b
    out: dict = {}
    for f in window.basis():
        out.setdefault(wt_signature(b, f), []).append(f)
    return out


# ---------------------------------------------------------------------------
# Chevalley action
# ---------------------------------------------------------------------------


def _act_raw(window: Window, terms: dict, kind: str, a: int) -> dict:
    """One application of E_a, F_a, K_a or K_a^-1 on raw term dicts.

    Terms moved outside the window are dropped.
    """
    if window.wedge is not None:
        raise ValueError("the Chevalley action needs a tensor window")
    bits = window.b.bits
    mn = window.tensor_len
    k = window.k
    b = a + 1
    out: dict = {}
    if kind in ("K", "Kinv"):
        sgn = 1 if kind == "K" else -1
        for f, coef in terms.items():
            expo = sum(-1 if bits[i] else 1 for i in range(mn) if f[i] == a)
            addmul(out, f, coef.shift(sgn * expo))
        return out

    # src[bit] is the entry a slot of that type moves away from (to a + b -
    # src): E lowers a V entry a+1 and raises a W entry a, F does the reverse.
    # The twist K_{a+1,a} (for E) or K_{a,a+1} (for F) of one slot is +1 on a
    # movable entry and -1 on the other value of {a, a+1}, whatever its type.
    # E twists by the slots to the right of the acting one, so its pass runs
    # right to left; F twists by the slots to the left.
    left = kind == "F"
    src = (a, b) if left else (b, a)
    slots = range(mn) if left else range(mn - 1, -1, -1)
    for f, coef in terms.items():
        tw = 0
        for i in slots:
            e = f[i]
            if e != a and e != b:
                continue
            if e != src[bits[i]]:
                tw -= 1
                continue
            new = a + b - e
            if abs(new) <= k:
                addmul(out, f[:i] + (new,) + f[i + 1 :], coef.shift(tw))
            tw += 1
    return out


# ---------------------------------------------------------------------------
# Hecke action and q-wedges
# ---------------------------------------------------------------------------


def _hecke_raw(bits: tuple, terms: dict, i: int) -> dict:
    """Right action of H_{i+1} on slots (i, i+1), both of the same type."""
    if bits[i] != bits[i + 1]:
        raise ValueError("Hecke generator needs two slots of equal type")
    vtype = bits[i] == 0
    out: dict = {}
    zz = Laurent({1: -1, -1: 1})  # -(q - q^-1)
    for f, coef in terms.items():
        x, y = f[i], f[i + 1]
        swapped = f[:i] + (y, x) + f[i + 2 :]
        if x == y:
            addmul(out, f, coef.shift(-1))
        elif (x < y) == vtype:
            addmul(out, swapped, coef)
        else:
            addmul(out, swapped, coef)
            addmul(out, f, coef, zz)
    return out


def _perms_by_length(kw: int):
    """All permutations of range(kw) with (length, parent, letter)."""
    perms = {tuple(range(kw)): (0, None, None)}
    frontier = [tuple(range(kw))]
    while frontier:
        nxt = []
        for p in frontier:
            l = perms[p][0]
            for i in range(kw - 1):
                if p[i] < p[i + 1]:
                    q = p[:i] + (p[i + 1], p[i]) + p[i + 2 :]
                    if q not in perms:
                        perms[q] = (l + 1, p, i)
                        nxt.append(q)
        frontier = nxt
    return perms


def h0_apply(window: Window, terms: dict, block_start: int, kw: int) -> dict:
    """Right multiplication by H_0 = sum (-q)^{l(s)-l(w0)} H_s on a block."""
    if window.wedge is not None:
        raise ValueError("h0_apply expects a tensor window")
    bits = window.b.bits
    if kw <= 1:
        return dict(terms)
    perms = _perms_by_length(kw)
    vecs: dict = {tuple(range(kw)): terms}
    total: dict = {}
    lw0 = kw * (kw - 1) // 2
    for p, (l, parent, letter) in sorted(perms.items(), key=lambda kv: kv[1][0]):
        if parent is not None:
            vecs[p] = _hecke_raw(bits, vecs[parent], block_start + letter)
        sign = Laurent(_raw={l - lw0: (-1) ** ((l - lw0) % 2)})
        for f, c in vecs[p].items():
            addmul(total, f, c, sign)
    return total


def wedge_project(terms: dict, wwin: Window) -> dict:
    """Inverse of oracle.wedge_embed on its image: extract sorted-tail coefficients."""
    if wwin.wedge is None:
        raise ValueError("window has no wedge part")
    return {f: c for f, c in terms.items() if wwin.valid_index(f)}
