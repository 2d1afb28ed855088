"""Windowed Fock spaces.

A window holds the finite basis of a truncated mixed tensor space: entries
of the tensor part bounded by k, optionally followed by a finite q-wedge
tail (strictly decreasing for the V side, strictly increasing for the W
side).  A vector is a term dict {basis index: Laurent}, and every function
here that acts on one returns a new term dict.

Chevalley generators act positionwise through the comultiplication
Delta(E_a) = 1 (x) E_a + E_a (x) K_{a+1,a} and
Delta(F_a) = F_a (x) 1 + K_{a,a+1} (x) F_a, so E twists to the right of the
acting slot and F twists to the left.  They act on tensor windows and
drop every term moved outside the window (the window projection).
"""
from __future__ import annotations

from itertools import combinations, product

from .combinat import Frozen, SignedSeq, wt_signature
from .scalars import Laurent, addmul


class Window(Frozen):
    __slots__ = ("b", "k", "wedge")  # wedge is None, ("V", kw) or ("W", kw)

    def __init__(self, b: SignedSeq, k: int, wedge: tuple | None = None):
        if k <= 0:
            raise ValueError("window level k must be positive")
        if wedge is not None:
            side, kw = wedge
            if side not in ("V", "W") or kw < 0:
                raise ValueError(f"bad wedge spec {wedge}")
        super().__init__(b, k, wedge)

    @property
    def tensor_len(self) -> int:
        return len(self.b)

    @property
    def wedge_len(self) -> int:
        return self.wedge[1] if self.wedge else 0

    def extended(self) -> "Window":
        """The pure tensor window the wedge part embeds into."""
        if self.wedge is None:
            return self
        side, kw = self.wedge
        return Window(self.b.extend(0 if side == "V" else 1, kw), self.k)

    def valid_index(self, f: tuple) -> bool:
        wedge, k = self.wedge, self.k
        mn = len(self.b.bits)
        if len(f) != (mn + wedge[1] if wedge else mn):
            return False
        if f and (max(f) > k or min(f) < -k):
            return False
        if wedge:
            side, kw = wedge
            tail = f[mn:]
            if side == "V":
                return all(tail[i] > tail[i + 1] for i in range(kw - 1))
            return all(tail[i] < tail[i + 1] for i in range(kw - 1))
        return True

    def basis(self):
        rng = range(-self.k, self.k + 1)
        heads = product(rng, repeat=self.tensor_len)
        if self.wedge is None:
            yield from heads
            return
        side, kw = self.wedge
        tails = [
            tuple(sorted(c, reverse=(side == "V")))
            for c in combinations(rng, kw)
        ]
        for h in heads:
            for t in tails:
                yield h + t


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


def wedge_gather(terms: dict, mn: int, side: str, kw: int) -> dict:
    """Wedge coordinates of x H_0 for x = sum c_g M_g on the extended window.

    Let base be the tail of g in ascent order (increasing for V, decreasing
    for W).  Each letter of a reduced word from base to the tail is an
    ascent, so M_g = M_{head+base} H_s, and H_s H_0 = (-q)^{l(s)} H_0
    gives M_g H_0 = (-q)^l M_{head+base} H_0, the wedge vector of the
    sorted tail, where l counts the tail pairs out of ascent order.  A
    tail with a repeated entry is killed by H_0.
    """
    desc = side == "V"
    out: dict = {}
    for g, c in terms.items():
        tail = g[mn:]
        if len(set(tail)) < kw:
            continue
        l = sum((x > y) == desc for i, x in enumerate(tail) for y in tail[i + 1 :])
        v = c.shift(l)
        addmul(out, g[:mn] + tuple(sorted(tail, reverse=desc)), -v if l % 2 else v)
    return out
