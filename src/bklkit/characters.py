"""The q=1 layer: irreducible and tilting characters in Verma characters.

For a Borel chosen by a 0^m1^n-sequence, the multiplicity of a Verma
character in an irreducible (resp. tilting) character is the value at q=1
of a dual-canonical (resp. canonical) coefficient, read through the
weight <-> index dictionary.  Dual columns can have infinite support, so
every expansion carries the window it was computed in.
"""
from __future__ import annotations

from .canonical import CANONICAL, DUAL, _pair_kind, auto_level, column_to_parabolic, engine
from .combinat import (
    SignedSeq,
    f_to_weight,
    format_weight,
    lambda_L,
    lambda_U,
    swap_slots,
    weight_to_f,
)
from .fock import Window
from .scalars import Laurent, ZERO

IRREDUCIBLE = "irreducible"
TILTING = "tilting"


class CharacterExpansion:
    __slots__ = ("b", "kind", "lam", "window", "terms")

    def __init__(self, b: SignedSeq, kind: str, lam: tuple, window: int, terms: dict):
        self.b = b
        self.kind = kind
        self.lam = lam
        self.window = window
        self.terms = terms  # mu (weight tuple in b coordinates) -> int multiplicity

    def mult(self, mu: tuple) -> int:
        return self.terms.get(tuple(mu), 0)

    def to_json(self) -> dict:
        return {
            "b": str(self.b),
            "lambda": format_weight(self.lam),
            "kind": self.kind,
            "window": self.window,
            "terms": [
                {"mu": format_weight(mu), "mult": self.terms[mu]}
                for mu in sorted(self.terms)
            ],
        }


def _expansion(b: SignedSeq, lam: tuple, kind: str, k: int | None) -> CharacterExpansion:
    lam = tuple(lam)
    f = weight_to_f(b, lam)
    k = k if k is not None else auto_level(b, f)
    col = engine(Window(b, k)).column(f, DUAL if kind == IRREDUCIBLE else CANONICAL)
    terms = {}
    for g, c in col.entries.items():
        v = c.ev()
        if v:
            terms[f_to_weight(b, g)] = v
    return CharacterExpansion(b, kind, lam, k, terms)


def irreducible_character(b: SignedSeq, lam: tuple, k: int | None = None) -> CharacterExpansion:
    """[L_b(lam)] = sum of ell(1) [M_b(mu)], within the reported window."""
    return _expansion(b, lam, IRREDUCIBLE, k)


def tilting_character(b: SignedSeq, lam: tuple, k: int | None = None) -> CharacterExpansion:
    """[T_b(lam)] = sum of t(1) [M_b(mu)], within the reported window."""
    return _expansion(b, lam, TILTING, k)


def odd_reflection_check(b: SignedSeq, kappa: int, lam: tuple):
    """A character computed on both sides of an odd reflection must agree.

    Every Verma of the first Borel is rewritten as a Verma of the second
    (index level: a swap of the two distinguished slots).  The rewritten
    expansion and the direct expansion at the reflected highest weight are
    infinite alternating sums that agree as formal characters, so both are
    telescoped into parabolic-N coefficients, where comparison is finite
    and exact on the safe part of the window.  Mismatch raises.
    """
    bp = b.swap(kappa)
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
