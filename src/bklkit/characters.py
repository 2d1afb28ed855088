"""The q=1 layer: irreducible and tilting characters in Verma characters.

For a Borel chosen by a 0^m1^n-sequence, the multiplicity of a Verma
character in an irreducible (resp. tilting) character is the value at q=1
of a dual-canonical (resp. canonical) coefficient, read through the
weight <-> index dictionary.  The column comes from bkl, so it is
descent-checked like every query (canonical.BklEngine.query).  Dual
columns can have infinite support, so every expansion carries the window
it was computed in; verify checks that they agree across odd reflections
(odd_reflection_check).
"""
from __future__ import annotations

from .canonical import CANONICAL, DUAL, bkl
from .combinat import SignedSeq, f_to_weight, format_weight, weight_to_f

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
    col = bkl(b, f, DUAL if kind == IRREDUCIBLE else CANONICAL, k)
    terms = {}
    for g, c in col.entries.items():
        v = c.ev()
        if v:
            terms[f_to_weight(b, g)] = v
    return CharacterExpansion(b, kind, lam, col.window.k, terms)


def irreducible_character(b: SignedSeq, lam: tuple, k: int | None = None) -> CharacterExpansion:
    """[L_b(lam)] = sum of ell(1) [M_b(mu)], within the reported window."""
    return _expansion(b, lam, IRREDUCIBLE, k)


def tilting_character(b: SignedSeq, lam: tuple, k: int | None = None) -> CharacterExpansion:
    """[T_b(lam)] = sum of t(1) [M_b(mu)], within the reported window."""
    return _expansion(b, lam, TILTING, k)
