"""Exact scalar arithmetic: integer Laurent polynomials in q, the sparse
accumulate helper addmul and the packed-integer codec pack/unpack.

addmul holds the only loop that adds Laurent coefficients exponent by
exponent; Laurent + and * and the sparse sums over Laurent values call it.
The two hot sums, the bar-table involution check and the triangular solve,
instead add packed ints (pack/unpack) and decode only what they report.

Everything is exact; there is no floating point anywhere in the package.
Coefficients are Python ints, so products of structure constants can grow
past 64 bits without harm.
"""
from __future__ import annotations

from operator import index


def _norm(c: dict) -> dict:
    return {e: v for e, v in c.items() if v}


class Laurent:
    """Integer Laurent polynomial in q.

    Stored sparsely as {exponent: coefficient} with no zero coefficients.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None, *, _raw: dict | None = None):
        if _raw is not None:
            self.c = _raw
        elif coeffs is None:
            self.c = {}
        elif isinstance(coeffs, int):
            self.c = {0: coeffs} if coeffs else {}
        else:
            # operator.index: a float exponent or coefficient is a TypeError
            self.c = _norm({index(e): index(v) for e, v in dict(coeffs).items()})

    # -- basic protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return isinstance(other, Laurent) and self.c == other.c

    def __hash__(self):
        # a constant equals its int, so it must hash like it (ZERO like 0)
        c = self.c
        if not c or (len(c) == 1 and 0 in c):
            return hash(c.get(0, 0))
        return hash(frozenset(c.items()))

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            if e == 0:
                term = str(abs(v))
            else:
                mag = "" if abs(v) == 1 else f"{abs(v)}*"
                term = f"{mag}q^{e}" if e != 1 else f"{mag}q"
            parts.append(("- " if v < 0 else "+ ") + term)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Laurent":
        if isinstance(other, int):
            other = Laurent(other)
        acc = {0: self}
        addmul(acc, 0, other)
        return acc.get(0, ZERO)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent(_raw={e: -v for e, v in self.c.items()})

    def __sub__(self, other) -> "Laurent":
        if isinstance(other, int):
            other = Laurent(other)
        return self + (-other)

    def __rsub__(self, other) -> "Laurent":
        return Laurent(other) + (-self)

    def __mul__(self, other) -> "Laurent":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return Laurent(_raw={e: v * other for e, v in self.c.items()})
        acc: dict = {}
        addmul(acc, 0, self, other)
        return acc.get(0, ZERO)

    __rmul__ = __mul__

    def shift(self, e: int) -> "Laurent":
        """Multiply by q^e; q^0 returns self."""
        if not e:
            return self
        return Laurent(_raw={x + e: v for x, v in self.c.items()})

    # -- structure ----------------------------------------------------------

    def bar(self) -> "Laurent":
        """The involution q -> q^-1 (negate every exponent)."""
        return Laurent(_raw={-e: v for e, v in self.c.items()})

    def ev(self) -> int:
        """The value at q = 1."""
        return sum(self.c.values())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {str(e): self.c[e] for e in sorted(self.c)}

    @classmethod
    def from_json(cls, data: dict) -> "Laurent":
        return cls({int(e): v for e, v in data.items()})


ZERO = Laurent()
ONE = Laurent({0: 1})
Z_QMQINV = Laurent({1: 1, -1: -1})  # q - q^-1


_UNIT = ((0, 1),)  # the coefficient items of ONE


def addmul(acc: dict, key, x: Laurent, y: Laurent | None = None) -> None:
    """acc[key] += x*y (x alone when y is None); a zero sum drops the key.

    The one loop in the package that adds Laurent coefficients: Laurent's
    own + and * run through it, so it never calls them.  The sum is a new
    Laurent: neither x, y nor the value already stored under key is
    mutated, because bar rows and columns share coefficients (one object
    per distinct value within a BarContext).  With y None and no value
    stored, x itself is stored.
    """
    old = acc.get(key)
    if old is None and y is None:
        if x.c:
            acc[key] = x
        return
    c = {} if old is None else dict(old.c)
    for e2, v2 in _UNIT if y is None else y.c.items():
        for e1, v1 in x.c.items():
            e = e1 + e2
            w = c.get(e, 0) + v1 * v2
            if w:
                c[e] = w
            else:
                del c[e]
    if c:
        acc[key] = Laurent(_raw=c)
    else:
        acc.pop(key, None)


def pack(v: Laurent, base: int, offset: int) -> int:
    """v(2^base) 2^(base offset): the coefficient of q^e in lane e + offset.

    Kronecker substitution: a product of packed values is the packed
    product and a sum of them the packed sum, as long as every coefficient
    stays inside the lanes (see unpack and CONVENTIONS.md).
    """
    return sum(c << (base * (e + offset)) for e, c in v.c.items())


def unpack(x: int, base: int, offset: int) -> Laurent:
    """The Laurent polynomial v with pack(v, base, offset) == x.

    Reads balanced digits in [-2^(base-1), 2^(base-1)), lowest first; that
    is the v packed only if its coefficients lie strictly inside that range
    and no exponent is below -offset.
    """
    c = {}
    half, mask = 1 << (base - 1), (1 << base) - 1
    e = -offset
    while x:
        d = x & mask
        if d >= half:
            d -= 1 << base
        if d:
            c[e] = d
        x = (x - d) >> base
        e += 1
    return Laurent(_raw=c)

