"""Index-level combinatorics.

0^m1^n-sequences, windows (the finite basis of a truncated mixed Fock
space: tensor entries bounded by k, then an optional finite q-wedge tail),
integer weight functions and the Bruhat ordering attached to a sequence,
Weyl vectors and the weight <-> index dictionaries, and the partition
bookkeeping behind semi-infinite wedge tails.

Positions are 1-based in the public API, mirroring the indexing [m+n];
weight functions are plain int tuples.
"""
from __future__ import annotations

from itertools import combinations, product
from operator import getitem

Weight = tuple  # tuple[int, ...]


class Frozen:
    """An immutable record whose fields are the names in its __slots__.

    == holds only against the same class with equal fields, the hash is
    the hash of the field tuple, the repr reads Name(field=value, ...), and
    assigning or deleting a field raises AttributeError.  The methods are
    written out rather than generated, so that starting the CLI imports no
    code generator (and through it inspect).
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), self._fields()


class SignedSeq(Frozen):
    """A 0^m1^n-sequence: m zeros (V slots) and n ones (W slots)."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple):
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        super().__init__(bits)

    @classmethod
    def parse(cls, text: str) -> "SignedSeq":
        text = text.strip()
        if text in ("", "-"):
            return cls(())
        return cls(tuple(parse_int(ch) for ch in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def sign(self, i: int) -> int:
        """(-1)^{b_i}, 1-based position."""
        return -1 if self.bits[i - 1] else 1

    def extend(self, bit: int, count: int) -> "SignedSeq":
        return SignedSeq(self.bits + (bit,) * count)


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
        """f is an index of the window: one entry per slot, each an int in
        [-k, k], and a strict wedge tail.  An entry that is not an int (a
        float, a Fraction) makes sum(f) a float or a Fraction, so one test
        of the sum's type refuses it."""
        wedge, k = self.wedge, self.k
        mn = len(self.b.bits)
        if len(f) != (mn + wedge[1] if wedge else mn):
            return False
        if f and (type(sum(f)) is not int or max(f) > k or min(f) < -k):
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


def bruhat_leq(b: SignedSeq, g: Weight, f: Weight) -> bool:
    """g <= f in the Bruhat ordering of type b (sharp characterization).

    sharp(g, a, j) is the sum of (-1)^{b_i} over the 1-based i >= j with
    g(i) <= a; g <= f iff sharp(g, a, j) <= sharp(f, a, j) for all a, j,
    with equality at j = 1.
    """
    bits = b.bits
    p = len(bits)
    if len(g) != p or len(f) != p:
        raise ValueError("length mismatch")
    if p == 0:
        return True
    # no weight test needed: the signed multiplicity of v is sharp(., v, 1)
    # - sharp(., v-1, 1), so the j = 1 equalities below force equal weights
    lo = min(min(g), min(f)) - 1
    hi = max(max(g), max(f))
    for a in range(lo, hi + 1):
        sg = sf = 0
        # suffix scan: sharp(., a, j) built from the right
        for j in range(p, 0, -1):
            s = -1 if bits[j - 1] else 1
            if g[j - 1] <= a:
                sg += s
            if f[j - 1] <= a:
                sf += s
            if j > 1 and sg > sf:
                return False
        if sg != sf:  # j = 1 demands equality
            return False
    return True


class SharpPack:
    """The sharp statistic of an index packed into one int, for many comparisons.

    Lane (a, j), for lo <= a < hi and j = 1..p, holds sharp(g, a, j) in W
    bits, where 2^(W-1) > p; levels outside [lo, hi) carry no information
    for indices with entries in [lo, hi] (sharp is 0 below lo, and the full
    suffix sum from hi on).  pack(g) = sum_i s_i T[i][g_i], with T[i][v]
    one unit in every lane with a >= v and j <= i.

    g <= f in the order of bruhat_leq iff D & MASK == GUARD, where D =
    GUARD + pack(f) - pack(g), GUARD is the top bit of every lane and MASK
    the guard bits and every bit of the j = 1 lanes: every lane difference
    d = sharp(f) - sharp(g) lies in [-p, p] (both sum the signs of the same
    p - j + 1 slots, each with a subset of them), so D holds 2^(W-1) + d in
    each lane with no carry or borrow between lanes.  The top bit of a lane
    of D is set iff d >= 0, and the lane equals 2^(W-1) iff d = 0, which
    the j = 1 lanes must satisfy.  There is no method for the test: its
    callers, which test many pairs, inline that expression with guard and
    mask read once (BklEngine.query, BarTable.check_unitriangular and
    verify's triangularity suite).  bruhat_leq stays the reference scan and
    the path for single comparisons.

    Lane (a, j) starts at bit W ((a - lo) p + j - 1).  The tables take
    O(p (hi - lo)) big-int adds: per i, the units of lanes j <= i at one
    level, shifted to each level and summed from hi down.  Each is a dict
    {v: s_i T[i][v]} over lo <= v <= hi, so pack is one lookup per slot,
    and an entry outside [lo, hi] fails its lookup, which pack reports as
    a ValueError naming the packed range.
    """

    def __init__(self, b: SignedSeq, lo: int, hi: int):
        bits = b.bits
        p = len(bits)
        width = p.bit_length() + 1
        stride = width * p  # the bits of one level a
        first = sum(1 << (stride * a) for a in range(hi - lo))  # a unit in every lane (a, 1)
        self.lo, self.hi, self.p = lo, hi, p
        self.guard = first * sum(1 << (width * j + width - 1) for j in range(p))
        self.mask = self.guard | ((1 << width) - 1) * first
        self._tables = []  # per slot i, {v: s_i T[i][v]} for lo <= v <= hi
        column = 0  # a unit in lanes (lo, j) for j <= i
        for i in range(p):
            column += 1 << (width * i)
            acc, table = 0, [0]  # s_i T[i][v] for v = hi down to lo
            for a in range(hi - lo - 1, -1, -1):
                acc += column << (stride * a)
                table.append(-acc if bits[i] else acc)
            self._tables.append(dict(zip(range(hi, lo - 1, -1), table)))

    def pack(self, g: Weight) -> int:
        if len(g) != self.p:
            raise ValueError("length mismatch")
        try:
            return sum(map(getitem, self._tables, g))
        except KeyError:
            raise ValueError(f"index {g} leaves the packed range [{self.lo}, {self.hi}]") from None


# ---------------------------------------------------------------------------
# Weyl vectors and the weight <-> index dictionary
# ---------------------------------------------------------------------------


def weyl_rho(b: SignedSeq) -> Weight:
    """Normalized Weyl vector in b-ordered eps coordinates.

    Characterized by (rho|beta) = (beta|beta)/2 on simple roots and the
    boundary value at the last slot (1 for a V slot, 0 for a W slot).
    """
    p = len(b)
    if p == 0:
        return ()
    rho = [0] * p
    rho[p - 1] = 0 if b.bits[p - 1] else 1
    for i in range(p - 2, -1, -1):
        if b.bits[i] == b.bits[i + 1]:
            rho[i] = rho[i + 1] + 1
        else:
            rho[i] = -rho[i + 1]
    return tuple(rho)


def weight_to_f(b: SignedSeq, lam: Weight) -> Weight:
    """f(i) = (lam + rho_b | eps_i^b), with (eps_i^b|eps_i^b) = (-1)^{b_i}."""
    rho = weyl_rho(b)
    return tuple(
        (lam[i] + rho[i]) * (-1 if b.bits[i] else 1) for i in range(len(b))
    )


def f_to_weight(b: SignedSeq, f: Weight) -> Weight:
    rho = weyl_rho(b)
    return tuple(
        f[i] * (-1 if b.bits[i] else 1) - rho[i] for i in range(len(b))
    )


# ---------------------------------------------------------------------------
# Partitions and semi-infinite wedge tails
# ---------------------------------------------------------------------------


def check_partition(parts: tuple):
    if any(p <= 0 for p in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        raise ValueError(f"not a partition: {parts}")


def v_tail(parts: tuple, kw: int) -> tuple:
    """First kw entries of the V-side tail: f(u_i) = lam_i + 1 - i."""
    check_partition(parts)
    return tuple((parts[i] if i < len(parts) else 0) + 1 - (i + 1) for i in range(kw))


def w_tail(parts: tuple, kw: int) -> tuple:
    """First kw entries of the W-side tail: f(u_i) = i - lam_i."""
    check_partition(parts)
    return tuple((i + 1) - (parts[i] if i < len(parts) else 0) for i in range(kw))


class WedgeIndex(Frozen):
    """Head in Z^{m+n} plus a semi-infinite tail encoded by a partition."""

    __slots__ = ("head", "side", "parts")  # side is "V" or "W"

    def __init__(self, head: tuple, side: str, parts: tuple):
        if side not in ("V", "W"):
            raise ValueError("side must be V or W")
        check_partition(parts)
        super().__init__(head, side, parts)

    def tail(self, kw: int) -> tuple:
        if kw < len(self.parts):
            raise ValueError("truncation shorter than the partition length")
        return v_tail(self.parts, kw) if self.side == "V" else w_tail(self.parts, kw)

    def flat(self, kw: int) -> tuple:
        return self.head + self.tail(kw)


# ---------------------------------------------------------------------------
# Text encodings
# ---------------------------------------------------------------------------


def parse_int(text: str) -> int:
    """int(text), with a ValueError that quotes text."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"entry {text!r} is not an integer") from None


def parse_weight(text: str) -> Weight:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_int(v) for v in text.split(","))


def format_weight(f: Weight) -> str:
    return ",".join(str(v) for v in f)

