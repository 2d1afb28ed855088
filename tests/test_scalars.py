"""Exact arithmetic layer."""
import pytest
from hypothesis import given, strategies as st

from bklkit.barinv import BarContext
from bklkit.combinat import SignedSeq, Window
from bklkit.scalars import (
    Laurent,
    ONE,
    ZERO,
    Z_QMQINV,
    addmul,
    pack,
    unpack,
)
from bklkit.oracle import q_power

Q = Laurent({1: 1})
QINV = Laurent({-1: 1})

laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(Laurent)


def conv(*pairs):
    """sum of x*y over pairs of {exponent: int} dicts, zero coefficients dropped.

    The reference the Laurent arithmetic is checked against: a plain
    convolution over int dicts, with no Laurent and no addmul in it.
    """
    out = {}
    for x, y in pairs:
        for e1, v1 in x.items():
            for e2, v2 in y.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


UNIT = {0: 1}


def test_inexact_input_rejected():
    for bad in ({0: 1.5}, {0.7: 2}, {1: 2.0}):
        with pytest.raises(TypeError):
            Laurent(bad)
    with pytest.raises(TypeError):
        Laurent.from_json({"0": 1.5})
    assert Laurent.from_json({"-1": 3, "2": -1}) == Laurent({-1: 3, 2: -1})


def test_add_examples():
    assert Q + QINV == Laurent({1: 1, -1: 1})
    assert Z_QMQINV + Laurent({-1: 1, 1: -1}) == ZERO
    assert Laurent({0: 1, 1: 1}) + Laurent({0: 1, 1: -1}) == Laurent({0: 2})


def test_mul_examples():
    assert Q * QINV == ONE
    assert Z_QMQINV * (Q + QINV) == Laurent({2: 1, -2: -1})
    two = Q + QINV
    assert two * two == Laurent({2: 1, 0: 2, -2: 1})


def test_shift_examples():
    p = Laurent({-1: 2, 3: -1})
    assert p.shift(0) is p
    assert p.shift(2) == Laurent({1: 2, 5: -1})
    assert ZERO.shift(4) == ZERO


@given(laurents, st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
def test_shift_composes_and_matches_q_power(a, e1, e2):
    assert a.shift(e1) == a * q_power(e1)
    assert a.shift(e1).shift(e2) == a.shift(e1 + e2)


def test_addmul_drops_a_cancelled_key():
    acc = {"x": Laurent({0: 1, 1: 1}), "y": ONE}
    addmul(acc, "x", Laurent({0: -1, 1: -1}))
    assert acc == {"y": ONE}
    addmul(acc, "y", Q, QINV * -1)  # 1 + q * (-q^-1) = 0
    assert acc == {}
    addmul(acc, "z", ZERO)
    addmul(acc, "z", Q, ZERO)
    assert acc == {}
    addmul(acc, "z", Q, Z_QMQINV)
    addmul(acc, "z", Q)
    assert list(acc) == ["z"] and acc["z"] == Laurent({2: 1, 1: 1, 0: -1})


@given(laurents, laurents, laurents)
def test_addmul_never_mutates_its_inputs(stored, x, y):
    # stored and x as the one copy of their value that a BarContext keeps,
    # each held by two rows: an addmul reading them changes no row
    ctx = BarContext(Window(SignedSeq.parse("0"), 1))
    rows = [
        ctx.share({(0,): stored, (1,): x}),
        ctx.share({(1,): Laurent(dict(stored.c)), (0,): Laurent(dict(x.c))}),
    ]
    stored, x = rows[0][(0,)], rows[0][(1,)]
    assert rows[1][(1,)] is stored and rows[1][(0,)] is x
    before = [{g: dict(c.c) for g, c in row.items()} for row in rows]
    snapshot = (dict(stored.c), dict(x.c), dict(y.c))
    acc = {"k": stored} if stored else {}
    addmul(acc, "k", x, y)
    addmul(acc, "k", x)
    assert (dict(stored.c), dict(x.c), dict(y.c)) == snapshot
    assert [{g: dict(c.c) for g, c in row.items()} for row in rows] == before
    want = conv((stored.c, UNIT), (x.c, y.c), (x.c, UNIT))
    assert acc == ({"k": Laurent(want)} if want else {})
    # an absent key with y None may store x itself: rows share coefficients
    fresh = {}
    addmul(fresh, "k", x)
    addmul(fresh, "k", y)
    assert dict(x.c) == snapshot[1]
    want = conv((x.c, UNIT), (y.c, UNIT))
    assert fresh == ({"k": Laurent(want)} if want else {})


@given(laurents, laurents, laurents, st.integers(min_value=-9, max_value=9))
def test_arithmetic_matches_a_reference_convolution(x, y, z, n):
    cx, cy, cz, cn = x.c, y.c, z.c, {0: n} if n else {}
    assert (x + y).c == conv((cx, UNIT), (cy, UNIT))
    assert (x - y).c == conv((cx, UNIT), (cy, {0: -1}))
    assert (x * y).c == conv((cx, cy))
    assert (x * y * z).c == conv((conv((cx, cy)), cz))
    # int operands on either side
    assert (x + n).c == (n + x).c == conv((cx, UNIT), (cn, UNIT))
    assert (x - n).c == conv((cx, UNIT), (cn, {0: -1}))
    assert (n - x).c == conv((cn, UNIT), (cx, {0: -1}))
    assert (x * n).c == (n * x).c == conv((cx, cn))
    # sum() starts at the int 0
    assert sum([x, y, z]).c == conv((cx, UNIT), (cy, UNIT), (cz, UNIT))
    assert sum([]) == ZERO
    acc = {"k": x}
    addmul(acc, "k", y, z)
    addmul(acc, "k", z)
    want = conv((cx, UNIT), (cy, cz), (cz, UNIT))
    assert acc == ({"k": Laurent(want)} if want else {})
    # cancellation gives ZERO, and addmul drops the key
    assert (x + -x) == ZERO and (x - x) == 0 and not (x * y - y * x).c
    acc = {"k": x, "other": ONE}
    addmul(acc, "k", -x)
    assert acc == {"other": ONE}
    addmul(acc, "k", x, y)
    addmul(acc, "k", -x, y)
    assert acc == {"other": ONE}


def test_a_constant_hashes_like_its_int():
    # equal objects hash alike, so a constant is found where its int is
    for v in (0, 1, -1, 3, -2):
        assert Laurent(v) == v and hash(Laurent(v)) == hash(v)
    assert 3 in {Laurent(3)} and 0 in {ZERO} and Laurent(-1) in {-1}
    assert {ONE: "one"}[1] == "one"


def test_bar_examples():
    assert Q.bar() == QINV
    assert Z_QMQINV.bar() == Laurent({-1: 1, 1: -1})


@given(laurents, laurents)
def test_bar_ring_involution(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()
    assert a.bar().bar() == a


@given(laurents, laurents, laurents)
def test_packed_products_and_sums_decode_exactly(x, y, z):
    # every coefficient of x*y + z is at most 6*9*9 + 9 < 2^9 in absolute
    # value and every exponent of x*y lies in [-12, 12]: inside 10-bit lanes
    # at offset 6 per factor, so the packed sum decodes to the Laurent one
    base, off = 10, 6
    assert unpack(pack(x, base, off), base, off) == x
    packed = pack(x, base, off) * pack(y, base, off) + pack(z, base, 2 * off)
    assert unpack(packed, base, 2 * off) == x * y + z
    assert (packed == 0) == (not x * y + z)


def test_evaluation():
    p = Laurent({2: 3, 0: -1, -1: 4})
    assert p.ev() == 6


def test_json_roundtrip():
    p = Laurent({1: 1, -1: -1})
    assert p.to_json() == {"-1": -1, "1": 1}
    assert Laurent.from_json(p.to_json()) == p


def test_big_coefficients_are_exact():
    p = Laurent({1: 10**12, 0: 7})
    q = p * p * p
    assert q.c[3] == 10**36
