"""The windowed bar involution."""
import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from bklkit.barinv import (
    BarContext,
    BarTable,
    _E,
    _NEG,
    _R,
    _chains,
    _decode,
    bar_table,
    wedge_bar_row,
)
from bklkit.combinat import SignedSeq, Window, bruhat_leq
from bklkit.fock import _act_raw
from bklkit.oracle import _nested, bar_row_rl, hecke_act, q_power
from bklkit.scalars import Laurent, ONE, ZERO, Z_QMQINV, addmul
from bklkit.verify import _sequences, equivariance_defect


def tie_row(f, k, step):
    """Closed-form bar row of a tied rank-2 index (step -1 for VW, +1 for WV)."""
    a = f[0]
    row = {f: ONE}
    t = 1
    while abs(a + step * t) <= k:
        d = a + step * t
        row[(d, d)] = Z_QMQINV * q_power(-(t - 1)) * ((-1) ** (t - 1))
        t += 1
    return row


def test_rank2_rows_vw():
    k = 5
    ctx = BarContext(Window(SignedSeq.parse("01"), k))
    assert ctx.row((1, 2)) == {(1, 2): ONE}
    assert ctx.row((2, 1)) == {(2, 1): ONE}
    for a in (-2, 0, 3):
        assert ctx.row((a, a)) == tie_row((a, a), k, -1)


def test_rank2_rows_wv():
    k = 5
    ctx = BarContext(Window(SignedSeq.parse("10"), k))
    assert ctx.row((0, 1)) == {(0, 1): ONE}
    for a in (-2, 0, 3):
        assert ctx.row((a, a)) == tie_row((a, a), k, +1)


def test_rank2_row_vv():
    ctx = BarContext(Window(SignedSeq.parse("00"), 4))
    assert ctx.row((1, 2)) == {(1, 2): ONE}
    assert ctx.row((2, 1)) == {(2, 1): ONE, (1, 2): Z_QMQINV}


def hecke_bar_row(bits, k, f):
    """Independent oracle on pure tensor blocks: bar through the Hecke algebra."""
    w = Window(SignedSeq(bits), k)
    vtype = bits[0] == 0
    base = tuple(sorted(f, reverse=not vtype))
    used = [False] * len(f)
    perm = []
    for v in f:
        for idx, bv in enumerate(base):
            if bv == v and not used[idx]:
                used[idx] = True
                perm.append(idx)
                break
    p = list(perm)
    word = []
    for _ in range(sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])):
        for j in range(len(p) - 1):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                word.append(j)
                break
    word.reverse()
    v = {base: ONE}
    for i in word:
        # v H_i^-1 = v H_i + (q - q^-1) v
        nxt = hecke_act(w, v, i + 1)
        for g, c in v.items():
            addmul(nxt, g, c, Z_QMQINV)
        v = nxt
    return v


def test_pure_blocks_match_hecke_oracle():
    k = 4
    for bits in ((0, 0, 0), (1, 1, 1), (0, 0, 0, 0), (1, 1, 1, 1)):
        ctx = BarContext(Window(SignedSeq(bits), k))
        for f in permutations(range(1, len(bits) + 1)):
            assert ctx.row(f) == hecke_bar_row(bits, k, f), (bits, f)


def test_single_factor_table_is_identity():
    win = Window(SignedSeq.parse("0"), 3)
    t = bar_table(win)
    for f, row in t.rows.items():
        assert row == {f: ONE}


def test_involution_identity_all_rank_le_3():
    for n in range(1, 4):
        for bits in product((0, 1), repeat=n):
            t = bar_table(Window(SignedSeq(bits), 2))  # raises on defect
            t.check_unitriangular()


def test_involution_identity_geometric_series():
    # the (t,t)-chain on the VW window telescopes to delta
    win = Window(SignedSeq.parse("01"), 3)
    t = bar_table(win)
    assert t.involution_defect() is None


def test_stability_in_k():
    # pi_k of the bigger table equals the smaller table on shared rows: a
    # bar row at level k is the k-box restriction of the same row at a
    # higher level, so the solves at both levels read the same rows on the
    # box, and the k-box is order-convex (CONVENTIONS.md, "Truncation"):
    # bkl's column at level k is the bigger column cut to the box.  k
    # against k + 1 for every sequence with m+n <= 3 at k <= 3, and k = 2
    # against k = 4 on two sequences
    cases = [
        (bits, k, k + 1)
        for size in range(1, 4)
        for bits in product((0, 1), repeat=size)
        for k in range(1, 4)
    ]
    cases += [((0, 1), 2, 4), ((0, 1, 0), 2, 4)]
    n = 0
    for bits, k, big_k in cases:
        small = BarContext(Window(SignedSeq(bits), k))
        big = BarContext(Window(SignedSeq(bits), big_k))
        for f in Window(SignedSeq(bits), k).basis():
            brow = {
                g: c for g, c in big.row(f).items() if max(abs(v) for v in g) <= k
            }
            assert brow == small.row(f), (bits, k, big_k, f)
            n += 1
    assert n == 4322 + 25 + 125


def test_tensor_order_independence():
    for bits in ((0, 1), (1, 0), (0, 1, 1), (1, 0, 0), (0, 1, 0, 1)):
        win = Window(SignedSeq(bits), 2)
        ctx = BarContext(win)
        for f in win.basis():
            assert bar_row_rl(win, f) == ctx.row(f), (bits, f)


def test_equivariance_and_k_twist():
    rng = random.Random(9)
    k = 4
    for bits in ((0, 1), (0, 0, 1), (1, 0, 1)):
        ctx = BarContext(Window(SignedSeq(bits), k))
        for _ in range(6):
            f = tuple(rng.randint(-2, 2) for _ in bits)
            for a in range(-2, 2):
                assert equivariance_defect(ctx, f, a) is None
    # psi(K_a x) = K_a^{-1} psi(x): rows stay in one weight class
    ctx = BarContext(Window(SignedSeq.parse("01"), 3))
    from bklkit.fock import wt_signature

    for f in [(1, 1), (0, 2)]:
        sig = wt_signature(SignedSeq.parse("01"), f)
        for g in ctx.row(f):
            assert wt_signature(SignedSeq.parse("01"), g) == sig


def test_strict_descent():
    from bklkit.combinat import bruhat_leq

    for bits in ((0, 1, 0), (1, 1, 0)):
        b = SignedSeq(bits)
        ctx = BarContext(Window(b, 2))
        for f in Window(b, 2).basis():
            for g in ctx.row(f):
                assert g == f or bruhat_leq(b, g, f)


def test_wedge_bar_vacuum_reduces_to_tensor():
    # a wedge tail frozen at the vacuum adds nothing to the tensor bar
    b = SignedSeq.parse("01")
    k = 3
    wwin = Window(b, k, ("W", 1))
    ctx = BarContext(wwin.extended())
    tctx = BarContext(Window(SignedSeq.parse("011"), k))
    for f in [(1, 1), (0, 2)]:
        row = wedge_bar_row(wwin, ctx, f + (3,))
        trow = tctx.row(f + (3,))
        kept = {g: c for g, c in trow.items() if g[2] == 3 or True}
        # kw = 1 wedge is literally one more tensor factor
        assert row == kept


def test_wedge_bar_minuscule_identity():
    # pure wedge blocks are bar-fixed
    b = SignedSeq.parse("")
    wwin = Window(b, 3, ("V", 2))
    ctx = BarContext(wwin.extended())
    for idx in wwin.basis():
        assert wedge_bar_row(wwin, ctx, idx) == {idx: ONE}
    wwin2 = Window(b, 2, ("W", 3))
    ctx2 = BarContext(wwin2.extended())
    for idx in wwin2.basis():
        assert wedge_bar_row(wwin2, ctx2, idx) == {idx: ONE}


def test_wedge_bar_table_and_unitriangularity():
    wwin = Window(SignedSeq.parse("0"), 3, ("W", 2))
    t = bar_table(wwin)
    t.check_unitriangular()
    assert t.involution_defect() is None


def test_bar_table_json():
    t = bar_table(Window(SignedSeq.parse("0"), 1))
    data = t.to_json()
    assert data["b"] == "0" and data["k"] == 1
    assert data["rows"]["1"] == {"1": {"0": 1}}


def test_embedded_rank2_pair_with_spectators():
    # one tied mixed pair inside a larger tensor; every other entry is
    # inert (sorted with its own type and out of reach of the tie chain
    # within the window): the row is the rank-2 pattern with spectators
    # riding along
    k = 4
    cases = [
        # (bits, f, active positions, tie value, step)
        ((0, 1, 0), (0, 0, 4), (0, 1), 0, -1),
        ((1, 1, 0), (4, 0, 0), (1, 2), 0, +1),
        ((0, 1, 1), (0, 0, -4), (0, 1), 0, -1),
        ((1, 0, 1), (0, 0, -4), (0, 1), 0, +1),
        ((0, 0, 1, 0), (-4, 1, 1, 4), (1, 2), 1, -1),
    ]
    for bits, f, (i, j), a, step in cases:
        ctx = BarContext(Window(SignedSeq(bits), k))
        expect = {f: ONE}
        t = 1
        while abs(a + step * t) <= k:
            d = a + step * t
            g = list(f)
            g[i] = g[j] = d
            expect[tuple(g)] = Z_QMQINV * q_power(-(t - 1)) * ((-1) ** (t - 1))
            t += 1
        assert ctx.row(f) == expect, (bits, f)
    # a genuinely generic index (no tie, pure parts sorted) is bar-fixed
    ctx = BarContext(Window(SignedSeq((0, 1, 0)), 4))
    assert ctx.row((-2, 3, 1)) == {(-2, 3, 1): ONE}


def reference_involution_defect(rows):
    """The involution check in plain Laurent arithmetic, as a witness."""
    for f, row_f in rows.items():
        acc = {}
        for h, rhf in row_f.items():
            if h not in rows:
                continue
            for g, rgh in rows[h].items():
                s = acc.get(g, ZERO) + rgh * rhf.bar()
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


Q_ONE_PLUS = Laurent({0: 1, 1: 1})


def corrupted(table, f, g, value):
    rows = {h: dict(row) for h, row in table.rows.items()}
    rows[f][g] = value
    return BarTable(table.window, rows)


def test_involution_defect_reports_a_corrupt_diagonal():
    t = bar_table(Window(SignedSeq.parse("01"), 2))
    f = next(iter(t.rows))  # (-2, -2): its row is {f: 1}, and it is checked first
    bad = corrupted(t, f, f, Q_ONE_PLUS)
    assert bad.involution_defect() == (f, f, Laurent({1: 1, 0: 2, -1: 1}))
    for f in [(0, 0), (2, 2), (1, -1)]:
        bad = corrupted(t, f, f, Q_ONE_PLUS)
        assert bad.involution_defect() == reference_involution_defect(bad.rows)
        assert bad.involution_defect() is not None


def test_involution_defect_reports_an_extra_off_diagonal_term():
    t = bar_table(Window(SignedSeq.parse("01"), 2))
    f = next(iter(t.rows))
    g = (1, 2)  # bar-fixed: its row is {g: 1}
    assert t.rows[g] == {g: ONE}
    assert corrupted(t, f, g, ONE).involution_defect() == (g, f, Laurent(2))
    t3 = bar_table(Window(SignedSeq.parse("010"), 1))
    for f, g in [((1, 1, 0), (0, 0, 0)), ((0, 0, 1), (-1, 1, 1)), ((1, 0, -1), (0, 0, 0))]:
        bad = corrupted(t3, f, g, Laurent({1: 1}))
        got = bad.involution_defect()
        assert got is not None and got == reference_involution_defect(bad.rows), (f, g)


def test_involution_defect_takes_a_stored_zero_value():
    t = bar_table(Window(SignedSeq.parse("01"), 2))
    for f in [next(iter(t.rows)), (0, 0), (2, 2)]:
        bad = corrupted(t, f, (1, 2), ZERO)
        assert bad.involution_defect() == reference_involution_defect(bad.rows) is None, f


def test_involution_defect_reports_the_first_of_several_defects():
    # two corrupt entries of one row leave several nonzero sums; the first
    # reported is the first in the order the sums were entered, as in
    # the Laurent-valued reference
    q = Laurent({1: 1})
    t3 = bar_table(Window(SignedSeq.parse("010"), 1))
    f = (1, 1, 0)
    bad = corrupted(corrupted(t3, f, (0, 0, 0), q), f, (-1, 1, 1), q)
    got = bad.involution_defect()
    assert got == reference_involution_defect(bad.rows) == ((0, 1, 1), f, Laurent({2: 1, 0: -1}))
    # a wedge table, whose rows are in basis order, not in build order
    tw = bar_table(Window(SignedSeq.parse("01"), 2, ("V", 2)))
    f = (0, -2, -1, -2)
    bad = corrupted(corrupted(tw, f, (-1, 2, 2, 0), q), f, (0, 0, 0, -1), q)
    got = bad.involution_defect()
    assert got == reference_involution_defect(bad.rows) == ((-2, -2, 0, -1), f, Laurent({1: -1, -1: 1}))
    # a partial sum at (-1, 0, 0) reaches 0 and re-enters after (-1, 1, 1),
    # so a sum that kept its zeros in place would report (-1, 0, 0) first
    bad = corrupted(t3, (0, 0, -1), (-1, 0, 0), Z_QMQINV)
    got = bad.involution_defect()
    assert got == reference_involution_defect(bad.rows) and got[0] == (-1, 1, 1)


def test_check_unitriangular_rejects_a_non_lower_entry():
    t = bar_table(Window(SignedSeq.parse("01"), 2))
    f = next(iter(t.rows))
    with pytest.raises(AssertionError, match="non-lower index"):
        corrupted(t, f, (1, 2), ONE).check_unitriangular()
    with pytest.raises(AssertionError, match="diagonal"):
        corrupted(t, (0, 0), (0, 0), Q_ONE_PLUS).check_unitriangular()
    # (-3, -3) is Bruhat-below f = (-2, -2): a packed range widened to fit
    # the entry would pass it, the window's own range [-2, 2] refuses it
    assert f == (-2, -2) and bruhat_leq(t.window.b, (-3, -3), f)
    with pytest.raises(ValueError, match=re.escape("leaves the packed range [-2, 2]")):
        corrupted(t, f, (-3, -3), ONE).check_unitriangular()
    # the first entry that is not below its row's index is reported, here
    # the fifth of row (1, 1), which is not the table's first row
    f = (1, 1)
    bad = corrupted(corrupted(t, f, (2, 2), ONE), f, (1, 2), ONE)
    assert list(bad.rows[f]) == [f, (-2, -2), (-1, -1), (0, 0), (2, 2), (1, 2)]
    with pytest.raises(AssertionError, match=re.escape(f"bar row {f} hits non-lower index (2, 2)")):
        bad.check_unitriangular()


def test_bar_row_rejects_an_index_entry_that_is_not_an_int():
    ctx = BarContext(Window(SignedSeq.parse("01"), 2))
    for f in [(1.5, 0), (1.0, 0), (0, 2.0)]:
        with pytest.raises(ValueError, match=re.escape(f"index {f} not in window")):
            ctx.row(f)
    with pytest.raises(ValueError, match=re.escape("index (3, 0) not in window")):
        ctx.row((3, 0))
    assert set(ctx._rows) == {()}


def digest_windows():
    """Every tensor window with m+n <= 3 at k <= 3, every wedge window with
    m+n <= 2, kw <= 2 at k <= 2, then every kw = 3 wedge window with
    m+n <= 1 at k <= 2; keyed "b|k|side:kw"."""
    for b in _sequences(3, 1):
        for k in range(1, 4):
            yield f"{b}|{k}|", Window(b, k)
    for b in _sequences(2):
        for side in ("V", "W"):
            for kw in (1, 2):
                for k in (1, 2):
                    yield f"{b}|{k}|{side}:{kw}", Window(b, k, (side, kw))
    for b in _sequences(1):
        for side in ("V", "W"):
            for k in (1, 2):
                yield f"{b}|{k}|{side}:3", Window(b, k, (side, 3))


def test_bar_tables_match_recorded_digests():
    # sha256 of each table's sorted JSON, recorded before the bar kernel
    # reused cached brackets, shifted twists and checked the involution in
    # integers; any change in any coefficient of any row shows here
    want = json.loads((Path(__file__).parent / "bar_table_digests.json").read_text())
    got = {
        key: hashlib.sha256(
            json.dumps(bar_table(win).to_json(), sort_keys=True).encode()
        ).hexdigest()
        for key, win in digest_windows()
    }
    assert got == want


def test_packed_involution_check_carries_big_coefficients():
    # the Kronecker base is sized from the table itself: a corrupt value of
    # 2^70 squares to 2^140 on the diagonal, past any fixed machine word
    t = bar_table(Window(SignedSeq.parse("01"), 2))
    f = next(iter(t.rows))  # its row is {f: 1}
    big = 2**70
    for value in (Laurent(big), Laurent({0: big, 1: -1}), Laurent({-1: big, 1: big})):
        bad = corrupted(t, f, f, value)
        assert bad.involution_defect() == reference_involution_defect(bad.rows)
    assert corrupted(t, f, f, Laurent(big)).involution_defect() == (f, f, Laurent(big**2))
    g = (1, 2)  # bar-fixed
    bad = corrupted(t, f, g, Laurent({2: -big, -3: 3}))
    got = bad.involution_defect()
    assert got == reference_involution_defect(bad.rows) == (g, f, Laurent({2: -big, -2: -big, 3: 3, -3: 3}))


def test_packed_involution_check_takes_exponents_outside_the_table():
    t = bar_table(Window(SignedSeq.parse("010"), 1))
    span = max(abs(e) for row in t.rows.values() for c in row.values() for e in c.c)
    for f, g in [((1, 1, 0), (0, 0, 0)), ((0, 0, 1), (-1, 1, 1)), ((0, 0, 0), (0, 0, 0))]:
        for e in (span + 1, -span - 5, 3 * span + 7):
            bad = corrupted(t, f, g, q_power(e))
            got = bad.involution_defect()
            assert got is not None and got == reference_involution_defect(bad.rows), (f, g, e)


def test_packed_involution_check_sees_defects_that_vanish_at_a_power_of_two():
    # v + bar(v) = 2 (q - 2^s)(q^-1 - 2^s): the defect's two kinds of terms
    # cancel in every base-2^s digit, so a packing at a fixed base 2^s
    # would read no defect at all
    t = bar_table(Window(SignedSeq.parse("01"), 2))
    f = next(iter(t.rows))
    g = (1, 2)  # bar-fixed, so the defect at (g, f) is v + bar(v)
    for s in range(8, 80, 3):
        v = Laurent({0: 1 + 2 ** (2 * s), 1: -(2 ** (s + 1))})
        bad = corrupted(t, f, g, v)
        want = (g, f, v + v.bar())
        assert sum(c * Fraction(2) ** (s * e) for e, c in want[2].c.items()) == 0
        assert bad.involution_defect() == reference_involution_defect(bad.rows) == want, s


def test_wedge_check_unitriangular_rejects_a_non_lower_entry():
    t = bar_table(Window(SignedSeq.parse("0"), 2, ("W", 2)))
    t.check_unitriangular()
    f = min(t.rows)
    g = max(t.rows)
    with pytest.raises(AssertionError, match="non-lower index"):
        corrupted(t, f, g, ONE).check_unitriangular()
    with pytest.raises(ValueError, match="length mismatch"):
        corrupted(t, f, (0,), ONE).check_unitriangular()


def test_wedge_bar_table_shares_its_values():
    # one object per distinct value and per distinct index tuple, across
    # every row of the table: tensor rows are interned as they are built,
    # wedge rows through BarContext.share
    for win in (
        Window(SignedSeq.parse("01"), 2, ("V", 2)),
        Window(SignedSeq.parse("0"), 2, ("W", 2)),
        Window(SignedSeq.parse("0101"), 2),
    ):
        rows = bar_table(win).rows.values()
        values = [c for row in rows for c in row.values()]
        assert len({id(c) for c in values}) == len(set(values)) < len(values), win
        keys = [g for row in rows for g in row]
        assert len({id(g) for g in keys}) == len(set(keys)) < len(keys), win


def nested_bracket(win, terms, i, j, up):
    """R(i,j) (up) or S(i,j) applied to terms by the q^-1-commutator recursion."""
    return _nested(lambda t, a: _act_raw(win, t, "E", a), i, j, terms, up)


def chain_brackets(bits, terms, c, up, k):
    """Every bracket of the move from c applied to terms by the chain rule, by d."""
    out: dict = {}
    for g, coef in terms.items():
        chain = _chains(bits, g, c, up, k, {})
        for key, code in zip(chain[::2], chain[1::2]):
            h, d = key[:-1], key[-1]
            e, neg, r = _decode(code)
            t = coef
            for _ in range(r - 1):
                t = t * Z_QMQINV
            t = t.shift(e)
            addmul(out.setdefault(d, {}), h, -t if neg else t)
    return out


def test_chain_rule_matches_nested_brackets_on_every_monomial():
    # every monomial of every tensor window with m+n <= 3 at k <= 3, every
    # i < j, both families: R(i,j) is the move i -> j of a V last factor,
    # S(i,j) the move j -> i of a W last factor
    cases = 0
    for rank in range(1, 4):
        for bits in product((0, 1), repeat=rank):
            for k in range(1, 4):
                win = Window(SignedSeq(bits), k)
                for g in win.basis():
                    for up in (True, False):
                        for c in range(-k, k + 1):
                            got = chain_brackets(bits, {g: ONE}, c, up, k)
                            for d in range(c + 1, k + 1) if up else range(-k, c):
                                want = nested_bracket(win, {g: ONE}, min(c, d), max(c, d), up)
                                assert got.get(d, {}) == want, (bits, k, g, c, d)
                                cases += 1
    assert cases == 147816


def test_chain_rule_matches_nested_brackets_on_random_sums():
    rng = random.Random(1313)
    for _ in range(300):
        bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(4, 5)))
        k = rng.randint(2, 3)
        win = Window(SignedSeq(bits), k)
        terms: dict = {}
        for _ in range(rng.randint(1, 8)):
            g = tuple(rng.randint(-k, k) for _ in bits)
            addmul(terms, g, Laurent({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(2)}))
        up = rng.random() < 0.5
        c = rng.randint(-k, k)
        got = chain_brackets(bits, terms, c, up, k)
        for d in range(c + 1, k + 1) if up else range(-k, c):
            assert got.get(d, {}) == nested_bracket(win, terms, min(c, d), max(c, d), up), (bits, k, c, d)


class ReferenceRows:
    """Bar rows by the bracket recursion on _act_raw passes, as a witness.

    Appends each factor as bar(x (x) y_c) = bar(x) (x) y_c + (q - q^-1)
    sum_d (bracket of c -> d) bar(x) (x) y_d, every bracket through
    _nested on the prefix window.
    """

    def __init__(self, window):
        self.bits, self.k = window.b.bits, window.k
        self.rows = {(): {(): ONE}}

    def row(self, f):
        if f not in self.rows:
            prefix, c = f[:-1], f[-1]
            base = self.row(prefix)
            out = {g + (c,): v for g, v in base.items()}
            up = self.bits[len(prefix)] == 0
            win = Window(SignedSeq(self.bits[: len(prefix)]), self.k)
            for d in range(c + 1, self.k + 1) if up else range(-self.k, c):
                for g, v in nested_bracket(win, base, min(c, d), max(c, d), up).items():
                    addmul(out, g + (d,), v, Z_QMQINV)
            self.rows[f] = out
        return self.rows[f]


def test_rows_match_the_bracket_recursion_on_rank_4_windows():
    for bits in product((0, 1), repeat=4):
        win = Window(SignedSeq(bits), 2)
        ctx, ref = BarContext(win), ReferenceRows(win)
        for f in win.basis():
            assert ctx.row(f) == ref.row(f), (bits, f)


def chain_memo_windows():
    # a rank-4 tensor window and the extended context of a wedge window
    return (Window(SignedSeq.parse("0011"), 2), Window(SignedSeq.parse("01"), 2, ("V", 2)).extended())


def test_memoized_rows_do_not_depend_on_the_build_order():
    # full-length rows read the chain memo that earlier rows filled, so
    # rows built in basis order and in reverse basis order, each on a
    # fresh context, must agree with each other and with the
    # right-to-left recursion
    for win in chain_memo_windows():
        basis = list(win.basis())
        forward, backward = BarContext(win), BarContext(win)
        rows = {f: forward.row(f) for f in basis}
        rows_back = {f: backward.take(f) for f in reversed(basis)}
        assert forward._chain_memo and backward._chain_memo
        for f in basis:
            assert rows[f] == rows_back[f] == bar_row_rl(win, f), (win, f)


def test_chain_memo_scans_each_pair_once(monkeypatch):
    from bklkit import barinv

    scans: list = []

    def counted(bits, g, c, up, k, keys):
        scans.append((len(g) + 1 == len(bits), g, c))
        return _chains(bits, g, c, up, k, keys)

    monkeypatch.setattr(barinv, "_chains", counted)
    for win in chain_memo_windows():
        scans.clear()
        ctx = BarContext(win)
        basis = list(win.basis())
        for f in basis + basis[::-1]:
            ctx.take(f)
        pairs = {g + (f[-1],) for f in basis for g in ctx.row(f[:-1])}
        full = [g + (c,) for last, g, c in scans if last]
        # one entry and one scan per distinct (g, c), keyed by g + (c,)
        assert set(ctx._chain_memo) == set(full) == pairs
        assert len(full) == len(pairs)
        for chain in ctx._chain_memo.values():
            assert type(chain) is tuple and len(chain) % 2 == 0
            # every key is the context's one copy of it, every code an int
            assert all(ctx._keys[h] is h for h in chain[::2])
            assert all(type(code) is int for code in chain[1::2])


def test_chain_codes_round_trip():
    # e of either sign, neg, and every r up to the largest a code holds
    for e in (-(2**40), -300, -129, -128, -1, 0, 1, 127, 128, 300, 2**40):
        for neg in (0, 1):
            for r in range(1, _R + 1):
                assert _decode(e * _E + neg * _NEG + r) == (e, neg, r)
    # a chain has at most min(m + n - 1, 2k) slots, and pure windows
    # reach the bound on either side of the minimum
    for seq, k in (("0000", 3), ("00000", 1), ("1111", 3)):
        bits = SignedSeq.parse(seq).bits
        longest = 0
        for g in Window(SignedSeq(bits[:-1]), k).basis():
            for c in range(-k, k + 1):
                chain = _chains(bits, g, c, bits[-1] == 0, k, {})
                longest = max([longest] + [_decode(code)[2] for code in chain[1::2]])
        assert longest == min(len(bits) - 1, 2 * k), (seq, k)
    with pytest.raises(ValueError, match="longer than a code holds"):
        BarContext(Window(SignedSeq((0,) * 129), 64))
    BarContext(Window(SignedSeq((0,) * 129), 63))
