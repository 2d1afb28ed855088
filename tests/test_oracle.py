"""Independent validators: Hecke KL engine, rank-2 forms, uniqueness."""
from itertools import permutations

import pytest

from bklkit import oracle
from bklkit.barinv import BarContext
from bklkit.combinat import SignedSeq, Window
from bklkit.oracle import (
    HeckeElt,
    brute_bar_uniqueness,
    kl_basis,
    perm_bruhat_leq,
    perm_inversions,
    q_power,
    rank2_forms,
    reduced_word,
    schur_jimbo_match,
)
from bklkit.scalars import Laurent, ONE, Z_QMQINV, addmul


def test_hecke_relations():
    # quadratic relation and braid relation in S_3
    e = HeckeElt.unit(3)
    h1 = e.times_h(1)
    h1h1 = h1.times_h(1)
    assert h1h1 == e + h1.scale(Laurent({-1: 1, 1: -1}))
    lhs = e.times_h(1).times_h(2).times_h(1)
    rhs = e.times_h(2).times_h(1).times_h(2)
    assert lhs == rhs


def test_bar_on_hecke():
    e = HeckeElt.unit(3)
    h1 = e.times_h(1)
    assert h1.bar() == h1 + e.scale(Z_QMQINV)
    # involution
    x = e.times_h(1).times_h(2) + e.scale(q_power(2))
    assert x.bar().bar() == x


def test_reduced_words():
    assert reduced_word((0, 1, 2)) == []
    w = (2, 1, 0)
    word = reduced_word(w)
    assert len(word) == perm_inversions(w) == 3


def test_perm_bruhat_vs_closure():
    def brute_leq(u, w):
        n = len(w)
        seen = {w}
        frontier = [w]
        while frontier:
            x = frontier.pop()
            for i in range(n):
                for j in range(i + 1, n):
                    y = list(x)
                    y[i], y[j] = y[j], y[i]
                    y = tuple(y)
                    if perm_inversions(y) < perm_inversions(x) and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return u in seen

    for n in (2, 3, 4):
        for u in permutations(range(n)):
            for w in permutations(range(n)):
                assert perm_bruhat_leq(u, w) == brute_leq(u, w)


def test_kl_basis_examples():
    e = (0, 1)
    assert kl_basis(2, e).c == {e: ONE}
    c = kl_basis(2, (1, 0))
    assert c.c == {(1, 0): ONE, (0, 1): q_power(1)}
    w0 = (2, 1, 0)
    c3 = kl_basis(3, w0).c
    # lower coefficients follow the length pattern q^{l(w0)-l(u)}
    for u, coeff in c3.items():
        assert coeff == q_power(3 - perm_inversions(u))


def test_kl_basis_bar_invariant_and_triangular():
    for w in permutations(range(3)):
        c = kl_basis(3, w)
        assert c.bar() == c
        for u, coeff in c.c.items():
            assert perm_bruhat_leq(u, w)
            if u != w:
                assert min(coeff.c) >= 1


def test_schur_jimbo():
    assert schur_jimbo_match(2, (1, 2), 4)
    assert schur_jimbo_match(3, (0, 1, 2), 4)


def test_rank2_forms():
    T, L = rank2_forms("VW", (2, 2), 4)
    assert T == {(2, 2): ONE, (1, 1): q_power(1)}
    assert L[(1, 1)] == Laurent({-1: -1})
    assert L[(0, 0)] == q_power(-2)
    T, L = rank2_forms("VW", (1, 3), 4)
    assert T == L == {(1, 3): ONE}
    T, L = rank2_forms("WV", (0, 0), 3)
    assert T == {(0, 0): ONE, (1, 1): q_power(1)}
    assert L[(2, 2)] == q_power(-2)


def test_brute_uniqueness_windows():
    for bits in ((0, 1), (1, 0), (0, 0), (1, 1)):
        report = brute_bar_uniqueness(Window(SignedSeq(bits), 2))
        assert report["unique"]
        assert report["dimension"] == 25


def test_brute_uniqueness_mixed_rank3():
    # 190 below-diagonal coefficients per window, re-derived from
    # equivariance alone and compared against the recursion
    for bs in ("010", "011", "101"):
        report = brute_bar_uniqueness(Window(SignedSeq.parse(bs), 2))
        assert report["unique"] and report["unknowns"] == 190


def test_brute_uniqueness_rejects_large():
    with pytest.raises(ValueError):
        brute_bar_uniqueness(Window(SignedSeq.parse("0101"), 4))


@pytest.mark.parametrize(
    "g, error",
    [
        ((0, 0), "residual"),  # a below-diagonal entry off by 1
        ((2, 2), "not unitriangular"),  # an entry at an index not below f
        ((1, 1), "diagonal"),  # a diagonal 2
    ],
)
def test_brute_uniqueness_rejects_a_wrong_table_entry(monkeypatch, g, error):
    real = BarContext.row

    def row(self, f):
        out = real(self, f)
        if tuple(f) == (1, 1):
            out = dict(out)
            addmul(out, g, ONE)
        return out

    monkeypatch.setattr(BarContext, "row", row)
    with pytest.raises(AssertionError, match=error):
        brute_bar_uniqueness(Window(SignedSeq.parse("01"), 2))


def test_brute_uniqueness_rejects_an_underdetermined_system(monkeypatch):
    # with E_0 alone the true table still solves every constraint, but
    # the constraints no longer pin it down
    real = oracle._act_raw

    def e0_only(window, terms, kind, a):
        return real(window, terms, kind, a) if (kind, a) == ("E", 0) else {}

    monkeypatch.setattr(oracle, "_act_raw", e0_only)
    with pytest.raises(AssertionError, match="rank 4 of 10 unknowns"):
        brute_bar_uniqueness(Window(SignedSeq.parse("01"), 2))
