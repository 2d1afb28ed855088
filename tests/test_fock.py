"""Windowed Fock spaces: module actions, Hecke action, q-wedges.

Vectors are term dicts {index: Laurent}, as the package passes them.
"""
import random
from itertools import product

import pytest

from bklkit.barinv import BarContext, wedge_gather
from bklkit.combinat import SignedSeq, Window
from bklkit.fock import _act_raw, _weight_classes, h0_apply, wedge_project, wt_signature
from bklkit.oracle import hecke_act, q_power, wedge_embed
from bklkit.scalars import Laurent, ONE, Z_QMQINV, addmul

MINUS_ONE = Laurent(-1)


def lin(*pairs):
    """The linear combination sum c v over (c, v) pairs of term dicts."""
    out = {}
    for c, v in pairs:
        for f, x in v.items():
            addmul(out, f, x, c)
    return out


def test_single_factor_actions():
    w = Window(SignedSeq.parse("0"), 3)
    a = 1
    assert _act_raw(w, {(a + 1,): ONE}, "E", a) == {(a,): ONE}
    assert _act_raw(w, {(a,): ONE}, "F", a) == {(a + 1,): ONE}
    assert _act_raw(w, {(a,): ONE}, "K", a) == {(a,): q_power(1)}
    assert _act_raw(w, {(0,): ONE}, "K", a) == {(0,): ONE}
    ww = Window(SignedSeq.parse("1"), 3)
    assert _act_raw(ww, {(a,): ONE}, "E", a) == {(a + 1,): ONE}
    assert _act_raw(ww, {(a + 1,): ONE}, "F", a) == {(a,): ONE}
    assert _act_raw(ww, {(a,): ONE}, "K", a) == {(a,): q_power(-1)}


def test_coproduct_twist_on_two_fold_tensor():
    # F_a(v_a (x) v_a) has the K-twist on the slot the generator skips
    w = Window(SignedSeq.parse("00"), 3)
    assert _act_raw(w, {(1, 1): ONE}, "F", 1) == {(2, 1): ONE, (1, 2): q_power(1)}
    assert _act_raw(w, {(2, 2): ONE}, "E", 1) == {(2, 1): ONE, (1, 2): q_power(1)}


def test_commutation_relation():
    # (E_a F_b - F_b E_a)(q - q^-1) = delta_ab (K_{a,a+1} - K_{a+1,a}); with
    # no zero divisors in Z[q, q^-1] the product pins the commutator down
    rng = random.Random(0)
    for bits in ((0, 1), (0, 0), (1, 1, 0)):
        w = Window(SignedSeq(bits), 4)
        for _ in range(8):
            v = {tuple(rng.randint(-2, 2) for _ in bits): ONE}
            for a in (-1, 0, 1):
                for b2 in (-1, 0, 1):
                    ef = _act_raw(w, _act_raw(w, v, "F", b2), "E", a)
                    fe = _act_raw(w, _act_raw(w, v, "E", a), "F", b2)
                    lhs = lin((ONE, ef), (MINUS_ONE, fe))
                    if a != b2:
                        assert not lhs
                    else:
                        kk = _act_raw(w, _act_raw(w, v, "Kinv", a + 1), "K", a)
                        kk2 = _act_raw(w, _act_raw(w, v, "Kinv", a), "K", a + 1)
                        assert lin((Z_QMQINV, lhs)) == lin((ONE, kk), (MINUS_ONE, kk2))


def test_serre_relation_spot():
    w = Window(SignedSeq.parse("00"), 4)
    rng = random.Random(1)
    for _ in range(6):
        v = {tuple(rng.randint(-2, 2) for _ in range(2)): ONE}
        a, b2 = 0, 1

        def E(x, i):
            return _act_raw(w, x, "E", i)

        lhs = lin((ONE, E(E(E(v, b2), a), a)), (ONE, E(E(E(v, a), a), b2)))
        rhs = lin((Laurent({1: 1, -1: 1}), E(E(E(v, a), b2), a)))
        assert lhs == rhs


def test_window_overflow():
    w = Window(SignedSeq.parse("0"), 2)
    assert not _act_raw(w, {(2,): ONE}, "F", 2)


def test_wedge_window_has_no_generator_action():
    wwin = Window(SignedSeq.parse("0"), 2, ("V", 2))
    for kind in ("E", "F", "K", "Kinv"):
        with pytest.raises(ValueError, match="tensor window"):
            _act_raw(wwin, {(0, 1, 0): ONE}, kind, 0)


def test_hecke_action_cases():
    w = Window(SignedSeq.parse("00"), 3)
    assert hecke_act(w, {(1, 2): ONE}, 1) == {(2, 1): ONE}
    assert hecke_act(w, {(1, 1): ONE}, 1) == {(1, 1): q_power(-1)}
    assert hecke_act(w, {(2, 1): ONE}, 1) == {(1, 2): ONE, (2, 1): Laurent({1: -1, -1: 1})}


def test_hecke_quadratic_relation():
    # (H_i - q^-1)(H_i + q) = 0
    rng = random.Random(2)
    for bits in ((0, 0), (1, 1), (0, 0, 0)):
        w = Window(SignedSeq(bits), 3)
        for _ in range(6):
            v = {tuple(rng.randint(-2, 2) for _ in bits): ONE}
            h = hecke_act(w, v, 1)
            assert hecke_act(w, h, 1) == lin((Laurent({-1: 1, 1: -1}), h), (ONE, v))


def test_hecke_errors():
    with pytest.raises(ValueError):
        hecke_act(Window(SignedSeq.parse("01"), 2), {(1, 1): ONE}, 1)


def test_hecke_chevalley_commute():
    rng = random.Random(3)
    w = Window(SignedSeq.parse("000"), 3)
    for _ in range(6):
        v = {tuple(rng.randint(-1, 1) for _ in range(3)): ONE}
        for a in (-1, 0):
            for i in (1, 2):
                x = hecke_act(w, _act_raw(w, v, "E", a), i)
                y = _act_raw(w, hecke_act(w, v, i), "E", a)
                assert x == y


def test_h0_small():
    w = Window(SignedSeq.parse("00"), 3)
    # kw = 2: H0 = H1 + (-q)^-1
    assert h0_apply(w, {(1, 3): ONE}, 0, 2) == {(3, 1): ONE, (1, 3): Laurent({-1: -1})}
    # s-fixed rows are killed
    assert not h0_apply(w, {(1, 1): ONE}, 0, 2)


def test_h0_image_is_eigen():
    # The H0 image is an H_i eigenspace: (M H0) H_i = -q (M H0) for every
    # basis M, block size <= 3 (the q^-1-eigenvectors span the kernel).
    minus_q = Laurent({1: -1})
    for kw in (2, 3):
        w = Window(SignedSeq((0,) * kw), 2)
        for f in product(range(-1, 2), repeat=kw):
            v = h0_apply(w, {f: ONE}, 0, kw)
            for i in range(1, kw):
                assert hecke_act(w, v, i) == lin((minus_q, v)), (f, i)
    # q^-1-fixed monomials are killed, matching v ^ v = 0
    w = Window(SignedSeq((1, 1)), 2)
    assert not h0_apply(w, {(1, 1): ONE}, 0, 2)


def test_h0_bar_invariance():
    # bar(H0) = H0, witnessed through bar(M_min H0) = bar(M_min) H0
    w = Window(SignedSeq.parse("00"), 2)
    ctx = BarContext(w)
    for f in [(1, 0), (0, -1), (2, 1)]:
        asc = tuple(sorted(f))
        lhs = h0_apply(w, ctx.row(asc), 0, 2)
        # bar of (M_asc H0) computed row by row
        rhs = {}
        for g, c in h0_apply(w, {asc: ONE}, 0, 2).items():
            cb = c.bar()
            for h, r in ctx.row(g).items():
                addmul(rhs, h, r, cb)
        assert lhs == rhs


def test_wedge_embed_project():
    b = SignedSeq.parse("")
    for side, kw in (("V", 2), ("W", 2), ("V", 3)):
        wwin = Window(b, 3, (side, kw))
        for idx in wwin.basis():
            assert wedge_project(wedge_embed(wwin, idx), wwin) == {idx: ONE}, (side, idx)


def test_wedge_embed_example():
    wwin = Window(SignedSeq.parse(""), 3, ("V", 2))
    assert wedge_embed(wwin, (3, 1)) == {(3, 1): ONE, (1, 3): Laurent({-1: -1})}


def test_project_kills_repeats():
    wwin = Window(SignedSeq.parse(""), 3, ("V", 2))
    assert not wedge_project({(1, 1): ONE}, wwin)


def test_wedge_gather_matches_h0_reference():
    # the closed-form gather against kw! Hecke passes and a projection: every
    # monomial of the extended windows with m+n <= 1, kw <= 3 at k <= 2
    # (repeated tail entries included), then seeded random sums
    rng = random.Random(9)
    for bits in ((), (0,), (1,)):
        for side, kw, k in product("VW", (1, 2, 3), (1, 2)):
            wwin = Window(SignedSeq(bits), k, (side, kw))
            ext = wwin.extended()
            basis = list(ext.basis())
            vecs = [{g: ONE} for g in basis]
            for _ in range(3):
                picks = rng.sample(basis, min(6, len(basis)))
                vecs.append({
                    g: Laurent({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))})
                    for g in picks
                })
            for x in vecs:
                want = wedge_project(h0_apply(ext, x, len(bits), kw), wwin)
                assert wedge_gather(x, len(bits), side, kw) == want, (wwin, x)


def test_window_basis_and_classes():
    w = Window(SignedSeq.parse("01"), 1)
    basis = list(w.basis())
    assert len(basis) == 9
    cls = _weight_classes(w)[wt_signature(w.b, (1, 1))]
    assert set(cls) == {(-1, -1), (0, 0), (1, 1)}
    ww = Window(SignedSeq.parse(""), 2, ("W", 2))
    assert all(t[0] < t[1] for t in ww.basis())
