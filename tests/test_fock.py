"""Windowed Fock spaces: module actions, Hecke action, q-wedges."""
import random
from itertools import product

import pytest

from bklkit.combinat import SignedSeq, wt_signature
from bklkit.fock import (
    FockVector,
    Window,
    _weight_classes,
    h0_apply,
    wedge_gather,
    wedge_project,
)
from bklkit.oracle import apply_gen, hecke_act, q_power, wedge_embed
from bklkit.scalars import Laurent, ONE, ZERO, Z_QMQINV


def mono(win, f, c=ONE):
    return FockVector(win, {tuple(f): c})


def test_single_factor_actions():
    w = Window(SignedSeq.parse("0"), 3)
    a = 1
    assert apply_gen(mono(w, (a + 1,)), "E", a).terms == {(a,): ONE}
    assert apply_gen(mono(w, (a,)), "F", a).terms == {(a + 1,): ONE}
    assert apply_gen(mono(w, (a,)), "K", a).terms == {(a,): q_power(1)}
    assert apply_gen(mono(w, (0,)), "K", a).terms == {(0,): ONE}
    ww = Window(SignedSeq.parse("1"), 3)
    assert apply_gen(mono(ww, (a,)), "E", a).terms == {(a + 1,): ONE}
    assert apply_gen(mono(ww, (a + 1,)), "F", a).terms == {(a,): ONE}
    assert apply_gen(mono(ww, (a,)), "K", a).terms == {(a,): q_power(-1)}


def test_coproduct_twist_on_two_fold_tensor():
    # F_a(v_a (x) v_a) has the K-twist on the slot the generator skips
    w = Window(SignedSeq.parse("00"), 3)
    out = apply_gen(mono(w, (1, 1)), "F", 1)
    assert out.terms == {(2, 1): ONE, (1, 2): q_power(1)}
    out = apply_gen(mono(w, (2, 2)), "E", 1)
    assert out.terms == {(2, 1): ONE, (1, 2): q_power(1)}


def test_commutation_relation():
    # (E_a F_b - F_b E_a)(q - q^-1) = delta_ab (K_{a,a+1} - K_{a+1,a}); with
    # no zero divisors in Z[q, q^-1] the product pins the commutator down
    rng = random.Random(0)
    for bits in ((0, 1), (0, 0), (1, 1, 0)):
        w = Window(SignedSeq(bits), 4)
        for _ in range(8):
            f = tuple(rng.randint(-2, 2) for _ in bits)
            for a in (-1, 0, 1):
                for b2 in (-1, 0, 1):
                    v = mono(w, f)
                    lhs = apply_gen(apply_gen(v, "F", b2), "E", a) - apply_gen(
                        apply_gen(v, "E", a), "F", b2
                    )
                    if a != b2:
                        assert not lhs
                    else:
                        kk = apply_gen(apply_gen(v, "Kinv", a + 1), "K", a)
                        kk2 = apply_gen(apply_gen(v, "Kinv", a), "K", a + 1)
                        assert lhs.scale(Z_QMQINV) == kk - kk2


def test_serre_relation_spot():
    w = Window(SignedSeq.parse("00"), 4)
    rng = random.Random(1)
    for _ in range(6):
        f = tuple(rng.randint(-2, 2) for _ in range(2))
        a, b2 = 0, 1
        v = mono(w, f)

        def E(x, i):
            return apply_gen(x, "E", i)

        lhs = E(E(E(v, b2), a), a) + E(E(E(v, a), a), b2)
        rhs = E(E(E(v, a), b2), a).scale(Laurent({1: 1, -1: 1}))
        assert lhs.terms == rhs.terms


def test_window_overflow():
    w = Window(SignedSeq.parse("0"), 2)
    assert not apply_gen(mono(w, (2,)), "F", 2)


def test_wedge_window_has_no_generator_action():
    wwin = Window(SignedSeq.parse("0"), 2, ("V", 2))
    for kind in ("E", "F", "K", "Kinv"):
        with pytest.raises(ValueError, match="tensor window"):
            apply_gen(mono(wwin, (0, 1, 0)), kind, 0)


def test_hecke_action_cases():
    w = Window(SignedSeq.parse("00"), 3)
    assert hecke_act(mono(w, (1, 2)), 1).terms == {(2, 1): ONE}
    assert hecke_act(mono(w, (1, 1)), 1).terms == {(1, 1): q_power(-1)}
    desc = hecke_act(mono(w, (2, 1)), 1)
    assert desc.terms == {(1, 2): ONE, (2, 1): Laurent({1: -1, -1: 1})}


def test_hecke_quadratic_relation():
    # (H_i - q^-1)(H_i + q) = 0
    rng = random.Random(2)
    for bits in ((0, 0), (1, 1), (0, 0, 0)):
        w = Window(SignedSeq(bits), 3)
        for _ in range(6):
            f = tuple(rng.randint(-2, 2) for _ in bits)
            v = mono(w, f)
            h = hecke_act(v, 1)
            hh = hecke_act(h, 1)
            assert hh == h.scale(Laurent({-1: 1, 1: -1})) + v


def test_hecke_errors():
    with pytest.raises(ValueError):
        hecke_act(mono(Window(SignedSeq.parse("01"), 2), (1, 1)), 1)


def test_hecke_chevalley_commute():
    rng = random.Random(3)
    w = Window(SignedSeq.parse("000"), 3)
    for _ in range(6):
        f = tuple(rng.randint(-1, 1) for _ in range(3))
        v = mono(w, f)
        for a in (-1, 0):
            for i in (1, 2):
                x = hecke_act(apply_gen(v, "E", a), i)
                y = apply_gen(hecke_act(v, i), "E", a)
                assert x == y


def test_h0_small():
    w = Window(SignedSeq.parse("00"), 3)
    # kw = 2: H0 = H1 + (-q)^-1
    v = mono(w, (1, 3))
    out = h0_apply(v, 0, 2)
    assert out.terms == {(3, 1): ONE, (1, 3): Laurent({-1: -1})}
    # s-fixed rows are killed
    assert not h0_apply(mono(w, (1, 1)), 0, 2)


def test_h0_image_is_eigen():
    # The H0 image is an H_i eigenspace: (M H0) H_i = -q (M H0) for every
    # basis M, block size <= 3 (the q^-1-eigenvectors span the kernel).
    minus_q = Laurent({1: -1})
    for kw in (2, 3):
        w = Window(SignedSeq((0,) * kw), 2)
        for f in product(range(-1, 2), repeat=kw):
            v = h0_apply(mono(w, f), 0, kw)
            for i in range(1, kw):
                assert hecke_act(v, i) == v.scale(minus_q), (f, i)
    # q^-1-fixed monomials are killed, matching v ^ v = 0
    w = Window(SignedSeq((1, 1)), 2)
    assert not h0_apply(mono(w, (1, 1)), 0, 2)


def test_h0_bar_invariance():
    # bar(H0) = H0, witnessed through bar(M_min H0) = bar(M_min) H0
    from bklkit.barinv import BarContext

    w = Window(SignedSeq.parse("00"), 2)
    ctx = BarContext(w)
    for f in [(1, 0), (0, -1), (2, 1)]:
        asc = tuple(sorted(f))
        lhs = h0_apply(FockVector(w, dict(ctx.row(asc))), 0, 2)
        # bar of (M_asc H0) computed row by row
        rhs_terms = {}
        for g, c in h0_apply(mono(w, asc), 0, 2).terms.items():
            cb = c.bar()
            for h, r in ctx.row(g).items():
                s = rhs_terms.get(h, ZERO) + r * cb
                if s:
                    rhs_terms[h] = s
                else:
                    rhs_terms.pop(h, None)
        assert lhs.terms == rhs_terms


def test_wedge_embed_project():
    b = SignedSeq.parse("")
    for side, kw in (("V", 2), ("W", 2), ("V", 3)):
        wwin = Window(b, 3, (side, kw))
        for idx in wwin.basis():
            v = wedge_embed(wwin, idx)
            back = wedge_project(v, wwin)
            assert back.terms == {idx: ONE}, (side, idx)


def test_wedge_embed_example():
    wwin = Window(SignedSeq.parse(""), 3, ("V", 2))
    v = wedge_embed(wwin, (3, 1))
    assert v.terms == {(3, 1): ONE, (1, 3): Laurent({-1: -1})}


def test_project_kills_repeats():
    wwin = Window(SignedSeq.parse(""), 3, ("V", 2))
    ext = wwin.extended()
    assert not wedge_project(mono(ext, (1, 1)), wwin)


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
            vecs = [mono(ext, g) for g in basis]
            for _ in range(3):
                picks = rng.sample(basis, min(6, len(basis)))
                vecs.append(FockVector(ext, {
                    g: Laurent({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))})
                    for g in picks
                }))
            for x in vecs:
                want = wedge_project(h0_apply(x, len(bits), kw), wwin).terms
                assert wedge_gather(x.terms, len(bits), side, kw) == want, (wwin, x)


def test_window_basis_and_classes():
    w = Window(SignedSeq.parse("01"), 1)
    basis = list(w.basis())
    assert len(basis) == 9
    cls = _weight_classes(w)[wt_signature(w.b, (1, 1))]
    assert set(cls) == {(-1, -1), (0, 0), (1, 1)}
    ww = Window(SignedSeq.parse(""), 2, ("W", 2))
    assert all(t[0] < t[1] for t in ww.basis())


def test_chevalley_gen_dataclass():
    w = Window(SignedSeq.parse("0"), 3)
    assert apply_gen(mono(w, (2,)), "E", 1).terms == {(1,): ONE}
    with pytest.raises(ValueError):
        apply_gen(mono(w, (0,)), "X", 0)
