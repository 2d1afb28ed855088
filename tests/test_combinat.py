"""Index combinatorics: Bruhat order, down-moves, dictionaries."""
import random
from itertools import product

import pytest

from bklkit.combinat import (
    SharpPack,
    SignedSeq,
    WedgeIndex,
    bruhat_leq,
    f_to_weight,
    v_tail,
    w_tail,
    weight_to_f,
    weyl_rho,
)
from bklkit.fock import wt_signature
from bklkit.verify import (
    _sequences,
    adjacent_positions,
    antidominant,
    conjugate,
    f_L,
    f_U,
    lambda_L,
    lambda_U,
    natural_bij,
    swap,
    typical,
)


def brute_sharp(b, f, a, j):
    return sum(b.sign(i) for i in range(j, len(b) + 1) if f[i - 1] <= a)


def down_moves(b: SignedSeq, f: tuple) -> set:
    """All g with f moving down to g by one elementary move."""
    bits = b.bits
    p = len(bits)
    out = set()
    for i in range(p):
        for j in range(i + 1, p):
            if bits[i] == bits[j]:
                if bits[i] == 0 and f[i] > f[j] or bits[i] == 1 and f[i] < f[j]:
                    g = list(f)
                    g[i], g[j] = g[j], g[i]
                    out.add(tuple(g))
            elif f[i] == f[j]:
                g = list(f)
                g[i] -= 1 if bits[i] == 0 else -1
                g[j] += 1 if bits[j] == 0 else -1
                out.add(tuple(g))
    return out


def move_closure_reaches(b: SignedSeq, f: tuple, g: tuple) -> bool:
    """Diagnostic: is g reachable from f by chains of down moves?

    Strictly weaker than bruhat_leq for general sequences.
    """
    seen = {f}
    frontier = [f]
    bound = max(max(abs(v) for v in f), max(abs(v) for v in g))
    while frontier:
        h = frontier.pop()
        if h == g:
            return True
        for x in down_moves(b, h):
            if x not in seen and all(abs(v) <= bound for v in x):
                seen.add(x)
                frontier.append(x)
    return g in seen


def test_bruhat_leq_matches_sharp_definition():
    # g <= f iff sharp(g, a, j) <= sharp(f, a, j) at every level a and slot
    # j > 1, with equality at j = 1; every pair of every small window
    n = 0
    for p, k in ((1, 3), (2, 3), (3, 2)):
        levels = range(-k - 1, k + 1)
        for bits in product((0, 1), repeat=p):
            b = SignedSeq(bits)
            box = list(product(range(-k, k + 1), repeat=p))
            prof = {
                g: [[brute_sharp(b, g, a, j) for a in levels] for j in range(1, p + 1)]
                for g in box
            }
            for f, g in product(box, repeat=2):
                pf, pg = prof[f], prof[g]
                want = pg[0] == pf[0] and all(
                    x <= y for j in range(1, p) for x, y in zip(pg[j], pf[j])
                )
                assert bruhat_leq(b, g, f) == want, (b, g, f)
                n += 1
    assert n == 134_702


def test_sharp_pack_matches_bruhat_leq_on_every_small_window():
    # every ordered pair of every window with m+n <= 3 at k <= 2, packed
    # over the window's own value range
    n = 0
    for p in range(1, 4):
        for bits in product((0, 1), repeat=p):
            b = SignedSeq(bits)
            for k in (1, 2):
                order = SharpPack(b, -k, k)
                box = list(product(range(-k, k + 1), repeat=p))
                packed = {g: order.pack(g) for g in box}
                for f, g in product(box, repeat=2):
                    assert order.leq(packed[g], packed[f]) == bruhat_leq(b, g, f), (b, g, f)
                    n += 1
    assert n == 133_724


def test_sharp_pack_matches_bruhat_leq_on_random_pairs():
    rng = random.Random(12)
    for p in (4, 5, 6):
        for _ in range(40):
            b = SignedSeq(tuple(rng.randint(0, 1) for _ in range(p)))
            lo, hi = sorted(rng.randint(-6, 6) for _ in range(2))
            order = SharpPack(b, lo, hi)
            for _ in range(60):
                f = tuple(rng.randint(lo, hi) for _ in range(p))
                # half the draws permute f, so that the j = 1 equality holds
                g = tuple(rng.sample(f, p)) if rng.random() < 0.5 else tuple(
                    rng.randint(lo, hi) for _ in range(p))
                for x, y in ((g, f), (f, g)):
                    assert order.leq(order.pack(x), order.pack(y)) == bruhat_leq(b, x, y), (b, x, y)


def test_the_k_box_is_order_convex():
    # no index outside the k-box lies between two indices inside it, so a
    # solve from an index in the box never pops one outside it
    # (CONVENTIONS.md, "Truncation"); every sequence with m+n <= 3 at
    # k <= 2, against every index of the window two levels up
    between = above = 0
    for p in range(1, 4):
        for bits in product((0, 1), repeat=p):
            b = SignedSeq(bits)
            for k in (1, 2):
                order = SharpPack(b, -k - 2, k + 2)
                packed = {g: order.pack(g) for g in product(range(-k - 2, k + 3), repeat=p)}
                box = [pg for g, pg in packed.items() if max(map(abs, g)) <= k]
                for g, pg in packed.items():
                    if max(map(abs, g)) > k and any(order.leq(ph, pg) for ph in box):
                        above += 1
                        between += any(order.leq(pg, pf) for pf in box)
    assert between == 0 and above == 200


def test_sharp_pack_rejects_bad_indices():
    b = SignedSeq.parse("011")
    order = SharpPack(b, -2, 2)
    with pytest.raises(ValueError, match="length mismatch"):
        bruhat_leq(b, (0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="length mismatch"):
        order.pack((0, 0))
    with pytest.raises(ValueError, match="packed range"):
        order.pack((0, 3, 0))
    empty = SharpPack(SignedSeq(()), 0, 0)
    assert empty.leq(empty.pack(()), empty.pack(()))


def test_bruhat_paper_example():
    b = SignedSeq.parse("01010")
    f = (4, 3, 5, 2, 1)
    g = (1, 2, 4, 3, 5)
    assert bruhat_leq(b, g, f)
    assert not bruhat_leq(b, f, g)
    # and no down-move chain reaches it
    assert not move_closure_reaches(b, f, g)


def test_bruhat_reflexive_and_simple():
    b = SignedSeq.parse("01")
    assert bruhat_leq(b, (1, 1), (2, 2))
    for f in product(range(-2, 3), repeat=2):
        assert bruhat_leq(b, f, f)


def test_bruhat_partial_order_random():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 4)
        b = SignedSeq(tuple(rng.randint(0, 1) for _ in range(n)))
        fs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)]
        f, g, h = fs
        if bruhat_leq(b, f, g) and bruhat_leq(b, g, f):
            assert f == g
        if bruhat_leq(b, f, g) and bruhat_leq(b, g, h):
            assert bruhat_leq(b, f, h)


def test_down_moves_examples():
    b = SignedSeq.parse("01")
    assert down_moves(b, (2, 2)) == {(1, 1)}
    assert down_moves(SignedSeq.parse("00"), (1, 2)) == set()


def test_move_closure_soundness():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(2, 4)
        b = SignedSeq(tuple(rng.randint(0, 1) for _ in range(n)))
        f = tuple(rng.randint(-2, 2) for _ in range(n))
        for g in down_moves(b, f):
            assert bruhat_leq(b, g, f) and g != f


def test_move_closure_equals_order_for_extreme_sequences():
    # standard and reversed sequences: closure and order coincide
    for bits in ((0, 0, 1), (1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0)):
        b = SignedSeq(bits)
        n = len(bits)
        box = [tuple(f) for f in product(range(-2, 3), repeat=n)]
        classes = {}
        for f in box:
            classes.setdefault(wt_signature(b, f), []).append(f)
        for f in box:
            reachable = set()
            frontier = [f]
            bound = max(max(abs(v) for v in f), 2) + 1
            while frontier:
                h = frontier.pop()
                if h in reachable:
                    continue
                reachable.add(h)
                for x in down_moves(b, h):
                    if max(abs(v) for v in x) <= bound:
                        frontier.append(x)
            for g in classes[wt_signature(b, f)]:
                assert (g in reachable) == bruhat_leq(b, g, f), (b, f, g)


def interval_of(bits, g, f, k):
    """The interval [g, f] read off the box [-k, k]^p: g <= h <= f."""
    b = SignedSeq(bits)
    box = product(range(-k, k + 1), repeat=len(bits))
    return {h for h in box if bruhat_leq(b, g, h) and bruhat_leq(b, h, f)}


def test_interval():
    assert interval_of((0, 1), (1, 1), (1, 1), 2) == {(1, 1)}
    assert interval_of((0, 1), (1, 1), (2, 2), 2) == {(1, 1), (2, 2)}
    assert interval_of((0, 0), (1, 2), (2, 1), 2) == {(1, 2), (2, 1)}
    # an incomparable pair is no error: g is simply not below f
    assert not bruhat_leq(SignedSeq((0, 0)), (2, 1), (1, 2))
    assert interval_of((0, 0), (2, 1), (1, 2), 2) == set()


def test_interval_box_bound():
    # entries in [g, f] are bounded by the endpoints' magnitude, so a wider
    # window adds nothing to the interval
    bits = (0, 1, 0)
    g, f = (0, 0, 1), (1, 1, 1)
    assert bruhat_leq(SignedSeq(bits), g, f)
    between = interval_of(bits, g, f, 3)
    assert {g, f} <= between and all(abs(v) <= 1 for h in between for v in h)


def test_weyl_rho_examples():
    assert weyl_rho(SignedSeq.parse("001")) == (1, 0, 0)
    assert weyl_rho(SignedSeq.parse("0")) == (1,)
    assert weyl_rho(SignedSeq.parse("1")) == (0,)


def test_weyl_rho_characterization_exhaustive():
    # both clauses, every sequence with m+n <= 6
    for n in range(1, 7):
        for bits in product((0, 1), repeat=n):
            b = SignedSeq(bits)
            rho = weyl_rho(b)
            sign = [1 if x == 0 else -1 for x in bits]
            for i in range(n - 1):
                lhs = sign[i] * rho[i] - sign[i + 1] * rho[i + 1]
                rhs2 = sign[i] + sign[i + 1]  # (beta|beta)
                assert 2 * lhs == rhs2, (b, i)
            assert sign[-1] * rho[-1] == (0 if bits[-1] else 1)


def test_weight_dictionary():
    b = SignedSeq.parse("001")
    assert weight_to_f(b, (0, 0, 0)) == (1, 0, 0)
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 5)
        b = SignedSeq(tuple(rng.randint(0, 1) for _ in range(n)))
        lam = tuple(rng.randint(-4, 4) for _ in range(n))
        assert f_to_weight(b, weight_to_f(b, lam)) == lam
        # supertrace direction shifts the index by the all-ones vector
        shifted = tuple(lam[i] + b.sign(i + 1) for i in range(n))
        assert weight_to_f(b, shifted) == tuple(
            v + 1 for v in weight_to_f(b, lam)
        )


def test_shift_respects_order():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        b = SignedSeq(tuple(rng.randint(0, 1) for _ in range(n)))
        f = tuple(rng.randint(-2, 2) for _ in range(n))
        g = tuple(rng.randint(-2, 2) for _ in range(n))
        one = (1,) * n
        fs = tuple(f[i] + one[i] for i in range(n))
        gs = tuple(g[i] + one[i] for i in range(n))
        assert bruhat_leq(b, g, f) == bruhat_leq(b, gs, fs)


def test_adjacent_index_maps():
    f = (0, 3, 5, 1)
    assert f_L(f, 2) == (0, 5, 3, 1)
    assert f_U(f, 2) == (0, 5, 3, 1)
    t = (0, 4, 4, 1)
    assert f_L(t, 2) == (0, 5, 5, 1)
    assert f_U(t, 2) == (0, 3, 3, 1)
    rng = random.Random(4)
    for _ in range(30):
        f = tuple(rng.randint(-3, 3) for _ in range(4))
        assert f_U(f_L(f, 2), 2) == f
        assert f_L(f_U(f, 2), 2) == f


def test_lambda_maps_gl11():
    b = SignedSeq.parse("01")
    assert lambda_L(b, 1, (1, -1)) == (-1, 1)  # swapped coordinates of (1,-1)
    assert lambda_U(b, 1, (1, -1)) == (1, -1)  # lam-2alpha then swap
    assert lambda_L(b, 1, (1, 0)) == (1, 0)
    assert lambda_U(b, 1, (1, 0)) == (1, 0)


def test_lambda_f_compatibility_random():
    rng = random.Random(5)
    count = 0
    while count < 50:
        n = rng.randint(2, 5)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        b = SignedSeq(bits)
        pos = adjacent_positions(b)
        if not pos:
            continue
        kappa = rng.choice(pos)
        bp = swap(b, kappa)
        lam = tuple(rng.randint(-3, 3) for _ in range(n))
        f = weight_to_f(b, lam)
        assert weight_to_f(bp, lambda_L(b, kappa, lam)) == f_L(f, kappa)
        assert weight_to_f(bp, lambda_U(b, kappa, lam)) == f_U(f, kappa)
        count += 1


def test_partitions_and_tails():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate(()) == ()
    assert v_tail((2, 1), 4) == (2, 0, -2, -3)
    assert w_tail((2, 1), 4) == (-1, 1, 3, 4)


def test_natural_bij():
    vac = WedgeIndex((), "V", ())
    assert natural_bij(vac).parts == ()
    x = WedgeIndex((), "V", (2, 1))
    y = natural_bij(x)
    assert y.side == "W" and y.parts == (2, 1)
    # involution
    assert natural_bij(y) == x
    # disjointness of the two tails covers Z
    n = 12
    vt = set(v_tail((2, 1), n))
    wt = set(w_tail(conjugate((2, 1)), n))
    assert vt & wt == set()
    window = set(range(min(vt), max(wt) + 1))
    assert (vt | wt) >= window - set()


def test_typical_antidominant():
    b = SignedSeq((0, 1))
    lam_typ = f_to_weight(b, (2, 0))
    lam_atyp = f_to_weight(b, (1, 1))
    assert typical(b, lam_typ)
    assert not typical(b, lam_atyp)
    b32 = SignedSeq((0, 0, 0, 1, 1))
    lam = f_to_weight(b32, (0, 3, 5, 4, 2))
    assert antidominant(b32, lam)
    b0 = SignedSeq((0, 0))
    assert typical(b0, f_to_weight(b0, (1, 1)))
    with pytest.raises(ValueError):
        typical(SignedSeq.parse("10"), (0, 0))


def test_signed_seq_utilities():
    b = SignedSeq.parse("0101")
    assert (b.bits.count(0), b.bits.count(1)) == (2, 2)
    assert adjacent_positions(b) == [1, 3]
    assert swap(b, 1) == SignedSeq.parse("1001")
    assert str(SignedSeq.parse("")) == ""
    assert [str(b) for b in _sequences(3, 3) if b.bits.count(0) == 2] == ["100", "010", "001"]


def test_frozen_records_compare_hash_and_print_by_their_fields():
    # SignedSeq, WedgeIndex and Window keep the semantics of frozen records:
    # the repr is read in error messages and in the verify report
    import copy

    from bklkit.combinat import Window

    b = SignedSeq.parse("01")
    w = Window(b, 2)
    x = WedgeIndex((1,), "V", (2, 1))
    assert repr(b) == "SignedSeq(bits=(0, 1))"
    assert repr(w) == "Window(b=SignedSeq(bits=(0, 1)), k=2, wedge=None)"
    assert repr(Window(b, 3, ("V", 2))) == (
        "Window(b=SignedSeq(bits=(0, 1)), k=3, wedge=('V', 2))"
    )
    assert repr(x) == "WedgeIndex(head=(1,), side='V', parts=(2, 1))"
    assert w == Window(SignedSeq((0, 1)), 2, None) and w != Window(b, 3)
    assert w != (b, 2, None) and b != (0, 1) and x != ((1,), "V", (2, 1))
    assert hash(b) == hash(((0, 1),))
    assert hash(w) == hash((b, 2, None))
    assert hash(x) == hash(((1,), "V", (2, 1)))
    assert copy.copy(w) == w and copy.deepcopy(x) == x
    for rec, name in ((b, "bits"), (w, "k"), (w, "wedge"), (x, "side")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        w.extra = 1  # no field of that name either
