"""The q=1 character layer."""
from itertools import product

import pytest

from bklkit import verify
from bklkit.characters import (
    IRREDUCIBLE,
    TILTING,
    irreducible_character,
    tilting_character,
)
from bklkit.combinat import SignedSeq, f_to_weight, weight_to_f
from bklkit.verify import column_to_parabolic, odd_reflection_check


def test_gl11_atypical_irreducible():
    # alternating multiplicities down the tie chain, within the window
    b = SignedSeq.parse("01")
    lam = f_to_weight(b, (2, 2))
    ch = irreducible_character(b, lam, k=5)
    assert ch.terms.get(lam, 0) == 1
    seen = 0
    for t in range(1, 5):
        mu = f_to_weight(b, (2 - t, 2 - t))
        assert ch.terms.get(mu, 0) == (-1) ** t
        seen += 1
    assert seen >= 3
    assert ch.window == 5


def test_gl11_atypical_tilting():
    b = SignedSeq.parse("01")
    lam = f_to_weight(b, (2, 2))
    ti = tilting_character(b, lam)
    mu = f_to_weight(b, (1, 1))
    assert ti.terms == {lam: 1, mu: 1}


def test_typical_single_verma():
    b = SignedSeq.parse("01")
    lam = f_to_weight(b, (0, 2))
    assert irreducible_character(b, lam).terms == {lam: 1}
    assert tilting_character(b, lam).terms == {lam: 1}


def test_head_term_and_lower_support():
    from bklkit.combinat import bruhat_leq

    b = SignedSeq.parse("010")
    lam = f_to_weight(b, (1, 1, 0))
    ch = irreducible_character(b, lam)
    assert ch.terms.get(lam, 0) == 1
    f = weight_to_f(b, lam)
    for mu in ch.terms:
        assert bruhat_leq(b, weight_to_f(b, mu), f)


def test_classical_endpoint_matches_kl():
    # n = 0: the expansion comes from classical KL polynomials at q=1
    b = SignedSeq((0, 0, 0))
    lam = f_to_weight(b, (3, 2, 1))
    ch = irreducible_character(b, lam)
    # L(w0) for the regular block: all six Vermas with sign (-1)^{l(w)}
    from itertools import permutations

    def inv(p):
        return sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])

    # Weyl character formula: sign (-1)^{l(w0) - l(w)}, head term +1
    expect = {}
    for p in permutations((1, 2, 3)):
        expect[f_to_weight(b, p)] = (-1) ** ((3 - inv(p)) % 2)
    assert ch.terms == expect


def test_odd_reflection_small():
    b = SignedSeq.parse("01")
    for f in product(range(0, 2), repeat=2):
        assert odd_reflection_check(b, 1, f_to_weight(b, f))
    assert odd_reflection_check(b, 1, f_to_weight(b, (2, 2)))


def test_odd_reflection_21():
    for bs, kappa in (("010", 1), ("010", 2), ("001", 2), ("100", 1)):
        b = SignedSeq.parse(bs)
        for f in [(1, 1, 0), (0, 0, 0), (1, 0, 1)]:
            assert odd_reflection_check(b, kappa, f_to_weight(b, f))


def test_odd_reflection_bumps_ties_along_the_reflected_pair(monkeypatch):
    # the N telescoping runs along the pair of the reflected sequence bp:
    # "WV" when b = 01 (bp = 10), "VW" when b = 10
    seen = []

    def recording(entries, kappa, pair_kind, basis, k):
        seen.append(pair_kind)
        return column_to_parabolic(entries, kappa, pair_kind, basis, k)

    monkeypatch.setattr(verify, "column_to_parabolic", recording)
    for bs, want in (("01", "WV"), ("10", "VW")):
        b = SignedSeq.parse(bs)
        seen.clear()
        assert odd_reflection_check(b, 1, f_to_weight(b, (1, 1)))
        assert seen and set(seen) == {want}, bs


def test_odd_reflection_needs_mixed_pair():
    with pytest.raises(ValueError):
        odd_reflection_check(SignedSeq.parse("001"), 1, (0, 0, 0))


def test_expansion_json():
    b = SignedSeq.parse("01")
    lam = f_to_weight(b, (1, 1))
    data = irreducible_character(b, lam, k=4).to_json()
    assert data["b"] == "01" and data["kind"] == IRREDUCIBLE
    assert data["window"] == 4
    assert {"mu": ",".join(str(v) for v in lam), "mult": 1} in data["terms"]


def test_q1_values_match_columns():
    from bklkit.canonical import DUAL, engine
    from bklkit.combinat import Window

    b = SignedSeq.parse("010")
    lam = f_to_weight(b, (1, 1, 1))
    k = 4
    ch = irreducible_character(b, lam, k=k)
    col = engine(Window(b, k)).column(weight_to_f(b, lam), DUAL)
    for g, c in col.entries.items():
        if c.ev():
            assert ch.terms.get(f_to_weight(b, g), 0) == c.ev()
