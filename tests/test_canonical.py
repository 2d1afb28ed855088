"""Canonical / dual canonical columns and the transports between them."""
import hashlib
import json
import random
from itertools import product
from pathlib import Path

import pytest

from bklkit.barinv import BarContext
from bklkit.canonical import (
    _LANES,
    CANONICAL,
    DUAL,
    BklColumn,
    BklEngine,
    BklTable,
    TriangularityError,
    auto_level,
    bkl,
    engine,
    wedge_bkl,
)
from bklkit.combinat import SignedSeq, WedgeIndex, Window, bruhat_leq
from bklkit.fock import wt_signature
from bklkit.oracle import q_power, rank2_forms
from bklkit.scalars import Laurent, ONE, ZERO, Z_QMQINV, addmul, pack
from bklkit.verify import (
    _in_degrees,
    _pair_kind,
    _sequences,
    adjacency_transport,
    column_to_parabolic,
    lambda_L,
    odd_reflection_check,
    parabolic_columns,
    shift_column_invariant,
    swap,
    superduality_compare,
    superduality_order_preserved,
    tensor_to_wedge_canonical,
    truncation_consistent_tensor,
    truncation_consistent_wedge,
    wedge_vs_tensor_dual,
)


def test_two_element_chain():
    # r_{gf} = q - q^-1 on a two-chain gives t = q, l = -q^-1
    eng = engine(Window(SignedSeq.parse("00"), 3))
    t = eng.column((2, 1), CANONICAL).entries
    l = eng.column((2, 1), DUAL).entries
    assert t == {(2, 1): ONE, (1, 2): q_power(1)}
    assert l == {(2, 1): ONE, (1, 2): Laurent({-1: -1})}


def test_identity_bar_table_identity_columns():
    eng = engine(Window(SignedSeq.parse("0"), 4))
    for f in eng.window.basis():
        assert eng.column(f, CANONICAL).entries == {f: ONE}
        assert eng.column(f, DUAL).entries == {f: ONE}


def test_rank2_columns_match_closed_forms():
    for case, bits in (("VW", (0, 1)), ("WV", (1, 0))):
        k = 5
        eng = engine(Window(SignedSeq(bits), k))
        for f in eng.window.basis():
            T, L = rank2_forms(case, f, k)
            assert eng.column(f, CANONICAL).entries == T
            assert eng.column(f, DUAL).entries == L


def test_bkl_auto_window_and_stability():
    b = SignedSeq.parse("01")
    col = bkl(b, (3, 3), CANONICAL)
    assert col.window.k == auto_level(b, (3, 3))
    assert col.entries == {(3, 3): ONE, (2, 2): q_power(1)}


def test_bkl_shift_invariance_examples():
    b = SignedSeq.parse("01")
    for p in (-2, 1, 3):
        assert shift_column_invariant(b, (1, 1), p, CANONICAL)
        assert shift_column_invariant(b, (1, 1), p, DUAL)


def test_column_order_independence(monkeypatch):
    rng = random.Random(13)
    b = SignedSeq.parse("010")
    eng = engine(Window(b, 3))
    for f in [(1, 1, 0), (1, 1, 1), (0, 1, 1)]:
        reference = eng.column(f, DUAL).entries
        cands = eng.candidates(f)
        # the reference order is a linear extension: nothing sits below
        # an element it precedes, so f comes first
        assert cands[0] == f
        for i, g in enumerate(cands):
            assert not any(bruhat_leq(b, g, h) for h in cands[i + 1 :]), g
        for _ in range(4):
            # random valid linear extension by repeated random maxima
            remaining = list(cands)
            order = []
            while remaining:
                maxima = [
                    g
                    for g in remaining
                    if all(h == g or not bruhat_leq(b, g, h) for h in remaining)
                ]
                pick = rng.choice(maxima)
                order.append(pick)
                remaining.remove(pick)
            # a fresh engine solves in that order: its key is the position
            fresh = BklEngine(eng.window)
            pos = {g: i for i, g in enumerate(order)}
            monkeypatch.setattr(fresh, "key", pos.__getitem__)
            assert fresh.column(f, DUAL).entries == reference


def candidate_windows(max_mn, max_k, wedge_mn, max_kw, wedge_k):
    """Every tensor window with 1 <= m+n <= max_mn at k <= max_k, then every
    wedge window with m+n <= wedge_mn, kw <= max_kw at k <= wedge_k."""
    for b in _sequences(max_mn, 1):
        for k in range(1, max_k + 1):
            yield Window(b, k)
    for b in _sequences(wedge_mn):
        for side in ("V", "W"):
            for kw in range(1, max_kw + 1):
                for k in range(1, wedge_k + 1):
                    yield Window(b, k, (side, kw))


def test_key_is_strictly_monotone():
    # g < f implies key(g) > key(f), on every comparable pair of small
    # windows; comparable indices share their weight
    n = 0
    for win in candidate_windows(3, 2, 2, 2, 2):
        eng = BklEngine(win)
        classes: dict = {}
        for g in win.basis():
            classes.setdefault(wt_signature(eng.bext, g), []).append(g)
        for cls in classes.values():
            for g, f in product(cls, repeat=2):
                if g != f and bruhat_leq(eng.bext, g, f):
                    assert eng.key(g) > eng.key(f), (win, g, f)
                    n += 1
    assert n == 8460


def test_column_tables_match_recorded_digests():
    # sha256 of each canonical and dual table's sorted JSON over every
    # tensor window with m+n <= 3 at k <= 3, every wedge window with
    # m+n <= 2, kw <= 2 at k <= 2 and every kw = 3 wedge window with
    # m+n <= 1 at k <= 2, recorded before the solve pushed bar rows through
    # addmul (the kw = 3 ones before wedge rows were gathered in closed
    # form); any change in any coefficient shows here
    want = json.loads((Path(__file__).parent / "column_digests.json").read_text())
    got = {}
    kw3 = [w for w in candidate_windows(0, 0, 1, 3, 2) if w.wedge[1] == 3]
    for win in [*candidate_windows(3, 3, 2, 2, 2), *kw3]:
        wedge = f"{win.wedge[0]}:{win.wedge[1]}" if win.wedge else ""
        for kind in (CANONICAL, DUAL):
            table = BklTable.over_window(win, kind).to_json()
            got[f"{win.b}|{win.k}|{wedge}|{kind}"] = hashlib.sha256(
                json.dumps(table, sort_keys=True).encode()
            ).hexdigest()
    assert got == want


def test_engine_cache_keeps_the_two_most_recent_windows():
    engine.cache_clear()
    first, second, third = (Window(SignedSeq.parse("01"), k) for k in (2, 3, 4))
    eng = engine(first)
    engine(second)
    engine(third)
    assert engine.cache_info().currsize == 2
    assert engine(first) is not eng  # rebuilt after two newer windows


def test_bkl_stability_check_reuses_the_k_engine():
    # bkl solves once, in the engine of its own window, and its one check
    # (Bruhat descent over the rows the column was built from) reads that
    # engine's push lists: one miss, for the k window, and no engine of
    # level k + 1
    engine.cache_clear()
    b, f = SignedSeq.parse("01"), (1, 1)
    k = auto_level(b, f)
    col = bkl(b, f, DUAL)
    assert engine.cache_info().misses == 1
    assert col.window == Window(b, k)
    assert col is engine(Window(b, k)).column(f, DUAL)
    assert bkl(b, f, DUAL) is col
    assert engine.cache_info().misses == 1
    # the same column as an engine one level up, cut to the k-box
    whole = BklEngine(Window(b, k + 1)).column(f, DUAL).entries
    assert col.entries == {g: c for g, c in whole.items() if max(map(abs, g)) <= k}


def test_bar_rows_share_values_and_index_tuples():
    for win in (Window(SignedSeq.parse("0101"), 2), Window(SignedSeq.parse("01"), 2, ("V", 2))):
        eng = BklEngine(win)
        for f in win.basis():
            eng.column(f, DUAL)
        ctx = eng._ctx
        # the context's rows and the engine's push lists hold one object per
        # distinct value, and every index they name is the context's tuple
        values = [c for d in ctx._rows.values() for c in d.values()]
        values += [c for push in eng._pushes.values() for c in push[1::3]]
        seen: dict = {}
        for c in values:
            assert seen.setdefault(c, c) is c, (win, c)
        assert len(seen) < len(values) // 10, win
        for g in (*eng._idx.values(), *(g for d in ctx._rows.values() for g in d)):
            assert ctx._keys[g] is g


def test_index_ids_are_unique_and_order_like_keys():
    for win in (Window(SignedSeq.parse("0101"), 2), Window(SignedSeq.parse("01"), 2, ("V", 2))):
        eng = BklEngine(win)
        for f in win.basis():
            eng.column(f, CANONICAL)
        num, idx = eng._num, eng._idx
        assert set(num) == set(win.basis())
        assert {n: g for g, n in num.items()} == idx  # so the ids are unique too
        ids = sorted(idx)
        assert all(eng.key(idx[a]) <= eng.key(idx[b]) for a, b in zip(ids, ids[1:])), win


def test_a_tensor_engine_takes_its_rows_out_of_the_context():
    # the engine keeps a full-length bar row as its push list only; the
    # context keeps the prefix rows it builds rows from
    win = Window(SignedSeq.parse("011"), 2)
    eng, f = BklEngine(win), (1, 0, -1)
    col = eng.column(f, CANONICAL)
    rows = eng._ctx._rows
    assert f not in rows and not any(len(g) == 3 for g in rows)
    assert (1, 0) in rows
    assert {eng._num[g] for g in col.entries} <= set(eng._pushes)
    # the other kind solves from the push lists alone
    assert eng.column(f, DUAL).entries == BklEngine(win).column(f, DUAL).entries
    assert not any(len(g) == 3 for g in rows)


def test_taking_the_row_of_an_empty_index_keeps_the_root_row():
    # on a window with no slots the one full-length row is the root row ()
    # that every row is built from: the engine takes it, the context keeps it
    eng = BklEngine(Window(SignedSeq(()), 2))
    assert eng.column((), CANONICAL).entries == {(): ONE}
    assert eng._ctx.row(()) == {(): ONE}
    assert eng._ctx.take(()) == {(): ONE}
    assert eng._ctx.row(()) == {(): ONE}


def test_bkl_columns_are_the_bigger_columns_cut_to_the_box():
    # the truncation bkl relies on (CONVENTIONS.md, "Truncation"): every
    # canonical and dual column of every tensor window with m+n <= 3 at
    # k <= 2 equals the column of an engine one level up, which builds its
    # own rows, restricted to the k-box
    wins, n = list(candidate_windows(3, 2, 0, 0, 0)), 0
    for win in wins:
        big = BklEngine(Window(win.b, win.k + 1))
        for f in win.basis():
            for kind in (CANONICAL, DUAL):
                whole = big.column(f, kind).entries
                cut = {g: c for g, c in whole.items() if max(map(abs, g)) <= win.k}
                assert bkl(win.b, f, kind, k=win.k).entries == cut, (win, f, kind)
                n += 1
    assert len(wins) == 28 and n == 2 * sum(sum(1 for _ in w.basis()) for w in wins)


def test_engines_of_two_levels_pack_in_their_own_lanes():
    # the dual column of f at levels 6 and 7, from two engines that build
    # their own rows: both widen, each in its own lanes, and the columns
    # agree on the 6-box
    b, f = SignedSeq.parse("0011"), (6, 6, 6, 6)
    small, big = BklEngine(Window(b, 6)), BklEngine(Window(b, 7))
    col = small.column(f, DUAL).entries
    whole = big.column(f, DUAL).entries
    assert col == {g: c for g, c in whole.items() if max(map(abs, g)) <= 6}
    for eng in (small, big):
        assert eng._lanes != _LANES
        base, off = eng._lanes
        for push in eng._pushes.values():
            assert push[2::3] == [pack(r, base, off) for r in push[1::3]]
    assert bkl(b, f, DUAL, k=6).entries == col


def test_bkl_rejects_an_index_outside_the_k_box_before_solving():
    engine.cache_clear()
    b = SignedSeq.parse("01")
    with pytest.raises(ValueError, match=r"index \(3, 0\) not in window"):
        bkl(b, (3, 0), DUAL, k=2)
    assert engine(Window(b, 2))._columns == {}


def test_bkl_levels_start_at_1():
    b = SignedSeq.parse("01")
    assert bkl(b, (1, 0), DUAL, k=1).window == Window(b, 1)
    with pytest.raises(ValueError, match="must be positive"):
        bkl(b, (0, 0), DUAL, k=0)


def test_truncation_check_compares_two_separately_built_row_sets(monkeypatch):
    # bkl solves its k column once, in the k engine; the truncation suite
    # of verify compares it with the column of a k+1 engine that builds
    # rows of its own
    engine.cache_clear()
    b, f, k = SignedSeq.parse("010"), (1, 0, 1), 2
    col = bkl(b, f, DUAL, k=k)
    seen = []
    column = BklEngine.column

    def spy(self, g, kind):
        seen.append(self)
        return column(self, g, kind)

    monkeypatch.setattr(BklEngine, "column", spy)
    assert truncation_consistent_tensor(b, f, DUAL, k)
    small, big = seen
    assert type(small) is BklEngine and type(big) is BklEngine
    assert (small.window.k, big.window.k) == (k, k + 1)
    assert small._ctx is not big._ctx
    assert small._pushes and small._num is not big._num
    assert small.column(f, DUAL).entries == col.entries


def test_a_wedge_engine_takes_its_extended_rows_out_of_the_context():
    # a wedge row is gathered from the full-length row of its reversed index
    # in the extended window; the engine keeps the gathered row only
    win = Window(SignedSeq.parse("01"), 3, ("V", 2))
    eng = BklEngine(win)
    table = {}
    for f in win.basis():
        for g, c in eng.column(f, DUAL).entries.items():
            if g != f:
                table[(g, f)] = c
    assert len(eng._pushes) == sum(1 for _ in win.basis())
    assert not any(len(g) == 4 for g in eng._ctx._rows)
    # the same table as before: its digest in tools/differential_digests.json
    text = json.dumps(BklTable(win, DUAL, table).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "031bcf6de7e4c6044bd1b6a28bc62e964b9265c35eb8d80b245c16f9b384d76b"
    )


def test_inconsistent_bar_row_is_a_triangularity_error():
    # a term added to one off-diagonal bar-row entry reaches the pending
    # sum of that index, which then fails the packed antisymmetry identity:
    # a constant term, and terms with no constant at all
    f = (1, 1)
    for extra in (ONE, q_power(1), Laurent({2: 3, -1: 1})):
        for kind in (CANONICAL, DUAL):
            eng = BklEngine(Window(SignedSeq.parse("01"), 2))
            row = eng._ctx.row(f)
            g = next(h for h in row if h != f)
            row[g] = row[g] + extra
            with pytest.raises(TriangularityError, match="inconsistent bar data"):
                eng.column(f, kind)


def test_bar_row_entry_above_the_index_is_a_triangularity_error():
    # an antisymmetric entry at an index above f passes the antisymmetry
    # check; the solve must still refuse it rather than drop it
    f = (1, 1)
    eng = BklEngine(Window(SignedSeq.parse("01"), 2))
    above = (2, 2)
    assert bruhat_leq(eng.bext, f, above) and above not in eng._ctx.row(f)
    eng._ctx.row(f)[above] = Laurent({1: 1, -1: -1})
    with pytest.raises(TriangularityError, match=r"g=\(2, 2\) is not below f=\(1, 1\)"):
        eng.column(f, CANONICAL)


def test_bar_row_entry_at_an_equal_key_is_a_triangularity_error():
    # (0, -1) is not below (-2, -2) but has the same key, and sorts after it
    # as a tuple; the solve must refuse the entry, not solve for it
    f, g = (-2, -2), (0, -1)
    eng = BklEngine(Window(SignedSeq.parse("01"), 2))
    assert eng.key(g) == eng.key(f) and g > f and not bruhat_leq(eng.bext, g, f)
    eng._ctx.row(f)[g] = Z_QMQINV
    with pytest.raises(TriangularityError, match=r"g=\(0, -1\) is not below f=\(-2, -2\)"):
        eng.column(f, CANONICAL)


def test_bar_row_diagonal_other_than_one_is_a_triangularity_error():
    f = (1, 1)
    eng = BklEngine(Window(SignedSeq.parse("01"), 2))
    eng._ctx.row(f)[f] = Laurent({0: 2, 3: 1})
    with pytest.raises(TriangularityError, match=r"diagonal f=\(1, 1\) is q\^3 \+ 2, not 1"):
        eng.column(f, CANONICAL)


def test_a_column_that_outgrows_the_lanes_is_solved_in_wider_ones():
    # the bar row of f already holds exponents past the starting offset,
    # and the dual column's load outgrows the starting width, so the solve
    # restarts in wider lanes; the result must still be the unique
    # bar-invariant column with off-diagonal entries in q^-1 Z[q^-1],
    # checked here in Laurent arithmetic, away from the packed sums
    f = (6, 6, 6, 6)
    eng = BklEngine(Window(SignedSeq.parse("0011"), 6))
    start = eng._lanes
    col = eng.column(f, DUAL).entries
    assert all(a > b for a, b in zip(eng._lanes, start)), (start, eng._lanes)
    assert col[f] == ONE
    assert all(_in_degrees(c, DUAL) for g, c in col.items() if g != f)
    again: dict = {}
    for g, c in col.items():
        for h, r in eng._ctx.row(g).items():
            addmul(again, h, r, c.bar())
    assert again == col
    # every push list was re-packed at the lanes it is read in
    base, off = eng._lanes
    for push in eng._pushes.values():
        assert push[2::3] == [pack(r, base, off) for r in push[1::3]]
    # the wider lanes stay on the engine: the canonical column needs no restart
    lanes = eng._lanes
    eng.column(f, CANONICAL)
    assert eng._lanes == lanes


def test_bkl_refuses_a_row_entry_that_is_not_bruhat_below(monkeypatch):
    # (-2, -1) has a larger key than (1, 1) and is not below it, so the
    # engine's key-order test lets a planted entry through and the solve
    # gives it a coefficient; bkl checks every row its column was built
    # from for Bruhat descent and refuses it
    b, f, g = SignedSeq.parse("01"), (1, 1), (-2, -1)
    eng = BklEngine(Window(b, 2))
    assert eng.key(g) > eng.key(f) and not bruhat_leq(b, g, f)
    take = BarContext.take

    def planted(self, h):
        row = take(self, h)
        if h == f:
            row[g] = Z_QMQINV
        return row

    monkeypatch.setattr(BarContext, "take", planted)
    for kind in (CANONICAL, DUAL):
        engine.cache_clear()
        try:
            # twice: the second call finds the column in the engine's memo
            for _ in range(2):
                with pytest.raises(TriangularityError, match=r"g=\(-2, -1\) is not Bruhat-below \(1, 1\)"):
                    bkl(b, f, kind, k=2)
        finally:
            engine.cache_clear()


def test_columns_are_bar_invariant():
    # applying the bar table to T_f reproduces T_f (stable sub-window)
    b = SignedSeq.parse("01")
    k = 5
    eng = engine(Window(b, k))
    ctx = BarContext(Window(b, k))
    for f in [(2, 2), (1, 1)]:
        for kind in (CANONICAL, DUAL):
            col = eng.column(f, kind).entries
            out = {}
            for g, c in col.items():
                cb = c.bar()
                for h, r in ctx.row(g).items():
                    s = out.get(h, ZERO) + r * cb
                    if s:
                        out[h] = s
                    else:
                        out.pop(h, None)
            safe = k - 2
            for h in set(out) | set(col):
                if max(abs(v) for v in h) <= safe:
                    assert out.get(h, ZERO) == col.get(h, ZERO), (f, kind, h)


def test_inversion_duality_matrix_identity():
    # sum_g r_{hg} bar(l_{gf}) = l_{hf} on finite intervals
    b = SignedSeq.parse("010")
    k = 3
    eng = engine(Window(b, k))
    ctx = BarContext(Window(b, k))
    for f in [(1, 1, 0), (1, 1, 1)]:
        col = eng.column(f, DUAL).entries
        for h in col:
            acc = ZERO
            for g, lgf in col.items():
                r = ctx.row(g).get(h)
                if r is not None:
                    acc = acc + r * lgf.bar()
            assert acc == col[h], (f, h)


def test_hecke_oracle_column():
    # V^{x3}: column of the longest-orbit index matches classical KL
    eng = engine(Window(SignedSeq.parse("000"), 4))
    col = eng.column((3, 2, 1), CANONICAL).entries
    assert col[(1, 2, 3)] == Laurent({3: 1})
    assert col[(2, 1, 3)] == Laurent({2: 1})
    assert col[(1, 3, 2)] == Laurent({2: 1})
    assert all(_in_degrees(c, CANONICAL) for g, c in col.items() if g != (3, 2, 1))


def test_wedge_kw1_equals_tensor():
    b = SignedSeq.parse("01")
    k = 4
    for f in [(1, 1), (0, 2)]:
        for c in (3, 0):
            wcol = wedge_bkl(b, "W", 1, f + (c,), DUAL, k=k).entries
            tcol = engine(Window(SignedSeq.parse("011"), k)).column(f + (c,), DUAL).entries
            assert wcol == tcol


def test_wedge_partition_column():
    idx = WedgeIndex((1,), "V", (2, 1))
    col = wedge_bkl(SignedSeq.parse("0"), "V", 2, idx.flat(2), DUAL)
    assert col.entries[(1,) + (2, 0)] == ONE  # diagonal
    assert col.window.wedge == ("V", 2)


def test_truncation_consistency():
    b = SignedSeq.parse("01")
    for f in [(1, 1), (2, 0)]:
        for kind in (CANONICAL, DUAL):
            assert truncation_consistent_tensor(b, f, kind, 3)
    assert truncation_consistent_wedge(SignedSeq.parse("0"), "V", 1, (1, 2), DUAL, 4)
    assert truncation_consistent_wedge(SignedSeq.parse(""), "W", 2, (1, 2), CANONICAL, 4)


def test_tensor_vs_wedge():
    b = SignedSeq.parse("0")
    win = Window(b, 3, ("V", 2))
    eng = engine(win)
    for f in [(1, 2, 1), (0, 1, 0), (1, 1, -1)]:
        assert wedge_vs_tensor_dual(b, "V", 2, f, k=3) == eng.column(f, DUAL).entries
        tcol = eng.column(f, CANONICAL).entries
        assert tensor_to_wedge_canonical(b, "V", 2, f, k=3) == tcol


def test_tensor_vs_wedge_checks_compare_whole_columns(monkeypatch):
    # a tensor-side entry at a wedge index the wedge column lacks is a
    # mismatch; one at a tail with a repeated entry is not compared
    b, k, f = SignedSeq.parse("0"), 3, (1, 2, 1)
    wwin = Window(b, k, ("V", 2))
    ext = engine(wwin.extended())
    for kind, check, tf in (
        (DUAL, wedge_vs_tensor_dual, f),
        (CANONICAL, tensor_to_wedge_canonical, (1, 1, 2)),
    ):
        good = ext.column(tf, kind)
        wcol = engine(wwin).column(f, kind).entries
        extra = next(g for g in wwin.basis() if g not in wcol and g not in good.entries)
        for entries in ({**good.entries, (0, 1, 1): ONE}, {**good.entries, extra: ONE}):
            col = BklColumn(good.window, tf, kind, entries)
            monkeypatch.setattr(ext, "_columns", {**ext._columns, (tf, kind): col})
            if extra in entries:
                with pytest.raises(AssertionError, match="mismatch"):
                    check(b, "V", 2, f, k=k)
            else:
                assert check(b, "V", 2, f, k=k) == wcol


def test_parabolic_rank2_facts():
    # L_(a,a) is exactly N_(a,a); T_(a,a) is exactly U_(a,a)
    b = SignedSeq.parse("01")
    lch, tch = parabolic_columns(b, 1, (2, 2), k=5)
    assert lch == {(2, 2): ONE}
    assert tch == {(2, 2): ONE}
    # untied: N = M and U = M, so the parabolic columns equal the plain ones
    lch, tch = parabolic_columns(b, 1, (0, 2), k=5)
    assert lch == {(0, 2): ONE}
    assert tch == {(0, 2): ONE}


@pytest.mark.parametrize("kappa", [0, -1, 2])
def test_a_pair_position_outside_the_sequence_is_rejected(kappa):
    # 10 has its one mixed pair at kappa = 1; kappa 0 and -1 must not wrap
    # round to it, and kappa = len(b) must not reach past the end
    b = SignedSeq.parse("10")
    assert _pair_kind(b, 1) == "WV" and str(swap(b, 1)) == "01"
    calls = [
        lambda: swap(b, kappa),
        lambda: _pair_kind(b, kappa),
        lambda: adjacency_transport(b, kappa, (0, 0), k=3),
        lambda: odd_reflection_check(b, kappa, (0, 0)),
        lambda: lambda_L(b, kappa, (0, 0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"no mixed pair at position {kappa}"):
            call()


def test_tied_rank2_columns_are_one_parabolic_vector():
    # L_(a,a) = N_(a,a) and T_(a,a) = U_(a,a) on the safe box when ties
    # bump along the pair of b itself, and not along the other pair; this
    # pins the direction of _pair_kind, which odd_reflection_check uses
    k, f = 4, (0, 0)
    for bs in ("01", "10"):
        b = SignedSeq.parse(bs)
        eng = engine(Window(b, k))
        right = _pair_kind(b, 1)
        for kind, basis in ((DUAL, "N"), (CANONICAL, "U")):
            col = eng.column(f, kind).entries
            for pair in ("VW", "WV"):
                out = column_to_parabolic(col, 1, pair, basis, k)
                safe = {g: c for g, c in out.items() if max(map(abs, g)) < k}
                assert (safe == {f: ONE}) == (pair == right), (bs, kind, pair)


def test_parabolic_matches_after_basis_change():
    # generic check: the l-check column is the M->N rewrite of the l column
    b = SignedSeq.parse("010")
    k = 3
    eng = engine(Window(b, k))
    for f in [(1, 1, 0), (1, 1, 1), (0, 1, 1)]:
        lcol = eng.column(f, DUAL).entries
        lch, _ = parabolic_columns(b, 1, f, k=k)
        again = column_to_parabolic(lcol, 1, "VW", "N", k)
        assert lch == again


def test_adjacency_transport_rank2():
    b = SignedSeq.parse("01")
    assert adjacency_transport(b, 1, (2, 2), k=5) == ({(3, 3): ONE}, {(1, 1): ONE})
    # distinct values: pure relabel by the swap
    assert adjacency_transport(b, 1, (0, 2), k=5) == ({(2, 0): ONE}, {(2, 0): ONE})


def test_adjacency_transport_rank3_recompute():
    b = SignedSeq.parse("001")
    for f in product(range(-1, 2), repeat=3):
        adjacency_transport(b, 2, f, k=3)


def test_superduality_examples():
    b = SignedSeq.parse("01")
    vac = WedgeIndex((1, 1), "V", ())
    lam1 = WedgeIndex((1, 1), "V", (1,))
    # vacuum tails on both sides reduce to the tensor-level equality
    lv, rv = superduality_compare(b, vac, vac, DUAL, kw=1, k=5)
    assert lv == rv == ONE
    for kind in (DUAL, CANONICAL):
        superduality_compare(b, lam1, lam1, kind, kw=1, k=5)
        superduality_compare(b, lam1, vac, kind, kw=1, k=5)


def test_superduality_nonzero_entry():
    # a mixed tensor+tail pair with a genuinely nonzero off-diagonal entry
    b = SignedSeq.parse("0")
    found = False
    for lam in ((), (1,), (2,), (1, 1)):
        f = WedgeIndex((1,), "V", lam)
        col = wedge_bkl(b, "V", 2, f.flat(2), DUAL)
        for g, c in col.entries.items():
            if g != f.flat(2) and c:
                found = True
    assert found


def test_superduality_order_preservation():
    rng = random.Random(23)
    for _ in range(60):
        rank = rng.randint(0, 2)
        b = SignedSeq(tuple(rng.randint(0, 1) for _ in range(rank)))
        x = WedgeIndex(
            tuple(rng.randint(-2, 2) for _ in range(rank)),
            "V",
            rng.choice([(), (1,), (2, 1), (3,)]),
        )
        y = WedgeIndex(
            tuple(rng.randint(-2, 2) for _ in range(rank)),
            "V",
            rng.choice([(), (1,), (2, 2)]),
        )
        superduality_order_preserved(b, x, y)


def test_bkl_table_export():
    table = BklTable.over_window(Window(SignedSeq.parse("01"), 2), CANONICAL)
    data = table.to_json()
    assert data["kind"] == CANONICAL
    pairs = {(item["g"], item["f"]): item["poly"] for item in data["entries"]}
    assert pairs[("1,1", "2,2")] == {"1": 1}


def test_bad_kind_rejected():
    b = SignedSeq.parse("01")
    for call in (
        lambda: bkl(b, (0, 0), "x"),
        lambda: wedge_bkl(SignedSeq.parse("0"), "V", 1, (0, 1), "x", k=2),
        lambda: engine(Window(b, 2)).column((0, 0), "x"),
        lambda: BklTable.over_window(Window(b, 2), "x"),
    ):
        with pytest.raises(ValueError, match="kind must be 'canonical' or 'dual'"):
            call()


def test_column_json_shape():
    col = engine(Window(SignedSeq.parse("01"), 6)).column((3, 3), DUAL)
    data = col.to_json()
    assert data["b"] == "01" and data["f"] == "3,3"
    assert data["kind"] == DUAL and data["window"] == 6
    assert {"g": "2,2", "poly": {"-1": -1}} in data["column"]
