"""Suite plumbing and the desk-scale 'all' run."""
import hashlib
import time

import pytest

from bklkit.barinv import BarContext
from bklkit.canonical import CANONICAL, DUAL, BklEngine, engine
from bklkit.cli import main
from bklkit.scalars import Laurent, ZERO, Z_QMQINV
from bklkit.verify import _in_degrees, run_suite, suite_triangularity

# sha256 of the stdout of `bklkit verify --suite all` (max rank 2, window 3):
# every check's PASS line, name and detail, in run order
ALL_SUITE_SHA256 = "d9624107668d18d943df56d343e4cdbac8d9db5dd7ef0e95cc95985389eb73ba"


def test_in_degrees():
    # canonical entries lie in qZ[q], dual ones in q^-1Z[q^-1]; a constant
    # term, a mixed sign of exponents or zero is in neither
    assert _in_degrees(Laurent({1: 1, 3: 1}), CANONICAL)
    assert _in_degrees(Laurent({-1: -1}), DUAL)
    for c in (Laurent({0: 1, 1: 1}), ZERO, Z_QMQINV):
        assert not _in_degrees(c, CANONICAL) and not _in_degrees(c, DUAL)
    assert not _in_degrees(Laurent({1: 1, 3: 1}), DUAL)
    assert not _in_degrees(Laurent({-1: -1}), CANONICAL)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_all_suite_desk_scale_under_budget(capsys):
    t0 = time.time()
    rc = main(["verify", "--suite", "all", "--max-rank", "2", "--max-window", "3"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert rc == 0, [line for line in out.splitlines() if not line.startswith("PASS")][:3]
    assert elapsed < 60, f"'all' at rank 2 took {elapsed:.0f}s"
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_SUITE_SHA256


def test_results_carry_details():
    s = run_suite("rank2", max_rank=2, max_window=6)
    assert all(r.detail for r in s.results)


def test_triangularity_reports_an_entry_above_f(monkeypatch):
    # copy an entry t_{g,f} (g < f) of the 00 window into the column of g at
    # f: its degree class is right, only the descent check can catch it
    real = BklEngine.table

    def table(self, kind):
        out = {f: dict(col) for f, col in real(self, kind).items()}
        if kind == CANONICAL and self.window.b.bits == (0, 0):
            f, g = next((f, g) for f, col in out.items() for g in col if g != f)
            out[g][f] = out[f][g]
        return out

    monkeypatch.setattr(BklEngine, "table", table)
    failed = [r for r in suite_triangularity(2, 2).results if not r.ok]
    assert [r.name for r in failed] == ["triangularity b=00 k=2"]
    assert "is not below f" in failed[0].detail


def test_triangularity_catches_a_bar_entry_the_engine_lets_through(monkeypatch):
    # (-2, -1) has a larger key than (1, 1) but is not below it, so the
    # engine's key test takes q - q^-1 there; the suite must fail instead
    real = BarContext.row

    def row(self, f):
        out = real(self, f)
        if self.bits == (0, 1) and self.k == 2 and tuple(f) == (1, 1):
            out = {**out, (-2, -1): Laurent({1: 1, -1: -1})}
        return out

    engine.cache_clear()
    monkeypatch.setattr(BarContext, "row", row)
    try:
        failed = [r for r in suite_triangularity(2, 2).results if not r.ok]
    finally:
        engine.cache_clear()
    assert [r.name for r in failed] == ["triangularity b=01 k=2"]
    assert "(-2, -1)" in failed[0].detail, failed[0].detail


def test_adjacency_suite_computes_each_parabolic_column_pair_once(monkeypatch):
    # the receiving side of one (b, kappa) is shared across its f: an f'
    # that f^L of one f and f^U of another both reach is computed once
    from bklkit import verify

    calls = []
    real = verify.parabolic_columns

    def counted(b, kappa, f, k):
        calls.append((b, kappa, tuple(f), k))
        return real(b, kappa, f, k)

    monkeypatch.setattr(verify, "parabolic_columns", counted)
    assert verify.suite_adjacency(3).ok
    assert len(calls) == len(set(calls)) > 0
