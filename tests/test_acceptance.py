"""Acceptance gate: one exact, property-based criterion per test.

Every criterion prints a PASS/FAIL line (visible with ``pytest -s``); the
test names mirror the criteria so a plain ``pytest -v`` run reads as the
acceptance report.  All comparisons are coefficient-exact.
"""
import time
from itertools import product

import pytest

from bklkit.verify import (
    Suite,
    suite_adjacency,
    suite_involution,
    suite_kl_oracle,
    suite_odd_reflection,
    suite_positivity,
    suite_rank2,
    suite_shift,
    suite_superduality,
    suite_tensor_wedge,
    suite_triangularity,
    suite_truncation,
)


def _gate(name: str, suite: Suite, elapsed: float | None = None):
    failures = [r for r in suite.results if not r.ok]
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    line = f"{'PASS' if not failures else 'FAIL'}  {name}{stamp}"
    print(line)
    for r in failures[:5]:
        print(f"      counterexample: {r.name}: {r.detail[:300]}")
    assert not failures, f"{name}: {len(failures)} failing checks"


def test_criterion_01_rank2_exactness():
    t0 = time.time()
    s = suite_rank2(max_window=6)
    elapsed = time.time() - t0
    _gate("criterion 1: rank-2 closed forms, windows <= 6", s, elapsed)
    assert elapsed < 1.0, f"rank-2 suite took {elapsed:.2f}s (budget 1s)"


def test_criterion_02_involution():
    t0 = time.time()
    s = suite_involution(max_rank=4, max_window=4)
    elapsed = time.time() - t0
    _gate("criterion 2: bar involution identity, m+n <= 4, k <= 4", s, elapsed)
    assert elapsed < 120.0, f"involution suite took {elapsed:.0f}s (budget 2min)"


def test_criterion_03_triangularity():
    s = suite_triangularity(max_rank=3, max_window=3)
    _gate("criterion 3: diagonals 1, entries below f, t in qZ[q], l in q^-1Z[q^-1]", s)


def test_criterion_04_positivity():
    s = suite_positivity(max_rank=4, max_window=4)
    _gate("criterion 4: t in N[q], l(-q^-1) in N[q], Chevalley positivity", s)


def test_criterion_05_shift_invariance():
    s = suite_shift()
    _gate("criterion 5: shift invariance on 100 random (b, f, p)", s)


def test_criterion_06_adjacency():
    s = suite_adjacency(max_rank=4)
    _gate("criterion 6: adjacent-pair transports, m+n <= 4", s)


def test_criterion_07_superduality():
    s = suite_superduality(max_rank=3)
    _gate("criterion 7: combinatorial super duality, |lambda| <= 3", s)


def test_criterion_08_truncation():
    s = suite_truncation(max_rank=3, max_window=3)
    _gate("criterion 8: truncation consistency, m+n <= 3, k <= 3", s)


def test_criterion_09_tensor_vs_wedge():
    s = suite_tensor_wedge(max_rank=2)
    _gate("criterion 9: tensor-vs-wedge identities, kw <= 2, m+n <= 2", s)


def test_criterion_10_classical_endpoint():
    s = suite_kl_oracle()
    _gate("criterion 10: Hecke-KL oracle endpoint and typical weights", s)


def test_criterion_11_odd_reflection_coherence():
    s = suite_odd_reflection()
    _gate("criterion 11: odd-reflection character coherence", s)
