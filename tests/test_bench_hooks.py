"""The benchmark's per-layer hooks still find every function they wrap.

bench/tracing.py wraps bklkit functions by name from outside the package
and reports a renamed or deleted target as absent (its metrics turn into
null).  Installing the tracer here makes such a rename fail this suite.
"""
import sys
from pathlib import Path

import bklkit.cli  # noqa: F401  (the query path; the tracer imports fock itself)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_bench_hook_target_exists():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_memo_attributes_the_tracer_reads():
    # tracing.py reads these memos through getattr(..., None) to count
    # column and row cache hits: a rename would zero the counts silently
    from bklkit.barinv import BarContext
    from bklkit.canonical import CANONICAL, BklEngine
    from bklkit.combinat import SignedSeq, Window

    win = Window(SignedSeq.parse("01"), 1)
    eng, ctx = BklEngine(win), BarContext(win)
    assert isinstance(eng._columns, dict) and isinstance(ctx._rows, dict)
    eng.column((1, 1), CANONICAL)
    ctx.row((1, 1))
    assert ((1, 1), CANONICAL) in eng._columns
    assert (1, 1) in ctx._rows
