"""The benchmark's per-layer hooks still find every function they wrap.

bench/tracing.py wraps bklkit functions by name from outside the package
and reports a renamed or deleted target as absent (its metrics turn into
null).  Installing the tracer here makes such a rename fail this suite.
"""
import sys
from pathlib import Path

import bklkit.cli  # noqa: F401  (imports every bklkit module)

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
