"""Suite plumbing and the desk-scale 'all' run."""
import hashlib
import time

import pytest

from bklkit.cli import main
from bklkit.verify import run_suite

# sha256 of the stdout of `bklkit verify --suite all` (max rank 2, window 3):
# every check's PASS line, name and detail, in run order
ALL_SUITE_SHA256 = "d9624107668d18d943df56d343e4cdbac8d9db5dd7ef0e95cc95985389eb73ba"


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
