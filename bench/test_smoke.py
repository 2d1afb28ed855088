"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bklkit import cache, canonical  # noqa: E402
from bklkit.combinat import SignedSeq  # noqa: E402
from bklkit.fock import Window  # noqa: E402
from bklkit.scalars import ONE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_spec_names_every_traced_metric():
    layers = json.loads((HERE / "layers.json").read_text())
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(tracing.PER_LAYER) == list(layers["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_cached_payload_is_a_failure(tmp_path, monkeypatch):
    real_load = cache.load

    def corrupt_load(root, key):
        data = real_load(root, key)
        return None if data is None else data.replace(b'"0": 1', b'"0": 2', 1)

    monkeypatch.setattr(cache, "load", corrupt_load)
    rounds = workloads.make_rounds("cold-queries", 3, tiny=True)
    res = workloads.run_workload("cold-queries", rounds, 0, tmp_path / "work")
    warm = [op for op in res["ops"] if op.get("phase") == "warm"]
    assert warm and all(op["problems"] for op in warm)
    assert all(not op["problems"] for op in res["ops"] if op.get("phase") == "cold")


def test_corrupted_column_fails_its_checks():
    item = workloads.load_refs()["cold-queries"]["tensor-small"][-1]
    res = workloads.cli_call(item["argv"] + ["--no-cache"], None, 0)
    assert workloads.payload_problems(item["argv"], res["stdout"], item["sha256"]) == []
    payload = json.loads(res["stdout"])
    for entry in payload["column"]:
        entry["poly"] = {e: -v for e, v in entry["poly"].items()}
    bad = json.dumps(payload, sort_keys=True)
    problems = workloads.payload_problems(item["argv"], bad, item["sha256"])
    assert any("digest" in p for p in problems)
    assert any("diagonal" in p for p in problems)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("bar-tables", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_absent_hook_target_reports_null(monkeypatch):
    from bklkit import barinv

    monkeypatch.delattr(barinv.BarTable, "involution_defect")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracing.per_layer_metrics(tracer, 1.0, 0.0)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["bklkit.barinv.BarTable.involution_defect"]
    assert metrics["barinv.involution_defect.s"]["value"] is None
    assert metrics["barinv.check_unitriangular.s"]["value"] == 0.0


def test_gated_timings_scale_with_the_calibration_kernel():
    ops = [{"stratum": "r3k4", "s": 2.0, "rows": 10, "rss_mb": 1.0, "problems": [],
            "cal_s": [2 * calibrate.REFERENCE_S] * 2}]
    gated, named = workloads.end_to_end("bar-tables", ops, tiny=True)
    assert gated["op_p50_s"] == gated["large_op_s"] == 1.0
    assert gated["work_per_s"] == 10.0


def test_wrong_diagonal_fails_the_table_check():
    item = workloads.load_refs()["table-session"]["r3k4"][0]
    bits, k = item["window"]
    window = Window(SignedSeq(tuple(bits)), k)
    kind = canonical.CANONICAL
    canonical.BklTable.over_window(window, kind)
    assert workloads.diagonal_problems(window, kind, None) == []
    f = next(iter(window.basis()))
    canonical.engine(window).column(f, kind).entries[f] = ONE + ONE
    try:
        assert workloads.diagonal_problems(window, kind, None)
    finally:
        canonical.engine.cache_clear()
