"""Command-line surface: flags, formats, cache, exit codes."""
import ast
import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bklkit
from bklkit import cli
from bklkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bkl_dual_column_json(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "bkl", "--seq", "01", "--f", "3,3", "--kind", "dual", "--window", "6",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["b"] == "01" and data["kind"] == "dual" and data["window"] == 6
    col = {item["g"]: item["poly"] for item in data["column"]}
    assert col["3,3"] == {"0": 1}
    assert col["2,2"] == {"-1": -1}
    assert col["1,1"] == {"-2": 1}


def test_bkl_trivial_column(capsys, tmp_path):
    code, out, _ = run(
        capsys, "bkl", "--seq", "0", "--f", "5", "--kind", "canonical",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    assert [item["g"] for item in data["column"]] == ["5"]


def test_bkl_v2_canonical(capsys, tmp_path):
    code, out, _ = run(
        capsys, "bkl", "--seq", "00", "--f", "2,1", "--kind", "canonical",
        "--cache-dir", str(tmp_path),
    )
    data = json.loads(out)
    col = {item["g"]: item["poly"] for item in data["column"]}
    assert col == {"2,1": {"0": 1}, "1,2": {"1": 1}}


def test_bkl_cache_roundtrip(capsys, tmp_path):
    args = ("bkl", "--seq", "01", "--f", "2,2", "--kind", "dual", "--window", "4",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    files = list(tmp_path.rglob("*.json"))
    assert len(files) == 1
    stamp = files[0].stat().st_mtime_ns
    code2, out2, _ = run(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert files[0].stat().st_mtime_ns == stamp  # hit did not rewrite
    # byte-identical payload on disk vs in-memory encoding
    payload = json.loads(files[0].read_bytes())
    assert payload == json.loads(out1)


def test_bkl_cache_misses_after_an_engine_revision_bump(capsys, tmp_path, monkeypatch):
    from bklkit import cache

    args = ("bkl", "--seq", "01", "--f", "2,2", "--kind", "dual", "--window", "4",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    (old,) = tmp_path.rglob("*.json")
    stamp = old.stat().st_mtime_ns
    revision = cache.ENGINE_REVISION
    monkeypatch.setattr(cache, "ENGINE_REVISION", revision + 1)
    code2, out2, _ = run(capsys, *args)
    new = [p for p in tmp_path.rglob("*.json") if p != old]
    assert len(new) == 1  # a miss: recomputed and stored under a new key
    monkeypatch.setattr(cache, "ENGINE_REVISION", revision)
    code3, out3, _ = run(capsys, *args)
    assert (code1, code2, code3) == (0, 0, 0)
    assert out1 == out2 == out3
    assert old.stat().st_mtime_ns == stamp  # the original revision hits
    assert len(list(tmp_path.rglob("*.json"))) == 2


def test_bkl_corrupt_cache_entry_is_a_miss(capsys, tmp_path):
    args = ("bkl", "--seq", "01", "--f", "2,2", "--kind", "dual", "--window", "4",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    (path,) = tmp_path.rglob("*.json")
    good = path.read_bytes()
    for bad in (good[: len(good) // 2], b"\xff\xfe", b'{"kind": "dual"}', b"[" * 100_000):
        path.write_bytes(bad)
        code2, out2, err2 = run(capsys, *args)
        assert (code1, code2) == (0, 0), err2
        assert out2 == out1
        assert path.read_bytes() == good  # recomputed and rewritten


def planted_entries(good: dict) -> list:
    """Cached payloads that are not the column good is: corrupt, stale, or
    one that decodes to good's column but is not what a cold call prints.
    """
    item, *rest = good["column"]
    wedge = "u" in good
    other = {k: v for k, v in item.items() if k != "u"} if wedge else {**item, "u": "0"}
    diag = [{**it, "poly": {"0": True}} if it["g"] == good["f"] and it.get("u") == good.get("u")
            else it for it in good["column"]]
    padded = {f"{int(e):03d}": v for e, v in item["poly"].items()}  # "-06" for "-6"
    bad = [
        {"column": 5},
        {"column": [{"g": "1,0"}]},
        [good], "column", 5, None,
        {k: v for k, v in good.items() if k != "window"},
        {**good, "b": good["b"][::-1] + "1"},
        {**good, "f": "9" + good["f"]},
        {**good, "kind": "dual" if good["kind"] == "canonical" else "canonical"},
        {**good, "window": "5"},
        {**good, "column": {"g": item["g"]}},
        {**good, "column": ["1,0"]},
        {**good, "column": [{**item, "g": 1}]},
        {**good, "column": [{**item, "poly": [1]}]},
        {**good, "column": [{**item, "poly": {"0": 1.5}}]},
        {**good, "column": [{**item, "poly": {"x": 1}}]},
        {**good, "column": [{**item, "extra": 1}]},
        {**good, "column": [other]},
        {**good, "u": "0"} if not wedge else {k: v for k, v in good.items() if k != "u"},
        {**good, "column": [{**item, "poly": {**item["poly"], "7": 0}}, *rest]},
        {**good, "column": [{**item, "poly": padded}, *rest]},
        {**good, "column": diag},
        {**good, "window": 99},
        {**good, "column": good["column"][::-1]},
        {**good, "column": [{**item, "g": item["g"].replace(",", ", ")}, *rest]},
        # indices the window does not hold, each in its place in sorted order
        {**good, "column": [{**item, "g": item["g"].split(",")[0]}, *rest]},
        {**good, "column": [*good["column"], {**item, "g": ",".join(["99"] * len(good["b"]))}]},
    ]
    # a reversed one-item column, or a one-slot g cut or spaced, is good itself
    return [entry for entry in bad if json.dumps(entry) != json.dumps(good)]


@pytest.mark.parametrize("call", [
    "bkl --seq 01 --f=1,0", "bkl --seq 0 --f=0/1 --wedge V:1",
    "bkl --seq 01 --f=1,1 --kind dual", "bkl --seq 01 --f=1,1/0 --wedge W:1",
])
@pytest.mark.parametrize("fmt", ["json", "csv", "tex"])
def test_bkl_cache_serves_only_the_column_of_the_call(capsys, tmp_path, monkeypatch, call, fmt):
    args = (*call.split(), "--format", fmt)
    code, want, _ = run(capsys, *args, "--no-cache")
    assert code == 0
    cached = (*args, "--cache-dir", str(tmp_path))
    assert run(capsys, *cached) == (0, want, "")
    (path,) = tmp_path.rglob("*.json")
    good = path.read_bytes()
    for bad in planted_entries(json.loads(good)):
        path.write_text(json.dumps(bad))
        assert run(capsys, *cached) == (0, want, ""), bad
        assert path.read_bytes() == good, bad  # recomputed and rewritten
    # the entry the call wrote is served, with nothing recomputed
    monkeypatch.setattr(cli, "bkl", None)
    monkeypatch.setattr(cli, "wedge_bkl", None)
    assert run(capsys, *cached) == (0, want, "")


def test_bkl_no_cache(capsys, tmp_path):
    code, _, _ = run(
        capsys, "bkl", "--seq", "01", "--f", "1,1", "--no-cache",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert not list(tmp_path.rglob("*.json"))


def test_bkl_env_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BKLKIT_CACHE", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "bkl", "--seq", "01", "--f", "1,1")
    assert code == 0
    assert list((tmp_path / "envcache").rglob("*.json"))


# keys recorded from the cache before it moved off pathlib and tempfile; an
# existing cache must still hit
RECORDED_KEYS = (
    (dict(b="01", f=[3, 3], kind="dual", window=6, wedge=None),
     "0ed0b5defc6dd93f930de1645b5c89d2f195edd051dfaba3a8b981c021bbd1ff"),
    (dict(b="0", f=[0, 2, 1], kind="canonical", window=None, wedge={"side": "V", "kw": 2}),
     "b0a4ca4ca74a2f523ec92b6813c2366f582474d552d870aec74e9668b73a1ab2"),
    (dict(b="0101", f=[2, 1, 1, 2], kind="dual", window=2, wedge=None),
     "3c450e647a3dfbeae4abfb78ce3bd6c8a241659ba02fc874c84216013fb8d14a"),
    (dict(b="0", f=[-1, 2, 0], kind="dual", window=None,
          wedge={"side": "V", "kw": 2, "partition": [2, 1]}),
     "6c61e009bdd62f9e679c5d438368fc82d33775b77839f3ba532522dcdaaaecae"),
)


def test_cache_keys_are_unchanged(capsys, tmp_path):
    from bklkit import cache

    for fields, key in RECORDED_KEYS:
        assert cache.cache_key("bkl-column", **fields) == key
    code, _, _ = run(capsys, "bkl", "--seq", "0", "--f=-1", "--wedge", "partition:V:2,1",
                     "--kind", "dual", "--cache-dir", str(tmp_path))
    assert code == 0
    key = RECORDED_KEYS[-1][1]
    assert [p.relative_to(tmp_path).parts for p in tmp_path.rglob("*") if p.is_file()] == [
        (key[:2], key[2:4], f"{key}.json")
    ]


def test_cache_store_is_atomic_and_private(tmp_path, monkeypatch):
    import stat
    import threading

    from bklkit import cache

    key = RECORDED_KEYS[0][1]
    path = tmp_path / key[:2] / key[2:4] / f"{key}.json"
    assert cache.store(str(tmp_path), key, b"{}") == str(path)
    assert path.read_bytes() == b"{}" and cache.load(str(tmp_path), key) == b"{}"
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    # a stale temp file of this process and thread is overwritten, then renamed
    tmp = Path(f"{path}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_bytes(b"stale bytes, longer than the payload")
    cache.store(str(tmp_path), key, b"[]")
    assert path.read_bytes() == b"[]" and not tmp.exists()

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        cache.store(str(tmp_path), key, b"null")
    assert path.read_bytes() == b"[]"
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


def test_bkl_formats(capsys, tmp_path):
    _, out, _ = run(
        capsys, "bkl", "--seq", "01", "--f", "2,2", "--kind", "canonical",
        "--format", "csv", "--at-q1", "--cache-dir", str(tmp_path),
    )
    lines = out.strip().splitlines()
    assert lines[0] == "g,poly,q1"
    assert "1 1,1:1,1" in lines
    _, out, _ = run(
        capsys, "bkl", "--seq", "01", "--f", "2,2", "--kind", "canonical",
        "--format", "tex", "--cache-dir", str(tmp_path),
    )
    assert "q" in out and "&=" in out


def test_bkl_wedge_finite(capsys, tmp_path):
    code, out, _ = run(
        capsys, "bkl", "--seq", "0", "--f", "1/3,1", "--wedge", "V:2",
        "--kind", "dual", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["wedge"] == "V:2" and data["u"] == "3,1"


def test_bkl_wedge_tail_not_strict(capsys, tmp_path):
    for spec, f, tail in (("V:2", "1,1/0,0", "V tail 0,0"), ("V:2", "1,1/0,1", "V tail 0,1"),
                          ("W:2", "1,1/1,0", "W tail 1,0"), ("W:3", "1,1/-1,0,0", "W tail -1,0,0")):
        code, out, err = run(
            capsys, "bkl", "--seq", "01", "--f", f, "--wedge", spec,
            "--cache-dir", str(tmp_path),
        )
        assert code == 2 and out == "", (spec, f, err)
        assert tail in err and "strictly" in err and "Window(" not in err, err
    assert not any(tmp_path.iterdir())


def test_index_outside_the_window_is_a_usage_error(capsys, tmp_path):
    # tensor entry, wedge head, wedge tail, partition tail, char weight
    for argv, idx in (
        (("bkl", "--seq", "01", "--f", "9,9"), "9,9"),
        (("bkl", "--seq", "01", "--f", "1,7/1,0", "--wedge", "V:2"), "1,7,1,0"),
        (("bkl", "--seq", "01", "--f", "1,1/0,-5", "--wedge", "V:2"), "1,1,0,-5"),
        (("bkl", "--seq", "01", "--f", "1,1", "--wedge", "partition:V:5"), "1,1,5"),
        (("char", "--seq", "01", "--lambda", "5,0"), "5,0"),
    ):
        cache = ("--cache-dir", str(tmp_path)) if argv[0] == "bkl" else ()
        code, out, err = run(capsys, *argv, "--window", "3", *cache)
        assert code == 2 and out == "", (argv, err)
        assert f"index {idx} lies outside window level 3" in err, err
        assert "Window(" not in err, err
    assert not any(tmp_path.iterdir())
    # the edge of the box is still inside
    code, out, _ = run(
        capsys, "bkl", "--seq", "01", "--f", "3,-3", "--window", "3", "--no-cache"
    )
    assert code == 0 and json.loads(out)["window"] == 3


def test_bkl_wedge_partition(capsys, tmp_path):
    code, out, _ = run(
        capsys, "bkl", "--seq", "0", "--f", "1", "--wedge", "partition:V:2,1",
        "--kind", "dual", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["wedge"] == "V:2"
    assert data["u"] == "2,0"  # tail of (2,1) at truncation 2


def test_char_irreducible(capsys):
    code, out, _ = run(
        capsys, "char", "--seq", "01", "--lambda", "2,-2", "--kind", "irr",
        "--window", "5",
    )
    assert code == 0
    data = json.loads(out)
    terms = {item["mu"]: item["mult"] for item in data["terms"]}
    assert terms["2,-2"] == 1 and terms["1,-1"] == -1


def test_char_tilting_tex(capsys):
    code, out, _ = run(
        capsys, "char", "--seq", "01", "--lambda", "2,-2", "--kind", "tilt",
        "--format", "tex",
    )
    assert code == 0
    assert out.startswith("[T_{2,-2}]")
    assert "[M_{1,-1}]" in out


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rank2", "--max-window", "4")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def fresh(*args):
    """Run python with args in a new interpreter that imports this bklkit."""
    env = {**os.environ, "PYTHONPATH": str(Path(bklkit.__file__).resolve().parent.parent)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_loads_only_what_bkl_and_char_run():
    # a new interpreter, since this one has imported verify already; only
    # the modules that the import itself adds count
    code = (
        "import json, sys; before = set(sys.modules); import bklkit.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "bklkit.cli" in loaded and "bklkit.canonical" in loaded
    # fock holds only the reference actions that verify, the oracle and
    # the tests check the pipeline against
    for name in ("bklkit.verify", "bklkit.oracle", "bklkit.fock", "dataclasses", "inspect",
                 "argparse", "gettext"):
        assert name not in loaded, name
    # without site, which may preload them, the cache's round trip loads
    # neither pathlib nor tempfile and what tempfile pulls in
    proc = fresh("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "bklkit.cli" in loaded
    for name in ("pathlib", "tempfile", "shutil", "random"):
        assert name not in loaded, name


def test_cli_modules_define_only_what_they_run():
    # every top-level def, class and assigned name of a module that
    # `import bklkit.cli` loads is referenced from those modules outside its
    # own statement, is exported by the package, or heads a bench hook
    # target, and so is every non-dunder method, unless it is a hook target
    # itself; a method counts as referenced only through an attribute
    # (x.name), so a local variable that shares its name does not keep it; a
    # witness or constant that only verify, the oracle or a test uses
    # belongs in verify, oracle or the test, which bkl and char do not load
    code = (
        "import json, sys; import bklkit.cli; print(json.dumps({name: mod.__file__ "
        "for name, mod in sys.modules.items() if name.split('.')[0] == 'bklkit'}))"
    )
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    files = json.loads(proc.stdout)
    assert "bklkit.canonical" in files
    trees = {name: ast.parse(Path(path).read_text()) for name, path in files.items()}
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import tracing
    finally:
        sys.path.remove(str(bench))
    hooked = {(module, path) for module, path, _ in tracing.SPAN_HOOKS.values()}
    kept = {(module, path.split(".")[0]) for module, path in hooked}
    refs: dict = {}  # name -> the ids of the Name and Attribute nodes that carry it
    attrs: dict = {}  # name -> the ids of the Attribute nodes alone
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(id(node))
                attrs.setdefault(node.attr, []).append(id(node))

    def unused(node, names: dict, name: str) -> bool:
        inside = {id(n) for n in ast.walk(node)}
        return all(ref in inside for ref in names.get(name, ()))

    def assigned(node) -> list:
        # the non-dunder names a top-level assignment binds (x = ..., x: T = ...,
        # a, b = ...)
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and not n.id.startswith("__")]

    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                found += [f"{module}.{name}" for name in assigned(node)
                          if name not in bklkit.__all__ and unused(node, refs, name)]
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if ((module, node.name) not in kept and node.name not in bklkit.__all__
                    and unused(node, refs, node.name)):
                found.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in (n for n in node.body if isinstance(n, ast.FunctionDef)):
                path = f"{node.name}.{method.name}"
                dunder = method.name.startswith("__") and method.name.endswith("__")
                if (not dunder and (module, path) not in hooked
                        and unused(method, attrs, method.name)):
                    found.append(f"{module}.{path}")
    assert found == []


def test_package_exports_what_users_call():
    # no name that only the oracle or tests use
    assert bklkit.__all__ == [
        "SignedSeq", "WedgeIndex", "CANONICAL", "DUAL", "bkl", "wedge_bkl",
        "irreducible_character", "tilting_character", "Window", "Laurent",
    ]
    assert all(hasattr(bklkit, name) for name in bklkit.__all__)


def test_verify_imports_its_suites_when_it_runs():
    proc = fresh("-m", "bklkit.cli", "verify", "--suite", "rank2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "PASS  rank2 closed forms VW  [169 columns, window 6]\n"
        "PASS  rank2 closed forms WV  [169 columns, window 6]\n"
    )
    proc = fresh("-m", "bklkit.cli", "verify", "--suite", "nosuch")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "usage error: unknown suite 'nosuch'; try rank2, involution, bar-properties, "
        "triangularity, positivity, adjacency, superduality, truncation, tensor-wedge, "
        "shift, kl-oracle, odd-reflection, parabolic or all\n"
    )


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(
        capsys, "bkl", "--seq", "01", "--f", "3", "--cache-dir", str(tmp_path)
    )
    assert code == 2 and "usage error" in err
    code, _, err = run(
        capsys, "bkl", "--seq", "01", "--f", "1,1", "--wedge", "X:2",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2
    code, _, err = run(capsys, "char", "--seq", "01", "--lambda", "1")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    # a wedge head of the wrong length, a finite wedge index with no tail,
    # and non-integer entries, which name their flag and their text
    for argv, msg in (
        (("--f", "1,1", "--wedge", "partition:V:2,1"), "--f needs 1 tensor entries"),
        (("--f", "1", "--wedge", "V:2"), "--f must be '<1 tensor entries>/<2 tail entries>'"),
        (("--f=0/1", "--wedge", "V:-1"), "bad wedge size in 'V:-1'"),
        (("--f=x",), "--f entry 'x' is not an integer"),
        (("--f=0", "--wedge", "partition:V:a"), "--wedge entry 'a' is not an integer"),
    ):
        code, out, err = run(capsys, "bkl", "--seq", "0", *argv, "--cache-dir", str(tmp_path))
        assert (code, out, err) == (2, "", f"usage error: {msg}\n"), argv
    for argv, msg in (
        (("bkl", "--seq", "0x", "--f=0,1", "--cache-dir", str(tmp_path)),
         "--seq entry 'x' is not an integer"),
        (("char", "--seq", "01", "--lambda=0,y"), "--lambda entry 'y' is not an integer"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"usage error: {msg}\n"), argv
    assert not any(tmp_path.iterdir())


def test_failure_after_parsing_is_internal(capsys, monkeypatch):
    from bklkit import barinv, canonical

    def broken(self, f):
        raise ValueError(f"no bar row for {f}")

    # fresh engines, so no memoized column hides the patched method
    monkeypatch.setattr(canonical, "engine", canonical.BklEngine)
    monkeypatch.setattr(barinv.BarContext, "row", broken)
    code, out, err = run(
        capsys, "bkl", "--seq", "01", "--f", "2,1", "--window", "4", "--no-cache"
    )
    assert code == 1 and out == "", err
    assert "internal failure" in err and "no bar row for (2, 1)" in err, err
    assert "usage error" not in err, err


def test_char_refuses_a_row_entry_that_is_not_bruhat_below(capsys, monkeypatch):
    # the row of (1, 1) on 01, k=2, gets q - q^-1 at (-2, -1): a larger key,
    # not Bruhat-below, so only the descent check every query runs stops it
    from bklkit import barinv, canonical
    from bklkit.scalars import Z_QMQINV

    take = barinv.BarContext.take

    def planted(self, h):
        row = take(self, h)
        if h == (1, 1):
            row[(-2, -1)] = Z_QMQINV
        return row

    # fresh engines, so no memoized column hides the patched method
    monkeypatch.setattr(canonical, "engine", canonical.BklEngine)
    monkeypatch.setattr(barinv.BarContext, "take", planted)
    code, out, err = run(
        capsys, "char", "--seq", "01", "--lambda=1,-1", "--kind", "tilt", "--window", "2"
    )
    assert code == 1 and out == "", (code, out, err)
    assert err.startswith("internal failure: TriangularityError: ") and err.count("\n") == 1, err
    assert "g=(-2, -1) is not Bruhat-below (1, 1)" in err, err


def test_nonpositive_window_is_a_usage_error(capsys, tmp_path):
    for argv in (
        ("bkl", "--seq", "01", "--f", "0,0", "--cache-dir", str(tmp_path)),
        ("char", "--seq", "01", "--lambda", "0,0"),
    ):
        code, out, err = run(capsys, *argv, "--window", "0")
        assert code == 2 and out == "", (argv, err)
        assert "window level 0 is not positive" in err, err
    for flag in ("--max-rank", "--max-window"):
        code, out, err = run(capsys, "verify", "--suite", "triangularity", flag, "0")
        assert code == 2 and out == "", (flag, err)
        assert f"{flag} 0 is not positive" in err, err
    # adjacency needs rank 2: a run at rank 1 has no check to pass
    code, out, err = run(capsys, "verify", "--suite", "adjacency", "--max-rank", "1")
    assert code == 1 and out == "", err
    assert err.strip() == "no check ran for suite adjacency at --max-rank 1 --max-window 3"


def test_unusable_cache_dir_is_a_one_line_failure(capsys, tmp_path, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("")
    code, out, err = run(capsys, "bkl", "--seq", "01", "--f", "1,1", "--cache-dir", str(afile))
    assert code == 1 and out == ""
    assert err.startswith("internal failure: NotADirectoryError: ") and err.count("\n") == 1
    monkeypatch.setenv("BKLKIT_CACHE", str(afile))
    code, out, err = run(capsys, "bkl", "--seq", "01", "--f", "1,1")
    assert code == 1 and err.startswith("internal failure: NotADirectoryError: ")


def test_no_home_directory_is_a_one_line_failure(capsys, tmp_path, monkeypatch):
    import pwd

    def no_entry(uid):
        raise KeyError(f"getpwuid(): uid not found: {uid}")

    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.delenv("BKLKIT_CACHE", raising=False)
    monkeypatch.setattr(pwd, "getpwuid", no_entry)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "bkl", "--seq", "01", "--f", "1,1")
    assert code == 1 and out == ""
    assert err.startswith("internal failure: OSError: cannot find a home directory")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # not even a relative ./~
    code, out, err = run(capsys, "bkl", "--seq", "01", "--f", "1,1", "--no-cache")
    assert code == 0 and json.loads(out)["f"] == "1,1" and err == ""
    assert list(tmp_path.iterdir()) == []


def test_bad_flag_exits_2(capsys):
    for argv in (
        ("bkl", "--seq", "01", "--f", "1,1", "--kind", "bogus"),
        ("bkl", "--seq", "01", "--f", "1,1", "--format", "xml"),
        ("char", "--seq", "01", "--lambda", "1,1", "--format", "xml"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "invalid choice: " in out.err, argv


def test_bkl_json_at_q1_adds_the_evaluated_column(capsys):
    code, out, _ = run(
        capsys, "bkl", "--seq", "01", "--f", "2,2", "--window", "3", "--format", "json",
        "--at-q1", "--no-cache",
    )
    assert code == 0
    assert out == (
        '{"b": "01", "column": [{"g": "1,1", "poly": {"1": 1}}, {"g": "2,2", "poly": {"0": 1}}], '
        '"column_q1": [{"g": "1,1", "mult": 1}, {"g": "2,2", "mult": 1}], '
        '"f": "2,2", "kind": "canonical", "window": 3}\n'
    )


def test_char_csv(capsys):
    code, out, _ = run(
        capsys, "char", "--seq", "01", "--lambda", "1,-1", "--window", "3", "--format", "csv"
    )
    assert code == 0
    assert out == "mu,mult\n-3 3,1\n-2 2,-1\n-1 1,1\n0 0,-1\n1 -1,1\n"


def test_verify_with_a_failing_check_exits_1(capsys, monkeypatch):
    # copy an entry of a 00 column above its index, as in test_verify
    from bklkit.canonical import CANONICAL, BklEngine

    real = BklEngine.table

    def table(self, kind):
        out = {f: dict(col) for f, col in real(self, kind).items()}
        if kind == CANONICAL and self.window.b.bits == (0, 0):
            f, g = next((f, g) for f, col in out.items() for g in col if g != f)
            out[g][f] = out[f][g]
        return out

    monkeypatch.setattr(BklEngine, "table", table)
    code, out, err = run(
        capsys, "verify", "--suite", "triangularity", "--max-rank", "2", "--max-window", "2"
    )
    assert (code, err) == (1, "1 failing checks\n")
    assert out == (
        "PASS  triangularity b=1 k=2  [10 columns]\n"
        "PASS  triangularity b=0 k=2  [10 columns]\n"
        "PASS  triangularity b=11 k=2  [50 columns]\n"
        "PASS  triangularity b=10 k=2  [50 columns]\n"
        "PASS  triangularity b=01 k=2  [50 columns]\n"
        "FAIL  triangularity b=00 k=2  "
        "[AssertionError: entry at ((-1, -2), (-2, -1)) is not below f: q]\n"
    )


# sha256 of the help text under COLUMNS=80, recorded on Python 3.11.7
HELP_SHA256 = {
    "-h": "d1aa4e7231f8416de93c671935725826c9d5fec9223f1bbca0ddcc860bd2c63b",
    "bkl -h": "19cd83ee45cce4ee3431c02fa3999ac7165f0801949384eb09fae87593a44f84",
    "char -h": "ca0336445086806dc3d482a95c608c5120c6b76e11b4b5f3e0d84db1621a64ef",
    "verify -h": "4461dbbaebc6e3ba6f69a4818a1635b4825f5861b4ffd84140b661dac6c35e76",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help per version")
def test_help_text_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for call, want in HELP_SHA256.items():
        with pytest.raises(SystemExit) as exc:
            main(call.split())
        out = capsys.readouterr()
        assert (exc.value.code, out.err) == (0, ""), call
        assert hashlib.sha256(out.out.encode()).hexdigest() == want, (call, out.out)


ROOT = Path(__file__).resolve().parent.parent


def differential_calls() -> list:
    spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [call.split() for call in module.CLI_CALLS]


def readme_calls() -> list:
    return [shlex.split(line)[1:] for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("bklkit ")]


def bench_calls() -> list:
    refs = json.loads((ROOT / "bench" / "refs.json").read_text())["cold-queries"]
    return [item["argv"] for pool in refs.values() for item in pool]


# calls that only argparse reads: help, abbreviations, '--', a value that
# starts with '-' after a space, and usage errors
FALLBACK = [call.split() for call in (
    "bkl --se 01 --f=0,1",
    "bkl --seq 01 --f=0,1 --fo csv",
    "bkl --seq 01 --f -1,0",
    "bkl --seq 01 --f=1,1 --window -1",
    "bkl --seq 01 --f=1,1 --window x",
    "bkl --seq 01 --f=1,1 --window 3.0",
    "bkl --seq 01 --f=1,1 --kind dual --kind canonical",
    "bkl --seq 01 --f=1,1 --no-cache=1",
    "bkl --seq 01 --f=1,1 --kind bogus",
    "-h",
    "--help",
    "bkl --seq 01 --f=1,1 -h",
    "char --help",
    "bkl --seq 01 --f=1,1 --",
    "bkl --seq 01 -- --f=1,1",
    "bkl --f=1,1",
    "",
    "bkl --seq 01 --f",
    "bkl --seq 01 --f=1,1 --bogus",
    "char --seq 01 --lambda=0,0 --bogus",
    "nosuch --seq 01",
)]
# plain calls at the edges: an empty value, a '-' value after '=', defaults
PLAIN = [call.split() for call in (
    "bkl --seq 01 --f=",
    "bkl --seq= --f= --cache-dir=",
    "bkl --seq 01 --f=-1,0 --window=-1",
    "bkl --seq 0 --f=0/1 --wedge V:-1",
    "char --seq 01 --lambda 0,0 --window 3 --format tex",
    "verify",
    "verify --suite=rank2 --max-rank 3",
)]


def outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors and help
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_both_parsers_read_every_call_alike(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("BKLKIT_CACHE", str(tmp_path / "env"))
    monkeypatch.setenv("COLUMNS", "80")
    calls = differential_calls()
    calls += [[*argv, "--cache-dir", str(tmp_path)] for argv in calls if argv[0] == "bkl"]
    calls += readme_calls() + PLAIN
    assert len(readme_calls()) >= 8
    for argv in calls + FALLBACK:
        args = cli._fast_args(argv)
        # every well-formed call takes the fast path, so its gain cannot
        # vanish unnoticed; the differential's own fallback calls do not
        bare = argv[:-2] if argv[-2:-1] == ["--cache-dir"] else argv
        assert (args is None) == (bare in FALLBACK), argv
        if args is not None:
            assert vars(args) == vars(cli.build_parser().parse_args(argv)), argv
            continue
        want = outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_fast_args", lambda argv: None)
            assert outcome(capsys, argv) == want, argv


def test_every_benchmark_call_takes_the_fast_path(tmp_path):
    calls = bench_calls()
    assert calls
    for argv in calls:
        argv = [*argv, "--cache-dir", str(tmp_path)] if argv[0] == "bkl" else argv
        args = cli._fast_args(argv)
        assert args is not None, argv
        assert vars(args) == vars(cli.build_parser().parse_args(argv)), argv
