"""Spans and counters around the calls into each bklkit module.

The benchmark installs these hooks from outside the package: every hook
replaces a function or method by a wrapper, in every bklkit module that
holds a reference to it (``barinv`` imports ``_act_raw`` by value, for
example, so ``fock._act_raw`` and ``barinv._act_raw`` are both wrapped).
Nothing under ``src/`` is edited.

A span records its name, start, end, parent span and the id of the
operation (query or table) it belongs to.  Spans are kept in memory and
written out at the end of a run.  Two call sites are too hot to keep one
record per call, so their spans are rolled up into the enclosing span
(calls and seconds per parent): ``combinat.bruhat_leq`` and
``fock.act_raw``.  Memo hits of ``BarContext.row`` are counted, not
spanned; their cost is a dictionary lookup charged to the caller.
``Laurent`` arithmetic is counted only, so its time is part of the self
time of whichever layer called it.

Self time of a span is its duration minus the time covered by its
children, so the self times of all spans add up to the time covered by
root spans; ``unattributed.s`` is the rest of the traced wall time.

A hook whose target no longer exists is recorded as absent, and every
metric that needs it is reported with value ``None``.
"""
from __future__ import annotations

import importlib
import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute path, leaf)
SPAN_HOOKS = {
    "combinat.bruhat_leq": ("bklkit.combinat", "bruhat_leq", True),
    "fock.act_raw": ("bklkit.fock", "_act_raw", True),
    "fock.h0_apply": ("bklkit.fock", "h0_apply", False),
    "fock.wedge_project": ("bklkit.fock", "wedge_project", False),
    "fock.weight_classes": ("bklkit.fock", "_weight_classes", False),
    "barinv.row": ("bklkit.barinv", "BarContext.row", False),
    "barinv.wedge_bar_row": ("bklkit.barinv", "wedge_bar_row", False),
    "barinv.bar_table": ("bklkit.barinv", "bar_table", False),
    "barinv.involution_defect": ("bklkit.barinv", "BarTable.involution_defect", False),
    "barinv.check_unitriangular": ("bklkit.barinv", "BarTable.check_unitriangular", False),
    "canonical.candidates": ("bklkit.canonical", "BklEngine.candidates", False),
    "canonical.column": ("bklkit.canonical", "BklEngine.column", False),
    "canonical.bkl": ("bklkit.canonical", "bkl", False),
    "canonical.wedge_bkl": ("bklkit.canonical", "wedge_bkl", False),
    "canonical.table": ("bklkit.canonical", "BklTable.over_window", False),
    "characters.expansion": ("bklkit.characters", "_expansion", False),
    "cache.load": ("bklkit.cache", "load", False),
    "cache.store": ("bklkit.cache", "store", False),
    "cli.main": ("bklkit.cli", "main", False),
}
# Not a function of its own: the k+1 recomputation inside bkl, i.e. the
# second column computed within one canonical.bkl span.
STABILITY = "canonical.stability"
SCALAR_HOOK = ("bklkit.scalars", "Laurent")

LAYERS = ("combinat", "fock", "barinv", "canonical", "characters", "cache", "cli")


def window_volume(window) -> int:
    """Number of indices in a window, computed from its shape."""
    side = 2 * window.k + 1
    wedge = window.wedge[1] if window.wedge else 0
    return side ** len(window.b) * math.comb(side, wedge)


class Tracer:
    """In-memory spans, per-name statistics and counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.absent: list = []
        self._undo: list = []
        self.reset()

    def reset(self):
        """Forget everything recorded; hooks and span names stay."""
        self.stats = [[0, 0.0, 0.0] for _ in self.names]  # calls, total s, self s
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_qid = array("i")
        self.rollup: dict = {}  # (parent span, name id) -> [calls, seconds]
        self.counts: dict = {}
        self.stack: list = []
        self.qid = -1

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0])
        return nid

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, nid: int) -> list:
        idx = len(self.sp_name)
        start = perf_counter()
        self.sp_name.append(nid)
        self.sp_start.append(start)
        self.sp_end.append(start)
        self.sp_parent.append(self.stack[-1][3] if self.stack else -1)
        self.sp_qid.append(self.qid)
        frame = [nid, start, 0.0, idx, 0]  # name, start, child time, span, extra
        self.stack.append(frame)
        return frame

    def close(self, frame: list):
        end = perf_counter()
        nid, start, child, idx, _ = frame
        dur = end - start
        self.sp_end[idx] = end
        st = self.stats[nid]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] += dur

    def leaf(self, nid: int, start: float):
        dur = perf_counter() - start
        st = self.stats[nid]
        st[0] += 1
        st[1] += dur
        st[2] += dur
        parent = -1
        if self.stack:
            top = self.stack[-1]
            top[2] += dur
            parent = top[3]
        acc = self.rollup.get((parent, nid))
        if acc is None:
            self.rollup[(parent, nid)] = [1, dur]
        else:
            acc[0] += 1
            acc[1] += dur

    # -- transport between processes ----------------------------------------

    def export(self) -> dict:
        spans = []
        for i in range(len(self.sp_name)):
            spans.append([self.sp_name[i], self.sp_start[i], self.sp_end[i],
                          self.sp_parent[i], self.sp_qid[i]])
        return {
            "names": list(self.names),
            "stats": self.stats,
            "spans": spans,
            "rollup": [[p, n, c, s] for (p, n), (c, s) in self.rollup.items()],
            "counts": dict(self.counts),
        }

    def merge(self, data: dict):
        remap = [self.name_id(name) for name in data["names"]]
        for nid, (calls, total, selfs) in enumerate(data["stats"]):
            st = self.stats[remap[nid]]
            st[0] += calls
            st[1] += total
            st[2] += selfs
        base = len(self.sp_name)
        for nid, start, end, parent, qid in data["spans"]:
            self.sp_name.append(remap[nid])
            self.sp_start.append(start)
            self.sp_end.append(end)
            self.sp_parent.append(parent + base if parent >= 0 else -1)
            self.sp_qid.append(qid)
        for parent, nid, calls, secs in data["rollup"]:
            key = (parent + base if parent >= 0 else -1, remap[nid])
            acc = self.rollup.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for key, n in data["counts"].items():
            self.count(key, n)

    def dump(self) -> dict:
        """Everything recorded, as one JSON-ready document."""
        data = self.export()
        data["fields"] = ["name", "start", "end", "parent", "qid"]
        data["rollup_fields"] = ["parent", "name", "calls", "seconds"]
        data["absent"] = list(self.absent)
        return data

    # -- queries -------------------------------------------------------------

    def stat(self, name: str) -> tuple:
        nid = self._ids.get(name)
        return tuple(self.stats[nid]) if nid is not None else (0, 0.0, 0.0)

    def self_total(self) -> float:
        return sum(st[2] for st in self.stats)

    # -- hooks ---------------------------------------------------------------

    def install(self):
        """Wrap every hook target that exists; record the ones that do not."""
        self.absent = []
        for name, (module, path, leaf) in SPAN_HOOKS.items():
            target = _resolve(module, path)
            if target is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, raw = target
            fn = _unwrap(raw)
            make = _SPECIAL.get(name, _make_leaf if leaf else _make_span)
            self._patch(owner, attr, raw, _rewrap(raw, make(self, name, fn)))
        target = _resolve(*SCALAR_HOOK)
        if target is None:
            self.absent.append(".".join(SCALAR_HOOK))
        else:
            self._install_scalars(target[2])

    def uninstall(self):
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()

    @contextmanager
    def suspended(self):
        """Take the hooks out for the duration of the block."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _patch(self, owner, attr, raw, new):
        """Replace raw on its owner and in every bklkit module bound to it."""
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for modname, mod in list(sys.modules.items()):
            if mod is owner or not modname.startswith("bklkit"):
                continue
            for key, val in list(vars(mod).items()):
                if val is raw:
                    self._undo.append((mod, key, raw))
                    setattr(mod, key, new)

    def _install_scalars(self, cls):
        tracer = self

        def counting(op, key, monomial):
            def wrapper(a, b):
                counts = tracer.counts
                counts[key] = counts.get(key, 0) + 1
                if monomial and (
                    len(a.c) == 1 or isinstance(b, int) or len(getattr(b, "c", ())) == 1
                ):
                    counts[monomial] = counts.get(monomial, 0) + 1
                return op(a, b)

            return wrapper

        for attr, key, mono in (
            ("__mul__", "scalars.mul.calls", "scalars.mul.monomial_calls"),
            ("__rmul__", "scalars.mul.calls", "scalars.mul.monomial_calls"),
            ("__add__", "scalars.add.calls", None),
            ("__radd__", "scalars.add.calls", None),
        ):
            raw = cls.__dict__.get(attr)
            if raw is None:
                self.absent.append(f"bklkit.scalars.Laurent.{attr}")
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, counting(raw, key, mono))


def _resolve(module: str, path: str):
    """(owner, attribute, raw value) for a hook target, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(parts[-1])
    else:
        raw = getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


def _unwrap(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _rewrap(raw, fn):
    if isinstance(raw, classmethod):
        return classmethod(fn)
    if isinstance(raw, staticmethod):
        return staticmethod(fn)
    return fn


def _make_span(tracer, name, fn):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        frame = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)

    return wrapper


def _make_leaf(tracer, name, fn):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(nid, start)

    return wrapper


def _make_act_raw(tracer, name, fn):
    nid = tracer.name_id(name)

    def wrapper(window, terms, *args, **kwargs):
        tracer.count("fock.act_raw.terms_in", len(terms))
        start = perf_counter()
        try:
            return fn(window, terms, *args, **kwargs)
        finally:
            tracer.leaf(nid, start)

    return wrapper


def _make_row(tracer, name, fn):
    nid = tracer.name_id(name)

    def wrapper(self, f):
        tracer.count("barinv.row.calls")
        memo = getattr(self, "_rows", None)
        if memo is not None and tuple(f) in memo:
            return fn(self, f)
        frame = tracer.open(nid)
        try:
            return fn(self, f)
        finally:
            tracer.close(frame)

    return wrapper


def _make_candidates(tracer, name, fn):
    nid = tracer.name_id(name)

    def wrapper(self, f):
        frame = tracer.open(nid)
        try:
            out = fn(self, f)
        finally:
            tracer.close(frame)
        tracer.count("canonical.candidates.out", len(out))
        tracer.count("canonical.candidates.volume", window_volume(self.window))
        return out

    return wrapper


def _make_bkl(tracer, name, fn):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        frame = tracer.open(nid)
        # "bkl" until its first column call, "bkl+" after: the second
        # column computed inside bkl is the k+1 stability check.
        frame[4] = "bkl"
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)

    return wrapper


def _make_column(tracer, name, fn):
    nid = tracer.name_id(name)
    stability = tracer.name_id(STABILITY)

    def wrapper(self, f, kind, *args, **kwargs):
        memo = getattr(self, "_columns", None)
        if memo is not None and (tuple(f), kind) in memo:
            tracer.count("canonical.column.hits")
        outer = None
        if tracer.stack and tracer.stack[-1][4] in ("bkl", "bkl+"):
            bkl_frame = tracer.stack[-1]
            if bkl_frame[4] == "bkl+":
                outer = tracer.open(stability)
            bkl_frame[4] = "bkl+"
        frame = tracer.open(nid)
        try:
            return fn(self, f, kind, *args, **kwargs)
        finally:
            tracer.close(frame)
            if outer is not None:
                tracer.close(outer)

    return wrapper


def _make_cache_load(tracer, name, fn):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        frame = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if out is not None:
            tracer.count("cache.hits")
        return out

    return wrapper


_SPECIAL = {
    "fock.act_raw": _make_act_raw,
    "barinv.row": _make_row,
    "canonical.candidates": _make_candidates,
    "canonical.bkl": _make_bkl,
    "canonical.column": _make_column,
    "cache.load": _make_cache_load,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# name -> (unit, better, hooks it needs, formula over (tracer, extra))
def _per_layer_table():
    def calls(span):
        return lambda t, x: t.stat(span)[0]

    def total(span):
        return lambda t, x: t.stat(span)[1]

    def selfs(span):
        return lambda t, x: t.stat(span)[2]

    def counter(key):
        return lambda t, x: t.counts.get(key, 0)

    table = {
        "canonical.candidates.s": ("s", "lower", ["canonical.candidates"], total("canonical.candidates")),
        "canonical.candidates.calls": ("count", "lower", ["canonical.candidates"], calls("canonical.candidates")),
        "canonical.candidates.out": ("count", "lower", ["canonical.candidates"], counter("canonical.candidates.out")),
        "canonical.candidates.yield": (
            "ratio", "higher", ["canonical.candidates"],
            lambda t, x: _ratio(t.counts.get("canonical.candidates.out", 0),
                                t.counts.get("canonical.candidates.volume", 0)),
        ),
        "canonical.stability.s": ("s", "lower", ["canonical.bkl", "canonical.column"], total(STABILITY)),
        "canonical.column.self_s": ("s", "lower", ["canonical.column"], selfs("canonical.column")),
        "canonical.column.calls": ("count", "lower", ["canonical.column"], calls("canonical.column")),
        "canonical.column.hit_ratio": (
            "ratio", "higher", ["canonical.column"],
            lambda t, x: _ratio(t.counts.get("canonical.column.hits", 0), t.stat("canonical.column")[0]),
        ),
        "combinat.bruhat_leq.calls": ("count", "lower", ["combinat.bruhat_leq"], calls("combinat.bruhat_leq")),
        "combinat.bruhat_leq.self_s": ("s", "lower", ["combinat.bruhat_leq"], selfs("combinat.bruhat_leq")),
        "fock.act_raw.calls": ("count", "lower", ["fock.act_raw"], calls("fock.act_raw")),
        "fock.act_raw.self_s": ("s", "lower", ["fock.act_raw"], selfs("fock.act_raw")),
        "fock.act_raw.terms_in": ("count", "lower", ["fock.act_raw"], counter("fock.act_raw.terms_in")),
        "fock.h0_apply.calls": ("count", "lower", ["fock.h0_apply"], calls("fock.h0_apply")),
        "fock.h0_apply.self_s": ("s", "lower", ["fock.h0_apply"], selfs("fock.h0_apply")),
        "scalars.mul.calls": ("count", "lower", ["scalars"], counter("scalars.mul.calls")),
        "scalars.mul.monomial_calls": ("count", "lower", ["scalars"], counter("scalars.mul.monomial_calls")),
        "scalars.add.calls": ("count", "lower", ["scalars"], counter("scalars.add.calls")),
        "barinv.row.calls": ("count", "lower", ["barinv.row"], counter("barinv.row.calls")),
        "barinv.row.built": ("count", "lower", ["barinv.row"], calls("barinv.row")),
        "barinv.row.hit_ratio": (
            "ratio", "higher", ["barinv.row"],
            lambda t, x: _ratio(t.counts.get("barinv.row.calls", 0) - t.stat("barinv.row")[0],
                                t.counts.get("barinv.row.calls", 0)),
        ),
        "barinv.row.self_s": ("s", "lower", ["barinv.row"], selfs("barinv.row")),
        "barinv.wedge_bar_row.self_s": ("s", "lower", ["barinv.wedge_bar_row"], selfs("barinv.wedge_bar_row")),
        "barinv.involution_defect.s": ("s", "lower", ["barinv.involution_defect"], total("barinv.involution_defect")),
        "barinv.check_unitriangular.s": (
            "s", "lower", ["barinv.check_unitriangular"], total("barinv.check_unitriangular")),
        "characters.expansion.self_s": ("s", "lower", ["characters.expansion"], selfs("characters.expansion")),
        "cache.load.s": ("s", "lower", ["cache.load"], total("cache.load")),
        "cache.store.s": ("s", "lower", ["cache.store"], total("cache.store")),
        "cache.hit_ratio": (
            "ratio", "higher", ["cache.load"],
            lambda t, x: _ratio(t.counts.get("cache.hits", 0), t.stat("cache.load")[0]),
        ),
        "cli.main.self_s": ("s", "lower", ["cli.main"], selfs("cli.main")),
    }
    for layer in LAYERS:
        table[f"{layer}.self_s"] = (
            "s", "lower", [],
            lambda t, x, layer=layer: sum(
                st[2] for n, st in zip(t.names, t.stats) if n.split(".")[0] == layer
            ),
        )
        table[f"{layer}.spans"] = (
            "count", "lower", [],
            lambda t, x, layer=layer: sum(
                st[0] for n, st in zip(t.names, t.stats) if n.split(".")[0] == layer
            ),
        )
    table["unattributed.s"] = ("s", "lower", [], lambda t, x: x["wall_s"] - t.self_total())
    table["trace.wall_s"] = ("s", "lower", [], lambda t, x: x["wall_s"])
    table["trace.overhead_s"] = ("s", "lower", [], lambda t, x: x["overhead_s"])
    return table


PER_LAYER = _per_layer_table()


def per_layer_metrics(tracer: Tracer, wall_s: float, overhead_s: float) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}; None if absent."""
    missing = set()
    for name, (module, path, _) in SPAN_HOOKS.items():
        if f"{module}.{path}" in tracer.absent:
            missing.add(name)
    if any(a.startswith("bklkit.scalars.Laurent") for a in tracer.absent):
        missing.add("scalars")
    extra = {"wall_s": wall_s, "overhead_s": overhead_s}
    out = {}
    for name, (unit, _, needs, formula) in PER_LAYER.items():
        value = None if missing.intersection(needs) else formula(tracer, extra)
        out[name] = {"value": value, "unit": unit}
    return out
