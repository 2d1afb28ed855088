"""Content-addressed result cache.

One JSON file per key under a two-level hash directory.  Keys are the
sha256 of a canonical JSON encoding carrying a schema version and an
engine revision, so a bump of either invalidates by key miss.  Writes are
atomic (temp file + rename) and a cached payload is returned
byte-identically.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

SCHEMA_VERSION = 1
# Bump whenever a change to the mathematics could alter a cached payload.
ENGINE_REVISION = 1


def cache_key(kind_of_object: str, **fields) -> str:
    payload = {"schema": SCHEMA_VERSION, "engine": ENGINE_REVISION, "object": kind_of_object}
    payload.update(fields)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_dir(explicit: str | None = None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("BKLKIT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bklkit"


def cache_path(root: Path, key: str) -> Path:
    return root / key[:2] / key[2:4] / f"{key}.json"


def load(root: Path, key: str) -> bytes | None:
    path = cache_path(root, key)
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def store(root: Path, key: str, payload: bytes) -> Path:
    path = cache_path(root, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
