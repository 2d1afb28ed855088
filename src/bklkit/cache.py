"""Content-addressed result cache, on os and os.path only, for start-up time.

One JSON file per key under a two-level hash directory.  Keys are the
sha256 of a canonical JSON encoding carrying a schema version and an
engine revision, so a bump of either invalidates by key miss.  Writes are
atomic (a 0o600 temp file named for the process and thread, then a rename)
and a cached payload is returned byte-identically.
"""
from __future__ import annotations

import _thread
import hashlib
import json
import os

SCHEMA_VERSION = 1
# Bump whenever a change to the mathematics could alter a cached payload.
ENGINE_REVISION = 1


def cache_key(kind_of_object: str, **fields) -> str:
    payload = dict(schema=SCHEMA_VERSION, engine=ENGINE_REVISION, object=kind_of_object, **fields)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_dir(explicit: str | None = None) -> str:
    root = explicit or os.environ.get("BKLKIT_CACHE")
    if root:
        return root
    home = os.path.expanduser("~")
    if home.startswith("~"):  # no HOME and no passwd entry
        raise OSError("cannot find a home directory; set BKLKIT_CACHE or pass --cache-dir")
    return os.path.join(home, ".cache", "bklkit")


def cache_path(root: str, key: str) -> str:
    return os.path.join(root, key[:2], key[2:4], f"{key}.json")


def load(root: str, key: str) -> bytes | None:
    try:
        with open(cache_path(root, key), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def store(root: str, key: str, payload: bytes) -> str:
    path = cache_path(root, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{_thread.get_ident()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        with open(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path
