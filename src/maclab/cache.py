"""Checksummed on-disk cache for expensive exact results.

Entries are keyed by (operation, parameters, source hash), where the
source hash is a sha256 over the package's own Python files, so an entry
written by other code is never served.  Payloads are canonical JSON,
stored alongside their sha256.  A corrupted entry is silently discarded
and recomputed; a failed write only warns.  Because every serialization
in the package is canonical and reductions are order-fixed, a cache hit
is byte-identical to recomputation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

__all__ = ["ResultCache", "source_hash"]

ENV_VAR = "MACLAB_CACHE_DIR"


@functools.cache
def source_hash() -> str:
    """sha256 over the package's ``*.py`` files in name order; computed on
    first use, once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class ResultCache:
    def __init__(self, directory: str | os.PathLike | None = None, enabled: bool = True):
        if directory is None:
            directory = os.environ.get(ENV_VAR)
        self.enabled = enabled and directory is not None
        self.directory = Path(directory) if directory is not None else None
        if self.enabled:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, op: str, params: dict) -> Path:
        key_src = json.dumps({"op": op, "params": params, "source": source_hash()},
                             sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(key_src.encode()).hexdigest()[:32]
        return self.directory / f"{op.replace(' ', '_')}-{digest}.json"

    def get(self, op: str, params: dict):
        if not self.enabled:
            return None
        path = self._path(op, params)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
            if not isinstance(entry, dict):   # valid JSON, but not an entry
                path.unlink(missing_ok=True)
                return None
            payload = entry["payload"]
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            if entry.get("sha256") != hashlib.sha256(blob.encode()).hexdigest():
                path.unlink(missing_ok=True)
                return None
            if entry.get("source") != source_hash():
                return None
            return payload
        except (json.JSONDecodeError, KeyError, OSError):
            path.unlink(missing_ok=True)
            return None

    def put(self, op: str, params: dict, payload) -> None:
        """Store ``payload``; each writer goes through its own temporary
        file, and a write that fails is reported as a warning."""
        if not self.enabled:
            return
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        entry = {
            "source": source_hash(),
            "op": op,
            "params": params,
            "sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "payload": payload,
        }
        path = self._path(op, params)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=path.stem + "-", suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                Path(tmp).unlink(missing_ok=True)
            warnings.warn(f"result cache: could not write {path.name}: {exc}", RuntimeWarning)
