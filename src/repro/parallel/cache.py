"""Content-addressed on-disk result cache for experiment jobs.

A cache key is the sha256 of two things:

* the **job spec** — the canonical JSON (sorted keys) of the picklable
  dict that fully determines the job (architecture, workload
  parameters, client count, scale, network model, seed, ...); and
* the **code fingerprint** — a sha256 over every ``repro`` source file
  (path + bytes).  Any edit anywhere in ``src/repro`` changes the
  fingerprint and therefore invalidates *every* cached result.

Because every job in this repo is a pure function of its spec (the
simulator is deterministic and all randomness is seeded from the spec),
"same key" really does mean "same result", and the cache can hand back
the stored value instead of re-simulating the cell.  This is coarse on
purpose: a content hash of the whole package never serves a stale
result, at the cost of a full re-run after any code change — the right
trade for a result cache whose only job is to make *unchanged* figure
panels free to re-run.

Values are stored as pickles under ``<root>/<key[:2]>/<key>.pkl`` and
written atomically (tmp file + ``os.replace``), so concurrent workers
racing to fill the same key are harmless.  The root defaults to
``.repro-cache`` under the current directory and can be pointed
elsewhere via ``REPRO_CACHE_DIR`` or the ``root`` argument.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle

__all__ = ["ResultCache", "code_fingerprint", "spec_key"]

_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """sha256 over every ``repro`` source file, cached per process."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        pkg = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(pkg.rglob("*.py")):
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def spec_key(spec: dict, fingerprint: str | None = None) -> str:
    """Content-addressed key for ``spec`` under the current code."""
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    fp = fingerprint if fingerprint is not None else code_fingerprint()
    return hashlib.sha256(f"{fp}\0{canon}".encode()).hexdigest()


class ResultCache:
    """Pickle store addressed by :func:`spec_key`.

    ``get`` / ``put`` never raise on cache trouble (corrupt pickle,
    missing directory, unpicklable value): a broken cache must degrade
    to "miss", never break the run that was only trying to go faster.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        root = root or os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    def key_for(self, spec: dict) -> str:
        return spec_key(spec)

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """Cached value for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            # A damaged pickle fails in many ways (UnpicklingError,
            # ValueError, OverflowError, MemoryError, ...): all are a
            # miss, and run_jobs re-stores the entry.
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic; best-effort)."""
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
