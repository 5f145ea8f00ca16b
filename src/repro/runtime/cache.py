"""Content-addressed on-disk cache for deterministic run results.

Two tiers store results here: the sweep fabric
(:class:`~repro.runtime.sweep.SweepSpec` ``cache=``, its crash-tolerant
resume store) and the serve tier (:class:`~repro.serve.SolveService`
``cache=``, its cross-request result memo).  Both describe a run by a
plain, deterministic request — seeds, scenario and solver parameters —
so the request fully determines the result up to the code that computes
it.  :class:`RunResultCache` exploits that:

* the **cache key** (:func:`derive_cache_key`) is a SHA-256 over a
  namespace (``"sweep"``, ``"serve"``, ...), a canonical token of the
  request (dataclasses, mappings, sequences, NumPy arrays and scalars
  are all reduced to a stable JSON form) and a **code fingerprint**
  hashing every ``repro`` source file, so editing the simulator
  invalidates all prior entries instead of serving stale results;
* entries are pickled results stored under
  ``<root>/<key[:2]>/<key>.pkl`` — written atomically (temp file +
  fsync + rename) with a SHA-256 payload checksum verified on every
  read, so concurrent sweep workers may share one cache directory and a
  corrupted entry is quarantined (renamed aside, counted) instead of
  being served or silently lost;
* requests that contain objects without a stable canonical form (e.g. a
  closure) get no key, so callers bypass the cache rather than mis-key.

The cache is opt-in: callers pass a :class:`RunResultCache` instance.
``REPRO_RUN_CACHE_DIR`` overrides the default location
(``~/.cache/izhirisc-repro/runs``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional, Union

import numpy as np

__all__ = [
    "RunResultCache",
    "UncacheableRequestError",
    "code_fingerprint",
    "derive_cache_key",
]

#: Bumped whenever the key derivation or the stored format changes.
_FORMAT_VERSION = 1

#: Leads every checksummed cache entry; followed by a 32-byte SHA-256 of
#: the pickled payload, then the payload itself.
_ENTRY_MAGIC = b"RPROCSH1"
_SHA_BYTES = 32


class UncacheableRequestError(TypeError):
    """A request contains an object with no stable canonical form."""


def _token(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-serialisable structure.

    Two requests produce the same token iff they describe the same run;
    anything we cannot canonicalise raises
    :class:`UncacheableRequestError` so the caller bypasses the cache
    rather than risking a collision.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, Enum):
        return {"__enum__": f"{type(obj).__qualname__}.{obj.name}"}
    if isinstance(obj, np.generic):
        return _token(obj.item())
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return {"__ndarray__": [str(obj.dtype), list(obj.shape), digest]}
    # Objects may declare their own canonical form through the
    # ``cache_token`` protocol (e.g. ``ConstraintGraph``, which is not a
    # dataclass and whose identity is structural).  The protocol wins
    # over the generic dataclass reduction so classes can exclude
    # incidental fields (names, caches) from their cache identity.
    token_method = getattr(obj, "cache_token", None)
    if callable(token_method) and not isinstance(obj, type):
        return {"__object__": type(obj).__qualname__, "token": _token(token_method())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__qualname__,
            "fields": {f.name: _token(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, Mapping):
        # Keys are tokenised like values (str(1) == str("1") would
        # collide) and pairs are ordered by their serialised form, which
        # is total where tuple comparison of arbitrary tokens is not.
        items = [[_token(key), _token(value)] for key, value in obj.items()]
        items.sort(key=lambda pair: json.dumps(pair, sort_keys=True, separators=(",", ":")))
        return {"__mapping__": items}
    if isinstance(obj, (list, tuple)):
        return [_token(item) for item in obj]
    raise UncacheableRequestError(
        f"cannot derive a stable cache key from {type(obj).__qualname__!r}"
    )


def derive_cache_key(backend_name: str, request: Any) -> Optional[str]:
    """Content-addressed key of one request under a namespace.

    ``backend_name`` namespaces the key (the sweep fabric uses
    ``"sweep"``, the serve tier ``"serve"``); the serve tier also derives
    request identities from it when running cache-less.  Returns
    ``None`` when the request contains an object with no stable
    canonical form.
    """
    try:
        token = _token(request)
    except UncacheableRequestError:
        return None
    payload = json.dumps(
        {
            "version": _FORMAT_VERSION,
            "backend": backend_name,
            "request": token,
            "code": code_fingerprint(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (computed once per process).

    Part of every cache key: a cached result is only ever served by the
    exact code revision that produced it.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


class RunResultCache:
    """On-disk store mapping a :func:`derive_cache_key` key to a result.

    Parameters
    ----------
    root:
        Cache directory.  Defaults to ``$REPRO_RUN_CACHE_DIR`` or
        ``~/.cache/izhirisc-repro/runs``.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        if root is None:
            default = Path.home() / ".cache" / "izhirisc-repro" / "runs"
            root = os.environ.get("REPRO_RUN_CACHE_DIR") or default
        self.root = Path(root)
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    def _quarantine(self, path: Path) -> None:
        """Rename a damaged entry aside (kept for post-mortems) and count it.

        Quarantined files carry a ``.quarantined`` suffix the loader
        never matches, so the slot reads as a miss and the next store
        rewrites it — but the corrupt bytes stay available for
        inspection instead of silently vanishing.
        """
        try:
            os.replace(path, path.with_name(path.name + ".quarantined"))
            self.quarantined += 1
        except OSError:
            path.unlink(missing_ok=True)

    def get(self, key: str, *, expect: Optional[type] = None) -> Optional[Any]:
        """Load a cached result (``None`` on miss or corrupt entry).

        Every entry is verified on read: bytes without the :meth:`put`
        framing, or a payload whose SHA-256 does not match — bit rot,
        torn write, tampering — are **quarantined** (renamed aside and
        counted in :attr:`quarantined`) and reported as a miss.  With
        ``expect`` set, an entry that unpickles to a different type — an
        entry written by an incompatible tool — is unlinked and reported
        as a miss, never handed to the caller.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        head = len(_ENTRY_MAGIC) + _SHA_BYTES
        payload = data[head:]
        try:
            if not data.startswith(_ENTRY_MAGIC) or (
                hashlib.sha256(payload).digest() != data[len(_ENTRY_MAGIC) : head]
            ):
                raise ValueError("cache entry framing or checksum mismatch")
            result = pickle.loads(payload)
        except Exception:
            self._quarantine(path)
            return None
        if expect is not None and not isinstance(result, expect):
            path.unlink(missing_ok=True)
            return None
        return result

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` (atomic, fsynced, checksummed).

        The entry is written to a temp file (magic + payload SHA-256 +
        pickled payload), fsynced and renamed into place, so a crash
        mid-store can never leave a half-written entry under the key —
        and a damaged one can never be mistaken for a result on read.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_ENTRY_MAGIC)
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> None:
        """Delete every entry (the directory itself is recreated lazily)."""
        shutil.rmtree(self.root, ignore_errors=True)
