"""Caching utilities: the on-disk artifact cache and an in-memory LRU.

Training even a small CNN in pure numpy takes tens of seconds, so every
expensive artifact (trained models, fitted validators, searched corner-case
suites) is cached on disk keyed by a stable hash of its configuration.
Entries are pickled; the cache directory defaults to ``.artifacts/`` at the
repository root and can be relocated with the ``REPRO_CACHE_DIR``
environment variable.

:class:`LRUCache` is the in-memory counterpart used on hot paths — the
batched validation engine keys activation/score results on a content hash
of the input batch so repeated scoring of the same images (threshold
calibration followed by flagging, monitoring replays) skips the forward
pass and the kernel evaluations entirely.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable

import json

import numpy as np


def _encode_opaque(value: Any) -> dict:
    """JSON stand-in for a non-serialisable config value: type + repr.

    ``json.dumps(default=str)`` used to collapse distinct non-JSON values
    whose ``str()`` coincide (e.g. ``Decimal("1")`` and the string
    ``"1"``, or two enum members from different enums with the same
    member name) into the same artifact key — silent cache aliasing.
    Encoding the fully-qualified type alongside ``repr`` keeps the key
    stable across runs while separating values that merely print alike.
    """
    kind = type(value)
    return {
        "__opaque__": f"{kind.__module__}.{kind.__qualname__}",
        "__repr__": repr(value),
    }


def _stable_hash(config: Any) -> str:
    """Hash an arbitrary JSON-serialisable config into a short hex key.

    Values JSON cannot serialise are encoded as type + repr (see
    :func:`_encode_opaque`); pure-JSON configs hash exactly as before, so
    existing on-disk artifact keys stay valid.
    """
    payload = json.dumps(config, sort_keys=True, default=_encode_opaque).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def hash_array(*arrays: np.ndarray) -> str:
    """Content hash of one or more arrays, suitable as an LRU cache key.

    Includes shape and dtype so that e.g. a (4, 9) float32 batch and its
    (36,) flattened view hash differently.
    """
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class ArtifactIntegrityError(RuntimeError):
    """A cached artifact failed its content-checksum verification."""


class _HashingWriter:
    """File-object wrapper that feeds every written byte to a digest."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self._fh.write(data)


class ArtifactCache:
    """A content-addressed pickle cache with integrity verification.

    Keys are ``(name, config)`` pairs; ``config`` must be JSON-serialisable
    (anything else is stringified, which is fine as long as the string is
    stable across runs).

    Every stored pickle gets a ``<file>.sha256`` sidecar with the digest of
    its bytes; :meth:`load` verifies it, and an entry whose sidecar is
    missing, stale, or whose pickle no longer matches is *quarantined* —
    moved into a ``.quarantine/`` subdirectory for post-mortem inspection —
    rather than half-loaded or silently deleted.
    """

    #: Subdirectory (under the cache root) that corrupt entries are moved to.
    QUARANTINE_DIR = ".quarantine"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str, config: Any) -> Path:
        """Deterministic cache path for a (name, config) pair."""
        return self.root / f"{name}-{_stable_hash(config)}.pkl"

    def checksum_path_for(self, name: str, config: Any) -> Path:
        """Path of the checksum sidecar written beside each pickle."""
        path = self.path_for(name, config)
        return path.with_name(path.name + ".sha256")

    def contains(self, name: str, config: Any) -> bool:
        """Whether a cached entry exists for (name, config)."""
        return self.path_for(name, config).exists()

    def load(self, name: str, config: Any) -> Any:
        """Unpickle the cached value for (name, config), verifying integrity.

        The pickle's bytes are hashed and compared to the ``.sha256``
        sidecar before unpickling. A missing sidecar or a mismatched
        digest quarantines the entry and raises
        :class:`ArtifactIntegrityError` — a truncated or bit-flipped
        artifact is never half-loaded.
        """
        path = self.path_for(name, config)
        with open(path, "rb") as fh:
            payload = fh.read()
        sidecar = self.checksum_path_for(name, config)
        if not sidecar.exists():
            self.quarantine(name, config)
            raise ArtifactIntegrityError(
                f"{path.name}: checksum sidecar missing; entry quarantined"
            )
        expected = sidecar.read_text().strip()
        actual = hashlib.sha256(payload).hexdigest()
        if actual != expected:
            self.quarantine(name, config)
            raise ArtifactIntegrityError(
                f"{path.name}: checksum mismatch (expected {expected[:12]}…, "
                f"got {actual[:12]}…); entry quarantined"
            )
        return pickle.loads(payload)

    def store(self, name: str, config: Any, value: Any) -> None:
        """Pickle ``value`` under (name, config), atomically, with checksum.

        The temp file carries a per-write unique suffix (pid + random), so
        concurrent processes building the same artifact each write their
        own staging file and the final ``os.replace`` promotes a complete
        pickle — never a half-written one another writer clobbered. The
        digest is computed while writing and landed in a ``.sha256``
        sidecar (same staging discipline) after the pickle is promoted; a
        crash between the two leaves a sidecar-less entry, which
        :meth:`get_or_build` treats as stale and rebuilds.
        """
        path = self.path_for(name, config)
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "wb") as fh:
                writer = _HashingWriter(fh)
                pickle.dump(value, writer, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # only on a failed write; replace consumed it
                tmp.unlink()
        sidecar = self.checksum_path_for(name, config)
        sidecar_tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}-{uuid.uuid4().hex}.tmp")
        try:
            sidecar_tmp.write_text(writer.digest.hexdigest() + "\n")
            os.replace(sidecar_tmp, sidecar)
        finally:
            if sidecar_tmp.exists():
                sidecar_tmp.unlink()

    def discard(self, name: str, config: Any) -> bool:
        """Remove the entry for (name, config); returns whether one existed."""
        path = self.path_for(name, config)
        sidecar = self.checksum_path_for(name, config)
        if sidecar.exists():
            sidecar.unlink()
        if path.exists():
            path.unlink()
            return True
        return False

    def quarantine(self, name: str, config: Any) -> Path | None:
        """Move a corrupt entry (and sidecar) into ``.quarantine/``.

        Returns the quarantined pickle's new path, or ``None`` if no entry
        existed. Quarantined files keep their name plus a unique suffix,
        so repeated corruption of the same key never clobbers evidence.
        """
        path = self.path_for(name, config)
        if not path.exists():
            return None
        hole = self.root / self.QUARANTINE_DIR
        hole.mkdir(parents=True, exist_ok=True)
        token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        destination = hole / f"{path.name}.{token}"
        os.replace(path, destination)
        sidecar = self.checksum_path_for(name, config)
        if sidecar.exists():
            os.replace(sidecar, hole / f"{sidecar.name}.{token}")
        return destination

    def get_or_build(self, name: str, config: Any, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``(name, config)``, building it once.

        A cache entry that fails integrity verification (missing or stale
        checksum sidecar, bit-flipped or truncated bytes) or that cannot
        be unpickled (a foreign file, an artifact pickled against a class
        that has since changed) is treated as a miss: the entry is
        quarantined and rebuilt rather than poisoning every future run.
        """
        if self.contains(name, config):
            try:
                return self.load(name, config)
            except ArtifactIntegrityError:
                pass  # load already quarantined the entry
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, ValueError):
                self.quarantine(name, config)
        value = build()
        self.store(name, config, value)
        return value

    def clear(self) -> int:
        """Delete every cache entry; returns the number of pickles removed.

        Checksum sidecars are removed alongside their pickles; quarantined
        evidence under ``.quarantine/`` is left untouched.
        """
        removed = 0
        for path in self.root.glob("*.pkl"):
            path.unlink()
            removed += 1
        for sidecar in self.root.glob("*.pkl.sha256"):
            sidecar.unlink()
        return removed


class _InFlight:
    """Single-flight rendezvous for one key's in-progress compute."""

    __slots__ = ("event", "value", "success")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.success = False


class LRUCache:
    """A bounded in-memory cache with least-recently-used eviction.

    Both reads and writes refresh an entry's recency; once ``maxsize``
    entries are held, inserting a new key evicts the stalest one. Hit and
    miss counts are tracked so callers (and tests) can audit cache
    effectiveness.

    All bookkeeping is guarded by a lock, so validation engines shared
    across scoring threads never corrupt the recency ordering or the
    counters. ``get_or_compute`` runs ``compute`` outside the lock and is
    **single-flight**: of N threads that miss the same key concurrently,
    exactly one (the leader) runs ``compute`` — counted as the one miss —
    while the rest block on the leader's result and count as hits, so
    ``hits + misses`` always equals the number of requests and the
    expensive compute runs once. A slow compute never blocks lookups of
    other keys. ``compute`` must not re-enter the cache on the *same*
    key (it would rendezvous with itself); other keys are fine.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._flights: dict[Hashable, _InFlight] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not touch recency or hit/miss counters."""
        with self._lock:
            return key in self._entries

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)  # locks don't pickle; restore a fresh one
        state.pop("_flights", None)  # in-flight computes are process-local
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._flights = {}

    def _lookup(self, key: Hashable) -> tuple[bool, Any]:
        """One locked probe: ``(hit, value)`` with counters updated."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return True, self._entries[key]
            self.misses += 1
            return False, None

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, marking it most recently used on a hit."""
        hit, value = self._lookup(key)
        return value if hit else default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        cache_if: Callable[[Any], bool] | None = None,
    ) -> Any:
        """Return the cached value for ``key``, computing once on miss.

        Single-flight: concurrent misses on the same key elect one leader
        to run ``compute``; the others wait and adopt its result (counted
        as hits, so ``hits + misses`` tracks requests exactly). If the
        leader's ``compute`` raises, the exception propagates to the
        leader and the waiters retry — one of them becomes the new
        leader. ``cache_if`` (optional) vetoes storing the computed value
        in the cache; the value is still returned — and still shared with
        concurrent waiters — it just isn't memoised for later calls.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return self._entries[key]
                flight = self._flights.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._flights[key] = flight
                    self.misses += 1
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.event.wait()
                if flight.success:
                    with self._lock:
                        self.hits += 1
                    return flight.value
                continue  # the leader failed; race to become the next one
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    self._flights.pop(key, None)
                flight.event.set()
                raise
            if cache_if is None or cache_if(value):
                self.put(key, value)
            flight.value = value
            flight.success = True
            with self._lock:
                self._flights.pop(key, None)
            flight.event.set()
            return value

    def keys(self) -> list[Hashable]:
        """Keys from least to most recently used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry; counters are preserved."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction accounting plus current size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }


def default_cache() -> ArtifactCache:
    """The repository-wide cache (``.artifacts/`` or ``$REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        root = Path(__file__).resolve().parents[3] / ".artifacts"
    return ArtifactCache(root)
