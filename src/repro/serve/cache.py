"""Content-addressed result cache: in-memory LRU over an optional
on-disk store, and the one LRU table class the serve layer keeps.

Keys are sha256 hex digests (see :mod:`repro.serve.keys`) — the content
address of *what was asked*: the SOC digest(s) plus the normalized job
configuration.  Values are the serialized result documents, stored as
the exact text that first produced them and served without being
parsed, so a hit returns a **bit-identical** result to the miss that
populated it.

Two tiers:

* an in-memory LRU (``capacity`` entries, thread-safe) absorbs the hot
  set — users sweeping the same benchmark chips hit here in
  microseconds;
* an optional directory store (``cache_dir``) persists every entry as
  ``<key>.json`` (written by :func:`repro.util.publish`: temp file,
  fsync, rename), so cache contents survive server restarts and can be
  shared between servers on one filesystem.  A memory miss that hits
  disk is promoted back into the LRU.

A disk entry is a first line ``sha256:<hex digest of the body>`` and
then the body, the stored text in UTF-8.  Every disk read checks the
digest: an entry that fails it (torn, flipped, or written without one)
is a miss, never served, and is moved aside to ``<key>.corrupt``; the
recomputed result then writes ``<key>.json`` afresh.

A disk read that raises ``OSError`` is a miss, a write that raises one
leaves the entry in memory only, and both count in ``disk_errors``.
Disk I/O runs outside the cache lock, so it holds up no memory hit.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Optional

from repro.util import publish


_DIGEST_PREFIX = b"sha256:"


class LruTable:
    """A mapping in least-recently-used order, trimmed to ``cap``.

    ``get`` and ``put`` make an entry the most recent; ``put`` and
    ``trim`` then evict the coldest entries ``evictable`` accepts until
    the table is back at ``cap``, counting them in ``evictions``.
    ``cap=None`` is unbounded, ``cap=0`` holds nothing.  Values are
    never ``None``.  Not thread-safe: the owner's lock guards it.
    """

    def __init__(self, cap: Optional[int] = None, evictable: Callable = lambda value: True):
        self.cap = cap
        self.evictable = evictable
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def values(self):
        return self._entries.values()

    def get(self, key) -> Any:
        """The value under ``key``, made the most recent, or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> int:
        """Insert or refresh ``key``, then :meth:`trim`."""
        if self.cap == 0:
            return 0
        self._entries[key] = value
        self._entries.move_to_end(key)
        return self.trim()

    def trim(self) -> int:
        """Evict the coldest evictable entries past ``cap``; how many."""
        excess = 0 if self.cap is None else len(self._entries) - self.cap
        if excess <= 0:
            return 0
        victims = []
        for key, value in self._entries.items():
            if self.evictable(value):
                victims.append(key)
                if len(victims) == excess:
                    break
        for key in victims:
            del self._entries[key]
        self.evictions += len(victims)
        return len(victims)


def _entry_bytes(text: str) -> bytes:
    """A disk entry: the body's digest line, then the body."""
    body = text.encode("utf-8")
    return _DIGEST_PREFIX + hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def _read_entry(path: Path) -> Optional[str]:
    """The text of the disk entry at ``path``, or ``None`` when there is
    none or its digest line does not match its body; such a file is
    moved aside to ``<key>.corrupt``, so it is never read again.  A disk
    fault other than a missing file raises ``OSError``."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None  # never written, or moved aside by a server sharing the store
    head, _, body = raw.partition(b"\n")
    if head == _DIGEST_PREFIX + hashlib.sha256(body).hexdigest().encode():
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError:
            pass
    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except FileNotFoundError:
        pass  # another server sharing the store moved it first
    return None


class ResultCache:
    """Thread-safe LRU + optional directory store for result documents.

    Args:
        capacity: in-memory entry budget (least-recently-*used* entry is
            evicted first; 0 disables the memory tier, leaving a purely
            on-disk cache).
        cache_dir: directory for the persistent tier (created on first
            write; ``None`` keeps the cache memory-only).
    """

    def __init__(self, capacity: int = 256, cache_dir: str | Path | None = None):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._entries = LruTable(capacity)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_errors = 0

    # -- tiers -------------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            # keys are sha256 hex by construction; refuse anything that
            # could traverse outside the store
            raise ValueError(f"cache key {key!r} is not a hex digest")
        return self.cache_dir / f"{key}.json"

    # -- public API --------------------------------------------------------

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def get(self, key: str) -> Optional[str]:
        """The stored text for ``key``, or ``None`` on a miss.  Disk
        hits are promoted into the memory tier."""
        path = self._disk_path(key)
        with self._lock:
            text = self._entries.get(key)
            if text is not None:
                self.hits += 1
                return text
            if path is None:
                self.misses += 1
                return None
        try:
            text, faults = _read_entry(path), 0
        except OSError:
            text, faults = None, 1
        with self._lock:
            self.disk_errors += faults
            if text is None:
                self.misses += 1
            else:
                self._entries.put(key, text)
                self.hits += 1
                self.disk_hits += 1
        return text

    def put(self, key: str, text: str) -> None:
        """Store ``text`` under ``key`` in both tiers (in memory only
        when the disk write fails)."""
        path = self._disk_path(key)
        with self._lock:
            self._entries.put(key, text)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            publish(path, _entry_bytes(text))
        except OSError:
            with self._lock:
                self.disk_errors += 1

    def stats(self) -> dict:
        """Counters for ``GET /stats``."""
        with self._lock:
            return {
                "capacity": self._entries.cap,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "evictions": self._entries.evictions,
                "disk": str(self.cache_dir) if self.cache_dir is not None else None,
            }
