"""Measurement memoization: skip re-running identical experiment cells.

The figure and adaptation experiments re-evaluate identical
configuration cells constantly: an adaptation trace re-measures the
same ``(graph, placement, threads, machine, seed)`` cell every period
the coordinator holds a configuration (and again across Fig. 6's four
variants on the same graph); ``oracle_sweep`` and ``compare`` recompute
whole reference grids across fractions and periods.  Every one of those
computations is **deterministic** in its cell key — the DES kernel is
seedless-deterministic and all stochastic components derive their
generators from the seed in the key — so the second run of a cell is
pure waste.

This module provides the process-local memo store those layers share:

- :func:`fingerprint` hashes arbitrary printable components into a
  stable digest; :func:`graph_fingerprint` / :func:`machine_fingerprint`
  / :func:`config_fingerprint` build the standard key components
  (graphs hash their full serialized document, so any cost, edge,
  selectivity or payload change misses);
- :func:`lookup` / :func:`store` are the cache primitives, with
  ``bench.cache_hits`` / ``bench.cache_misses`` metrics recorded on the
  caller's observability hub and process-local counters for tests;
- :func:`snapshot` / :func:`install` export and import picklable cache
  state so :func:`repro.runtime.pool.run_cells` can seed pool workers
  with the parent's already-computed cells;
- :func:`disk_lookup` / :func:`disk_store` are an **optional on-disk
  tier** rooted at ``REPRO_MEMO_DIR`` (or an explicit directory):
  entries are pickled under versioned keys and survive across
  processes and sessions.  Loads are corruption-safe — an unreadable,
  truncated or stale-format entry is a miss, never an exception — so
  a shared cache directory can be populated concurrently and carried
  between runs without ceremony.  The warm-start phase store
  (:mod:`repro.core.warmstart`) persists through this tier.

Only immutable (or never-mutated) values belong in the cache —
``DesResult``, ``Comparison``, ``CostProfile`` are frozen dataclasses;
list-shaped results must be stored as tuples and copied on the way out
by the caller.  ``REPRO_MEMO=0`` disables memoization globally (every
lookup misses and nothing is stored), which keeps honest-timing
benchmark baselines one environment variable away.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Dict, Optional, Tuple

from ..graph.model import StreamGraph
from ..graph.serialize import graph_to_dict
from ..obs.hub import Obs, ensure_hub

__all__ = [
    "DISK_FORMAT_VERSION",
    "config_fingerprint",
    "disk_dir",
    "disk_lookup",
    "disk_store",
    "fingerprint",
    "graph_fingerprint",
    "install",
    "lookup",
    "machine_fingerprint",
    "memo_enabled",
    "clear",
    "snapshot",
    "stats",
    "store",
]

# Bounded store: adaptation traces explore O(tens) of cells and figure
# grids O(hundreds); well past that we assume a pathological caller and
# start over rather than grow without limit.
MAX_ENTRIES = 4096

_STORE: Dict[Tuple[Any, ...], Any] = {}
_HITS = 0
_MISSES = 0


def memo_enabled() -> bool:
    """Whether measurement memoization is active: ``REPRO_MEMO=0`` (or
    ``false``/``no``/``off``) disables it, anything else enables it."""
    flag = os.environ.get("REPRO_MEMO", "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def fingerprint(*parts: Any) -> str:
    """Stable digest of ``repr``-encoded components.

    Like :func:`repro.runtime.pool.derive_seed`, hashing goes through
    BLAKE2 so the digest is identical across processes and interpreter
    launches (``hash()`` is salted).
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def graph_fingerprint(graph: StreamGraph) -> str:
    """Digest of the graph's full serialized document.

    Covers operators (costs, kinds, selectivities, locks, rate caps),
    edges and the tuple spec — any change that could alter a
    measurement changes the fingerprint.  Graphs are conceptually
    immutable (mutation goes through ``replace_costs``, which returns a
    new instance), so the digest is memoized on the instance.
    """
    cached = getattr(graph, "_memo_fingerprint", None)
    if cached is None:
        cached = fingerprint(graph_to_dict(graph))
        graph._memo_fingerprint = cached  # type: ignore[attr-defined]
    return cached


def machine_fingerprint(machine: Any) -> str:
    """Digest of a machine profile (frozen dataclass: repr is total)."""
    return fingerprint(machine)


def config_fingerprint(config: Any) -> str:
    """Digest of a runtime config (frozen dataclass: repr is total)."""
    return fingerprint(config)


# ----------------------------------------------------------------------
# the optional on-disk tier
# ----------------------------------------------------------------------
# Bumped whenever the meaning of cached payloads changes; entries
# written under any other version load as misses (stale-format safety).
DISK_FORMAT_VERSION = 1


def disk_dir(override: Optional[str] = None) -> Optional[str]:
    """Root of the on-disk tier, or None when it is disabled.

    An explicit ``override`` wins; otherwise the ``REPRO_MEMO_DIR``
    environment variable.  No directory means the tier is off and
    every disk lookup misses.
    """
    if override is not None:
        return override or None
    raw = os.environ.get("REPRO_MEMO_DIR", "").strip()
    return raw or None


def _disk_path(directory: str, kind: str, key: Any) -> str:
    return os.path.join(directory, kind, f"{fingerprint(key)}.pkl")


def disk_lookup(
    kind: str,
    key: Any,
    directory: Optional[str] = None,
    obs: Optional[Obs] = None,
) -> Tuple[bool, Any]:
    """Read one entry from the disk tier; ``(hit, value)``.

    Every failure mode — tier disabled, file absent, unreadable,
    truncated pickle, format-version mismatch, key-digest collision
    payload — degrades to a miss.  A shared cache directory can
    therefore never break a run, only fail to speed it up.
    """
    root = disk_dir(directory)
    if root is None:
        return False, None
    path = _disk_path(root, kind, key)
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        version, stored_key, value = payload
        if version != DISK_FORMAT_VERSION or stored_key != key:
            return False, None
    except Exception:
        return False, None
    hub = ensure_hub(obs)
    hub.registry.counter(
        "bench.cache_disk_hits", "lookups served from the on-disk tier"
    ).inc()
    return True, value


def disk_store(
    kind: str,
    key: Any,
    value: Any,
    directory: Optional[str] = None,
) -> Any:
    """Write one entry to the disk tier (no-op when it is disabled).

    Writes go through a temp file + ``os.replace`` so concurrent
    readers only ever see complete entries; unpicklable values and
    filesystem errors are swallowed (the tier is an accelerator, not
    a store of record).
    """
    root = disk_dir(directory)
    if root is None:
        return value
    path = _disk_path(root, kind, key)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "wb") as fh:
            pickle.dump((DISK_FORMAT_VERSION, key, value), fh)
        os.replace(tmp, path)
    except Exception:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    return value


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
_SENTINEL = object()


def lookup(key: Tuple[Any, ...], obs: Optional[Obs] = None) -> Tuple[bool, Any]:
    """Return ``(hit, value)`` for ``key``; records hit/miss metrics."""
    global _HITS, _MISSES
    hub = ensure_hub(obs)
    if not memo_enabled():
        _MISSES += 1
        hub.registry.counter(
            "bench.cache_misses", "measurement memo lookups that missed"
        ).inc()
        return False, None
    value = _STORE.get(key, _SENTINEL)
    if value is _SENTINEL:
        # Memory miss: fall through to the on-disk tier (when a
        # REPRO_MEMO_DIR is configured) and promote hits into memory.
        disk_hit, disk_value = disk_lookup("memo", key, obs=hub)
        if disk_hit:
            if len(_STORE) >= MAX_ENTRIES:
                _STORE.clear()
            _STORE[key] = disk_value
            value = disk_value
        else:
            _MISSES += 1
            hub.registry.counter(
                "bench.cache_misses",
                "measurement memo lookups that missed",
            ).inc()
            return False, None
    _HITS += 1
    hub.registry.counter(
        "bench.cache_hits", "measurement re-runs skipped by the memo cache"
    ).inc()
    return True, value


def store(key: Tuple[Any, ...], value: Any) -> Any:
    """Insert ``value`` under ``key`` (no-op when memoization is off)."""
    if memo_enabled():
        if len(_STORE) >= MAX_ENTRIES:
            _STORE.clear()
        _STORE[key] = value
        if disk_dir() is not None:
            disk_store("memo", key, value)
    return value


def stats() -> Dict[str, int]:
    """Process-local counters (tests and reporting)."""
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_STORE)}


def clear(reset_stats: bool = True) -> None:
    """Drop all cached cells (and, by default, the hit/miss counters)."""
    global _HITS, _MISSES
    _STORE.clear()
    if reset_stats:
        _HITS = 0
        _MISSES = 0


# ----------------------------------------------------------------------
# sharing with pool workers (repro.runtime.pool)
# ----------------------------------------------------------------------
def snapshot(limit: int = 256) -> Dict[Tuple[Any, ...], Any]:
    """Picklable export of up to ``limit`` cached cells.

    Entries that fail to pickle are dropped (a cell worth caching is a
    plain result dataclass; anything else is not worth shipping), so
    seeding a pool can never break it.
    """
    out: Dict[Tuple[Any, ...], Any] = {}
    for key, value in _STORE.items():
        if len(out) >= limit:
            break
        try:
            pickle.dumps((key, value))
        except Exception:
            continue
        out[key] = value
    return out


def install(entries: Dict[Tuple[Any, ...], Any]) -> None:
    """Merge exported cells into this process's store.

    Used as a :class:`~concurrent.futures.ProcessPoolExecutor`
    initializer so workers start with the parent's computed cells.
    """
    if not memo_enabled() or not entries:
        return
    if len(_STORE) + len(entries) > MAX_ENTRIES:
        _STORE.clear()
    _STORE.update(entries)
