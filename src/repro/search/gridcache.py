"""Persistent on-disk candidate-grid cache (content-addressed).

One JSON file per layer *signature* (see :mod:`repro.search.signature`),
holding the simulated ``(crossbars, latency_ns, dynamic_pj)`` triple for
every deployment evaluated so far under that signature.  Entries are
keyed by the *resolved* deployment — ``BASELINE_KEY`` for the keep-conv
cell, :func:`~repro.search.signature.resolved_shape_key` for epitomes —
so partial hits survive candidate-list or network-spec edits: adding a
candidate to the ladder re-simulates only genuinely new shapes, distinct
candidates clamping to the same shape share one cell, and a new network
reuses every layer shape it shares with previously searched ones.

Invalidation is by content addressing, not timestamps: the signature
hashes the precision, wrapping mode, :class:`HardwareConfig`,
:class:`ComponentLUT` and the format version, so any change lands in
different files and old entries are simply never read.  Corrupt or
foreign files are treated as misses — the cache can always be deleted (or
:meth:`GridCache.wipe`-d) with no correctness consequence.

Numeric fidelity: values are serialized with :func:`json.dumps`, whose
``repr``-based float formatting round-trips IEEE-754 doubles exactly, so a
warm rebuild is bit-for-bit identical to the cold build that populated it
(pinned by ``tests/search/test_gridcache.py``).

Default location: ``~/.cache/repro/grids`` (override with the
``REPRO_GRID_CACHE_DIR`` environment variable or a ``cache_dir``
argument / ``--cache-dir`` flag).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "ENV_CACHE_DIR",
    "GRID_CACHE_FILE_FORMAT",
    "GridCache",
    "GridCacheStats",
    "default_cache_dir",
]

ENV_CACHE_DIR = "REPRO_GRID_CACHE_DIR"

# On-disk file format (independent of the signature version, which guards
# the *meaning* of the numbers; this guards the JSON layout).
GRID_CACHE_FILE_FORMAT = 1

# (crossbars, latency_ns, dynamic_energy_pj) — the grid cache cell type.
Cell = Tuple[int, float, float]


def default_cache_dir() -> Path:
    """``$REPRO_GRID_CACHE_DIR`` or ``~/.cache/repro/grids``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "grids"


@dataclass
class GridCacheStats:
    """Per-task hit/miss accounting of one or more builds through a cache.

    Counted at ``(signature, candidate)`` granularity — a *hit* is one
    ``simulate_layer`` call avoided, a *miss* is one performed and stored —
    so operators can read the counts as simulations saved.
    """

    hits: int = 0
    misses: int = 0
    files_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "files_written": self.files_written}


@dataclass
class GridCache:
    """Content-addressed store of simulated grid cells, one file per
    signature.

    The store is merge-on-write: :meth:`store` folds new candidate entries
    into whatever the signature's file already holds, so *successive*
    builds with different candidate ladders accumulate.  Writes are
    atomic (temp file + rename), so readers never see a torn file;
    two processes storing the same signature at the same instant may
    lose one writer's entries to the other (last rename wins) — never a
    correctness issue, the lost cells are simply re-simulated later.
    Write failures (read-only cache dir, full disk) degrade to a warning:
    the build's results are already in memory and must not be discarded
    over a cache store.
    """

    cache_dir: Optional[Union[str, Path]] = None
    stats: GridCacheStats = field(default_factory=GridCacheStats)

    def __post_init__(self):
        self.cache_dir = Path(self.cache_dir) if self.cache_dir \
            else default_cache_dir()

    @property
    def dir(self) -> Path:
        return Path(self.cache_dir)

    def _path(self, signature: str) -> Path:
        return self.dir / f"{signature}.json"

    def load(self, signature: str) -> Dict[str, Cell]:
        """All cached cells for one signature (``{}`` on miss/corruption).

        Does not touch :attr:`stats` — hit/miss accounting happens per
        requested candidate in the build pipeline, which knows how many
        cells it actually needed.
        """
        try:
            with open(self._path(signature), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError, RecursionError):
            return {}
        if not isinstance(payload, dict) \
                or payload.get("format") != GRID_CACHE_FILE_FORMAT \
                or payload.get("signature") != signature:
            return {}
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return {}
        cells: Dict[str, Cell] = {}
        for key, value in entries.items():
            if not (isinstance(value, list) and len(value) == 3):
                continue
            try:
                cells[key] = (int(value[0]), float(value[1]),
                              float(value[2]))
            except (TypeError, ValueError):
                continue    # malformed cell: a miss, like any corruption
        return cells

    def store(self, signature: str, entries: Dict[str, Cell]) -> None:
        """Merge ``entries`` into the signature's file (atomic rename).

        Never raises on filesystem trouble — an unwritable cache must not
        crash a search whose simulation work is already done; the store
        degrades to a warning and the entries stay cold.
        """
        if not entries:
            return
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            merged = self.load(signature)
            merged.update(entries)
            payload = {
                "format": GRID_CACHE_FILE_FORMAT,
                "signature": signature,
                "entries": {key: [cell[0], cell[1], cell[2]]
                            for key, cell in merged.items()},
            }
            fd, tmp = tempfile.mkstemp(dir=str(self.dir),
                                       prefix=f".{signature}.",
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(payload, sort_keys=True))
                os.replace(tmp, self._path(signature))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            warnings.warn(f"grid cache write failed ({exc}); results kept "
                          "in memory only", stacklevel=2)
            return
        self.stats.files_written += 1

    def wipe(self) -> int:
        """Delete every cached signature file (and any temp files a
        killed writer left behind); returns how many signature files went.
        """
        removed = 0
        if not self.dir.is_dir():
            return removed
        for path in self.dir.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.dir.glob(".*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed
