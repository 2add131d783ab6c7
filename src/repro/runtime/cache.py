"""Content-addressed artifact cache for analysis sessions.

RpStacks' pitch is amortising one expensive baseline simulation into
microsecond design-point evaluations; this cache amortises it across
*processes and sessions*.  Every ``analyze()`` invocation fingerprints
its inputs (see :mod:`repro.runtime.fingerprint`) and the resulting
artifacts — the timing trace, the dependence graph and the RpStacks
model — are persisted under that key.  A later call with identical
inputs reloads the artifacts instead of re-simulating: a hit verifies
every artifact but parses only the model, and the trace, graph and
comparison predictors are built from the verified bytes when first
used.  A multi-second analysis becomes a few milliseconds.

Layout (one directory per entry, sharded by key prefix)::

    <root>/
      v1/
        ab/
          ab03f1.../
            meta.json     # key, workload name, per-file sha256 checksums
            trace.npz     # repro.simulator.traceio archive
            graph.npz     # repro.runtime.graphio archive
            model.npz     # repro.core.io archive

Integrity and parallel-safety:

* every artifact's SHA-256 is recorded in ``meta.json`` and verified on
  load; a corrupted or truncated entry is treated as a miss (and
  removed) rather than crashing or silently serving bad data;
* writers stage the whole entry in a temporary sibling directory and
  ``os.replace`` it into place, so concurrent writers of the same key
  race benignly (last rename wins, both contents are identical by
  construction) and readers never observe half-written entries.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.obs import clock
from repro.obs.metrics import MetricsRegistry
from repro.runtime.fingerprint import analysis_fingerprint, file_checksum

#: Bumped when the entry layout changes; lives in the directory tree so
#: old layouts are simply ignored rather than misparsed.
LAYOUT_VERSION = "v1"

_ARTIFACTS = ("trace.npz", "graph.npz", "model.npz")


class CacheError(RuntimeError):
    """Raised for unusable cache roots (not for corrupt entries)."""


@dataclass
class CacheStats:
    """Aggregate cache state plus this process's hit/miss counters.

    The session counters (hits / misses / corruptions) are a snapshot of
    the cache's :class:`~repro.obs.metrics.MetricsRegistry`
    (``cache.hit`` / ``cache.miss`` / ``cache.corruption``); the
    on-disk figures (entries, sizes, ages) come from scanning the root.
    """

    root: str
    entries: int = 0
    total_bytes: int = 0
    hits: int = 0
    misses: int = 0
    corruptions: int = 0
    workloads: Dict[str, int] = field(default_factory=dict)
    #: seconds since each entry was created, newest first (wall clock;
    #: empty when no entry carries a parsable ``created`` stamp)
    entry_ages_seconds: List[float] = field(default_factory=list)

    @classmethod
    def from_registry(cls, root: str, registry: MetricsRegistry,
                      **extra) -> "CacheStats":
        """Session counters straight from the cache's metrics registry."""
        return cls(
            root=root,
            hits=int(registry.counter_value("cache.hit")),
            misses=int(registry.counter_value("cache.miss")),
            corruptions=int(registry.counter_value("cache.corruption")),
            **extra,
        )

    @property
    def newest_age_seconds(self) -> Optional[float]:
        return self.entry_ages_seconds[0] if self.entry_ages_seconds else None

    @property
    def oldest_age_seconds(self) -> Optional[float]:
        return self.entry_ages_seconds[-1] if self.entry_ages_seconds else None

    @staticmethod
    def _age(seconds: float) -> str:
        if seconds >= 86400:
            return f"{seconds / 86400:.1f}d"
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"

    def describe(self) -> str:
        lines = [
            f"cache root      {self.root}",
            f"entries         {self.entries}",
            f"total size      {self.total_bytes / 1024:.1f} KiB",
            f"session hits    {self.hits}",
            f"session misses  {self.misses}",
            f"corrupt entries {self.corruptions}",
        ]
        if self.entry_ages_seconds:
            lines.append(
                f"entry age       newest {self._age(self.newest_age_seconds)}"
                f", oldest {self._age(self.oldest_age_seconds)}"
            )
        for name in sorted(self.workloads):
            lines.append(f"  {name:<14} {self.workloads[name]} entries")
        return "\n".join(lines)


class ArtifactCache:
    """Persistent, content-addressed store of analysis artifacts.

    Args:
        root: cache directory (created on first write).  Safe to share
            between concurrent processes; see the module docstring.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise CacheError(f"cache root {self.root} is not a directory")
        #: session counters (cache.hit / cache.miss / cache.corruption)
        self.metrics = MetricsRegistry()

    @property
    def hits(self) -> int:
        """Session cache hits (the ``cache.hit`` counter)."""
        return int(self.metrics.counter_value("cache.hit"))

    @property
    def misses(self) -> int:
        """Session cache misses (the ``cache.miss`` counter)."""
        return int(self.metrics.counter_value("cache.miss"))

    @property
    def corruptions(self) -> int:
        """Session integrity failures (the ``cache.corruption`` counter)."""
        return int(self.metrics.counter_value("cache.corruption"))

    # ---- key handling -------------------------------------------------

    @staticmethod
    def key_for(workload, config, **kwargs) -> str:
        """Fingerprint of one analysis; see :func:`analysis_fingerprint`."""
        return analysis_fingerprint(workload, config, **kwargs)

    def _entry_dir(self, key: str) -> pathlib.Path:
        return self.root / LAYOUT_VERSION / key[:2] / key

    # ---- read path ----------------------------------------------------

    def load(self, key: str, workload=None):
        """Return the cached :class:`~repro.dse.pipeline.AnalysisSession`
        for *key*, or ``None`` on miss or corruption.

        Every artifact is read once and its SHA-256 checked against
        ``meta.json`` from those same bytes; the trace and graph
        archives' headers are version-checked.  Only the model is parsed
        here: the session builds its trace, graph, machine and baseline
        predictors from the verified bytes on first access (see
        :meth:`AnalysisSession.from_artifacts`).  *workload*, when the
        caller has it (it fingerprinted into *key*), becomes the
        session's workload as is.

        A failed checksum, a truncated archive, an unreadable header or
        any deserialisation error counts as a miss: the entry is evicted
        and ``None`` is returned so the caller recomputes (and re-stores)
        it.
        """
        entry = self._entry_dir(key)
        meta_path = entry / "meta.json"
        if not meta_path.is_file():
            self.metrics.counter("cache.miss").inc()
            return None
        try:
            meta = json.loads(meta_path.read_text())
            blobs = {}
            for name in _ARTIFACTS:
                blobs[name] = (entry / name).read_bytes()
                digest = hashlib.sha256(blobs[name]).hexdigest()
                if digest != meta["checksums"][name]:
                    raise CacheCorruption(f"checksum mismatch on {name}")
            session = self._load_session(meta, blobs, workload)
        except Exception:
            # Corrupt, truncated, unreadable or written by an
            # incompatible library version: evict and recompute.
            self.metrics.counter("cache.corruption").inc()
            self.metrics.counter("cache.miss").inc()
            shutil.rmtree(entry, ignore_errors=True)
            return None
        self.metrics.counter("cache.hit").inc()
        return session

    @staticmethod
    def _load_session(meta: dict, blobs: Dict[str, bytes], workload):
        from repro.core.io import load_model
        from repro.dse.pipeline import AnalysisSession
        from repro.runtime import graphio
        from repro.simulator import traceio

        trace_meta = traceio.read_header(io.BytesIO(blobs["trace.npz"]))
        graphio.read_header(io.BytesIO(blobs["graph.npz"]))
        return AnalysisSession.from_artifacts(
            config=traceio.config_from_dict(trace_meta["config"]),
            rpstacks=load_model(io.BytesIO(blobs["model.npz"])),
            artifacts=EntryArtifacts(
                trace_npz=blobs["trace.npz"],
                graph_npz=blobs["graph.npz"],
                baseline_cycles=int(meta["baseline_cycles"]),
                num_uops=int(meta["num_uops"]),
            ),
            workload=workload,
        )

    # ---- write path ---------------------------------------------------

    def store(self, key: str, session) -> pathlib.Path:
        """Persist *session*'s artifacts under *key*; returns the entry dir.

        The entry is staged in a temporary directory and atomically
        renamed into place, so concurrent writers and readers are safe.
        """
        from repro.core.io import save_model
        from repro.runtime.graphio import save_graph
        from repro.simulator.traceio import save_result

        entry = self._entry_dir(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = pathlib.Path(
            tempfile.mkdtemp(prefix=f".{key[:8]}-", dir=entry.parent)
        )
        try:
            save_result(session.baseline_result, staging / "trace.npz")
            save_graph(session.graph, staging / "graph.npz")
            save_model(session.rpstacks, staging / "model.npz")
            meta = {
                "key": key,
                "workload": session.workload.name,
                "num_uops": len(session.workload),
                "baseline_cycles": session.baseline_result.cycles,
                # Explicit wall-clock ISO stamp: every other duration in
                # the system is monotonic (perf_counter-domain), but an
                # entry's birth time is a calendar fact shown to humans.
                "created": clock.wall_iso(),
                "checksums": {
                    name: file_checksum(staging / name)
                    for name in _ARTIFACTS
                },
            }
            meta_tmp = staging / "meta.json.tmp"
            meta_tmp.write_text(json.dumps(meta, indent=2, sort_keys=True))
            os.replace(meta_tmp, staging / "meta.json")
            if entry.exists():
                shutil.rmtree(entry, ignore_errors=True)
            try:
                os.replace(staging, entry)
            except OSError:
                # A concurrent writer won the rename race; its entry has
                # identical content, so ours is redundant.
                shutil.rmtree(staging, ignore_errors=True)
        except Exception:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return entry

    # ---- maintenance --------------------------------------------------

    def _entries(self) -> Iterator[pathlib.Path]:
        layout = self.root / LAYOUT_VERSION
        if not layout.is_dir():
            return
        for shard in sorted(layout.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if (entry / "meta.json").is_file():
                    yield entry

    @staticmethod
    def _entry_age_seconds(created) -> Optional[float]:
        """Age of an entry from its ``created`` stamp.

        Current entries carry ISO-8601 strings; pre-rebase entries
        stored epoch floats — both are honoured so old caches keep
        reporting ages after an upgrade.
        """
        try:
            if isinstance(created, str):
                then = clock.parse_wall_iso(created).timestamp()
            else:
                then = float(created)
        except (TypeError, ValueError):
            return None
        return max(0.0, clock.wall_ns() / 1e9 - then)

    def stats(self) -> CacheStats:
        """Entry counts, sizes and ages plus this process's counters."""
        stats = CacheStats.from_registry(str(self.root), self.metrics)
        ages: List[float] = []
        for entry in self._entries():
            stats.entries += 1
            name = "?"
            try:
                meta = json.loads((entry / "meta.json").read_text())
                name = meta.get("workload", "?")
                age = self._entry_age_seconds(meta.get("created"))
                if age is not None:
                    ages.append(age)
            except (OSError, ValueError):
                pass
            stats.workloads[name] = stats.workloads.get(name, 0) + 1
            for artifact in entry.iterdir():
                try:
                    stats.total_bytes += artifact.stat().st_size
                except OSError:
                    pass
        stats.entry_ages_seconds = sorted(ages)
        return stats

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in list(self._entries()):
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        return removed


@dataclass(frozen=True)
class EntryArtifacts:
    """The checksum-verified trace and graph archives of one cache hit.

    Held as bytes, so the lazy fields of the session they back resolve
    even after the entry is cleared or replaced on disk, and the
    session pickles with them.  ``baseline_cycles`` and ``num_uops``
    come from ``meta.json``, so the baseline CPI needs no trace parse.
    """

    trace_npz: bytes = field(repr=False)
    graph_npz: bytes = field(repr=False)
    baseline_cycles: int
    num_uops: int

    def load_result(self):
        from repro.simulator.traceio import load_result

        return load_result(io.BytesIO(self.trace_npz))

    def load_graph(self):
        from repro.runtime.graphio import load_graph

        return load_graph(io.BytesIO(self.graph_npz))


class CacheCorruption(RuntimeError):
    """Internal marker for a failed integrity check (caught in load)."""


def open_cache(
    cache: Union[None, str, pathlib.Path, ArtifactCache]
) -> Optional[ArtifactCache]:
    """Coerce a user-facing ``cache=`` argument into an ArtifactCache."""
    if cache is None or isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(cache)
