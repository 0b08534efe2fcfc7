"""Persistent result store.

Simulations are the expensive part of every experiment, so results can
be persisted as JSON keyed by the :class:`~repro.experiments.runner.RunKey`
and reused across processes (e.g. between bench invocations, between
orchestrated sweep workers, or when regenerating EXPERIMENTS.md). The
store is a plain directory of JSON files -- friendly to version control
and manual inspection.

Usage::

    store = ResultStore("results/")
    runner = ExperimentRunner(store=store)  # hits disk before simulating
    runner.run(RunKey("KMEANS"))            # simulated once, then cached

Two correctness properties the sweep orchestrator leans on:

* **Fingerprints cover runner settings.** ``RunKey`` is not the whole
  story: ``ExperimentRunner.mdr_epoch`` and ``max_cycles`` also change
  results, so they are folded into the fingerprint (the ``settings``
  argument). Two runners with different settings never share entries.
* **Writes are atomic.** ``save`` writes to a temporary file in the
  same directory and renames it into place, so a sweep killed mid-write
  cannot leave a truncated JSON behind that ``load`` would then count
  as a permanent miss (corrupt entries are unlinked on load instead).

Under sustained service traffic (``repro serve``) the store doubles as
a content-addressed response cache, so it also carries a maintenance
API: :meth:`ResultStore.stats` (entries/bytes/hit counters),
:meth:`ResultStore.gc` (TTL and LRU-bounded eviction -- ``load`` bumps
an entry's mtime on every hit, so mtime order *is* recency order) and a
stale ``*.tmp`` sweep. The tmp sweep matters beyond tidiness: the sweep
orchestrator SIGKILLs workers on timeout/pool-rebuild, and a worker
killed inside ``save`` strands its temporary file forever -- those are
reaped on store open and during ``gc`` once they outlive a grace
period no live writer could need.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import List, Mapping, Optional

from repro.core.system import RunResult
from repro.experiments.runner import MODEL_VERSION, ExperimentRunner, RunKey
from repro.power.energy import EnergyBreakdown

#: Bump when RunResult's schema *or* the fingerprint inputs change;
#: stale entries are ignored. v3: runner settings joined the fingerprint.
SCHEMA_VERSION = 3
# MODEL_VERSION (imported above from the runner, which folds it into
# every fingerprint) moves with every re-pin of bench/expected.json.


class ResultConflictError(RuntimeError):
    """Two *different* results saved under one fingerprint.

    Fingerprints are content addresses: the simulator is deterministic,
    so every honest writer of a fingerprint produces the identical
    payload and concurrent cross-host saves are idempotent. A conflict
    therefore always means misconfiguration -- a worker running a
    different GPU config, a stale schema squeaking through, a
    nondeterminism bug -- and silently letting the last writer win
    would corrupt whichever sweep reads the entry next. Fail loudly
    instead.
    """

    def __init__(self, path, message: str) -> None:
        super().__init__(message)
        self.path = path


def key_fingerprint(key: RunKey,
                    settings: Optional[Mapping[str, object]] = None) -> str:
    """A stable filename-safe fingerprint of a RunKey.

    ``settings`` carries the runner knobs that change results without
    appearing in the key (see :meth:`ExperimentRunner.cache_settings`);
    distinct settings hash to distinct fingerprints.
    """
    payload = {name: _plain(getattr(key, name)) for name in _KEY_FIELDS}
    if settings:
        payload["_settings"] = {
            name: _plain(settings[name]) for name in sorted(settings)
        }
    text = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return f"{key.benchmark}_{key.architecture.value}_{digest}"


_KEY_FIELDS = tuple(field.name for field in dataclasses.fields(RunKey))


def _plain(value):
    if hasattr(value, "value"):
        return value.value
    return value


_RESULT_FIELDS = tuple(field.name for field in dataclasses.fields(RunResult))
_ENERGY_FIELDS = tuple(field.name
                       for field in dataclasses.fields(EnergyBreakdown))


def result_to_dict(result: RunResult) -> dict:
    """Serialise a RunResult to a JSON-compatible dict.

    The dict ``dataclasses.asdict`` gives, key order included, plus
    ``_schema``; built field by field, because ``asdict`` deep-copies
    every value and a served cache hit paid mostly for that. Container
    fields are copied one level deep: their values are numbers.
    """
    data = {name: getattr(result, name) for name in _RESULT_FIELDS}
    energy = result.energy
    data["energy"] = {name: getattr(energy, name) for name in _ENERGY_FIELDS}
    data["tracker"] = dict(result.tracker)
    data["pages_per_channel"] = list(result.pages_per_channel)
    data["extra"] = dict(result.extra)
    data["_schema"] = SCHEMA_VERSION
    return data


def result_from_dict(data: dict) -> Optional[RunResult]:
    """Rebuild a RunResult; None on schema mismatch."""
    if data.get("_schema") != SCHEMA_VERSION:
        return None
    data = dict(data)
    data.pop("_schema")
    data["energy"] = EnergyBreakdown(**data["energy"])
    return RunResult(**data)


class ResultStore:
    """A directory of persisted RunResults."""

    #: ``*.tmp`` files older than this are presumed stranded (a worker
    #: SIGKILLed mid-``save``); no healthy writer holds one for minutes.
    TMP_GRACE_SECONDS = 60.0

    def __init__(self, root,
                 tmp_grace_seconds: float = TMP_GRACE_SECONDS) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.tmp_grace_seconds = tmp_grace_seconds
        # Reap temporaries stranded by a previous killed process; live
        # writers are protected by the grace period.
        self.sweep_tmp()

    def _path(self, key: RunKey,
              settings: Optional[Mapping[str, object]] = None) -> Path:
        return self.root / f"{key_fingerprint(key, settings)}.json"

    def load(self, key: RunKey,
             settings: Optional[Mapping[str, object]] = None
             ) -> Optional[RunResult]:
        """Fetch a persisted result, or None on miss/corruption."""
        path = self._path(key, settings)
        if not path.exists():
            self.misses += 1
            return None
        try:
            result = result_from_dict(json.loads(path.read_text()))
        except (json.JSONDecodeError, TypeError, KeyError):
            result = None
        if result is None:
            # Corrupt or stale-schema entry: drop it so the next save
            # replaces it rather than shadowing a fresh result forever.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        # Recency for gc(): a hit refreshes the entry's mtime so LRU
        # eviction spares what traffic actually reads.
        try:
            os.utime(path, None)
        except OSError:
            pass
        return result

    def save(self, key: RunKey, result: RunResult,
             settings: Optional[Mapping[str, object]] = None) -> None:
        """Atomically persist one result under its key's fingerprint.

        The JSON is written to a temporary file in the store directory
        and renamed into place, so concurrent writers and interrupted
        sweeps can never produce a half-written entry.

        Cross-host merge semantics: when the entry already exists with
        the current schema, the payloads are compared. An identical
        payload makes the save a no-op (concurrent shards and remote
        workers race to publish the same deterministic result; either
        order is fine), a *different* payload raises
        :class:`ResultConflictError` instead of silently letting the
        last writer win. Corrupt or stale-schema entries are simply
        overwritten.
        """
        path = self._path(key, settings)
        payload = result_to_dict(result)
        existing = self._existing_payload(path)
        if existing is not None:
            # Canonical (sorted-key) comparison: key order on disk is
            # irrelevant, value equality is what fingerprints promise.
            if (json.dumps(existing, sort_keys=True)
                    == json.dumps(payload, sort_keys=True)):
                return
            raise ResultConflictError(
                path,
                f"divergent results for fingerprint {path.stem!r}: the "
                "store already holds a different payload for this key "
                "and settings; refusing last-writer-wins (check that "
                "every writer uses the same GPU config)",
            )
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.root, prefix=path.stem + ".", suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(json.dumps(payload))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _existing_payload(self, path: Path) -> Optional[dict]:
        """The entry already at ``path``, if it parses at the current
        schema; None means missing/corrupt/stale (safe to overwrite)."""
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("_schema") != SCHEMA_VERSION:
            return None
        return data

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> None:
        """Delete every persisted result (and any temporaries)."""
        for path in self.root.glob("*.json"):
            path.unlink()
        self.sweep_tmp(grace_seconds=0.0)

    # ------------------------------------------------------------------
    # Maintenance: stats, TTL/LRU eviction, stranded-tmp sweep.
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Entry count, total bytes and the session hit/miss counters."""
        entries = 0
        total_bytes = 0
        for path in self.root.glob("*.json"):
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "entries": entries,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def entries(self) -> List[dict]:
        """Per-entry listing (name, bytes, idle seconds), LRU first."""
        now = time.time()
        rows = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append({
                "name": path.stem,
                "bytes": stat.st_size,
                "idle_seconds": max(0.0, now - stat.st_mtime),
            })
        rows.sort(key=lambda row: -row["idle_seconds"])
        return rows

    def sweep_tmp(self, grace_seconds: Optional[float] = None) -> int:
        """Unlink ``*.tmp`` files older than the grace period.

        These are strandings from writers killed mid-``save`` (the
        orchestrator SIGKILLs hung/timed-out workers); without the
        sweep they accumulate forever. Returns the number removed.
        """
        grace = (self.tmp_grace_seconds if grace_seconds is None
                 else grace_seconds)
        now = time.time()
        swept = 0
        for path in self.root.glob("*.tmp"):
            try:
                if now - path.stat().st_mtime >= grace:
                    path.unlink()
                    swept += 1
            except OSError:
                continue  # a concurrent writer renamed/removed it
        return swept

    def gc(self, max_age_seconds: Optional[float] = None,
           max_entries: Optional[int] = None) -> dict:
        """Evict entries by TTL and/or LRU count bound.

        ``max_age_seconds`` drops entries idle longer than that (mtime
        is refreshed on every ``load`` hit, so "idle" means unread).
        ``max_entries`` then evicts least-recently-used entries until at
        most that many remain. Stranded temporaries are swept too.
        Returns ``{"evicted", "tmp_swept", "entries"}``.
        """
        tmp_swept = self.sweep_tmp()
        now = time.time()
        aged: List[tuple] = []
        for path in self.root.glob("*.json"):
            try:
                aged.append((path.stat().st_mtime, path))
            except OSError:
                continue
        aged.sort()  # oldest (least recently used) first
        evicted = 0
        if max_age_seconds is not None:
            while aged and now - aged[0][0] >= max_age_seconds:
                _, path = aged.pop(0)
                try:
                    path.unlink()
                    evicted += 1
                except OSError:
                    pass
        if max_entries is not None:
            while len(aged) > max(0, max_entries):
                _, path = aged.pop(0)
                try:
                    path.unlink()
                    evicted += 1
                except OSError:
                    pass
        self.evictions += evicted
        return {"evicted": evicted, "tmp_swept": tmp_swept,
                "entries": len(aged)}

    # ------------------------------------------------------------------
    # Runner integration.
    # ------------------------------------------------------------------

    def attach(self, runner: ExperimentRunner) -> ExperimentRunner:
        """Attach this store to a runner (compatibility helper).

        Prefer passing the store at construction time::

            runner = ExperimentRunner(store=ResultStore("results/"))
        """
        runner.store = self
        return runner
