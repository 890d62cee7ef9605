"""Content-addressed run ledger: the persistent cross-run result store.

Every campaign (and, later, every service request) can be named by a
**run key**: the SHA-256 of a canonical JSON projection of its run
manifest — circuit roster, fault model, engine/mode, seed, the scale
knobs that shape the fault set, and content digests of the netlist and
of the code that computed it. Two runs with the same key are byte-identical by
construction, so their results can be *served* instead of recomputed.

The ledger is a plain directory (default ``results/ledger/``)::

    ledger/
      objects/<run_key>.json     one stored result document per key
      index.jsonl                append-only log: one line per put

* **Objects are integrity-checked.** Every object embeds the SHA-256
  of its canonical body; :meth:`RunLedger.get` re-hashes on every read
  and treats a mismatch as a *miss* (logged, counted) — a bit-flipped
  object is recomputed, never silently served.
* **The index is append-only and crash-tolerant.** Each ``put``
  appends exactly one line with a single ``O_APPEND`` write, so
  concurrent writers from different processes interleave whole lines,
  never fragments; a torn trailing line (crash mid-write) is skipped
  on load. :meth:`RunLedger.gc` is the one maintenance operation that
  rewrites it (atomically, via rename).
* **Query is over index metadata.** Every index line carries the
  caller-supplied ``meta`` mapping (circuit, model, engine, seed …),
  so "every c432 stuck-at run we have" is one :meth:`RunLedger.query`
  away without opening any object.

This module is deliberately generic — it stores JSON documents by key
and knows nothing about campaigns. The campaign projection/codec lives
in :mod:`repro.experiments.runcache`, keeping the obs layer free of
upward imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.encode import json_safe
from repro.obs.logging import get_logger

OBJECT_SCHEMA = "repro.ledger-object/1"
INDEX_SCHEMA = "repro.ledger-index/1"

#: Default ledger location, relative to the working directory (the same
#: convention as every other ``results/`` artifact).
DEFAULT_LEDGER_DIR = Path("results") / "ledger"

log = get_logger("repro.obs.store")


def canonical_json(value: Any) -> str:
    """The one canonical rendering hashes are taken over.

    Keys sorted, separators fixed, values passed through
    :func:`~repro.obs.encode.json_safe` — so the same logical document
    always produces the same bytes regardless of dict order or which
    process serialized it.
    """
    return json.dumps(
        json_safe(value), sort_keys=True, separators=(",", ":")
    )


def run_key(projection: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a normalized manifest projection.

    The projection must already be *normalized*: include exactly the
    fields that determine the result (circuit roster, fault model,
    engine/mode, seed, scale knobs, netlist and code digests) and
    nothing incidental
    (hostnames, timestamps, pids). Hash equality then *is* result
    equality.
    """
    return hashlib.sha256(canonical_json(projection).encode("utf-8")).hexdigest()


def body_digest(body: Mapping[str, Any]) -> str:
    """Integrity hash stored inside (and re-checked against) an object."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LedgerStats:
    """Counters of one ledger instance's lifetime (this process)."""

    hits: int
    misses: int
    corrupt: int
    puts: int


class RunLedger:
    """Content-addressed store of JSON result documents under one root."""

    def __init__(self, root: Path | str = DEFAULT_LEDGER_DIR) -> None:
        self.root = Path(root)
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        self._puts = 0

    # -- layout ---------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def object_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.json"

    # -- writing --------------------------------------------------------
    def put(
        self,
        key: str,
        body: Mapping[str, Any],
        meta: Mapping[str, Any] | None = None,
    ) -> Path:
        """Store ``body`` under ``key`` and append one index line.

        The object lands atomically (tmp file + rename) so a concurrent
        reader never sees a half-written document; the index line lands
        with a single ``O_APPEND`` write so concurrent writers never
        interleave. Re-putting an existing key overwrites the object
        (same key ⇒ same content by the run-key contract) and appends a
        fresh index line — the index is a log, not a set.
        """
        body = json_safe(body)
        digest = body_digest(body)
        document = {
            "schema": OBJECT_SCHEMA,
            "key": key,
            "sha256": digest,
            "body": body,
        }
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        path = self.object_path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        entry = {
            "schema": INDEX_SCHEMA,
            "key": key,
            "sha256": digest,
            "created_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "pid": os.getpid(),
            "meta": json_safe(dict(meta or {})),
        }
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(
            self.index_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        self._puts += 1
        return path

    # -- reading --------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored body for ``key``, or ``None`` on miss/corruption.

        Integrity is re-checked on **every** read: an unparseable
        object, a schema/key mismatch, or a body whose hash no longer
        matches the recorded digest all count as misses (and bump the
        corruption counter where applicable) — the caller recomputes,
        the ledger never serves silently wrong data.
        """
        path = self.object_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self._misses += 1
            return None
        try:
            document = json.loads(raw)
        except ValueError:
            self._corrupt += 1
            self._misses += 1
            log.warning("ledger object %s is unparseable; treating as miss", path)
            return None
        if not self._object_ok(key, document):
            self._corrupt += 1
            self._misses += 1
            log.warning(
                "ledger object %s failed its integrity re-check; "
                "treating as miss",
                path,
            )
            return None
        self._hits += 1
        return document["body"]

    @staticmethod
    def _object_ok(key: str, document: Mapping[str, Any]) -> bool:
        return (
            document.get("schema") == OBJECT_SCHEMA
            and document.get("key") == key
            and isinstance(document.get("body"), dict)
            and body_digest(document["body"]) == document.get("sha256")
        )

    def entries(self) -> list[dict[str, Any]]:
        """Every well-formed index line, oldest first.

        A torn trailing line (crash mid-append) or a line of the wrong
        schema is skipped, not fatal — the index is a log and the
        objects are the ground truth.
        """
        entries: list[dict[str, Any]] = []
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except OSError:
            return entries
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if entry.get("schema") == INDEX_SCHEMA and "key" in entry:
                entries.append(entry)
        return entries

    def query(self, **filters: Any) -> list[dict[str, Any]]:
        """Index entries whose ``meta`` matches every filter, oldest first.

        ``ledger.query(circuit="c432", model="stuck-at")`` returns every
        recorded c432 stuck-at run. One entry per put — re-runs of the
        same key appear once per recording, which is exactly what a
        cross-run dashboard wants.
        """
        matched = []
        for entry in self.entries():
            meta = entry.get("meta", {})
            if all(meta.get(name) == value for name, value in filters.items()):
                matched.append(entry)
        return matched

    def keys(self) -> list[str]:
        """Distinct keys in the index, in first-recorded order."""
        seen: dict[str, None] = {}
        for entry in self.entries():
            seen.setdefault(entry["key"], None)
        return list(seen)

    # -- maintenance ----------------------------------------------------
    def verify(self) -> list[tuple[str, str]]:
        """Re-hash every indexed object; return ``(key, status)`` pairs.

        Status is ``"ok"``, ``"missing"`` (object deleted, e.g. by
        :meth:`gc`), or ``"corrupt"`` (unparseable or hash mismatch —
        a bit flip anywhere in the body changes the digest).
        """
        findings: list[tuple[str, str]] = []
        for key in self.keys():
            path = self.object_path(key)
            if not path.exists():
                findings.append((key, "missing"))
                continue
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
            except ValueError:
                findings.append((key, "corrupt"))
                continue
            findings.append(
                (key, "ok" if self._object_ok(key, document) else "corrupt")
            )
        return findings

    def gc(self, keep: int) -> list[str]:
        """Drop all but the ``keep`` most recently recorded keys.

        Deletes the evicted objects and rewrites the index atomically
        to only mention survivors (newest entry per surviving key).
        Returns the evicted keys. A later :meth:`get` on an evicted key
        is an ordinary miss — callers fall back to recompute.
        """
        if keep < 0:
            raise ValueError("keep must be non-negative")
        entries = self.entries()
        newest: dict[str, dict[str, Any]] = {}
        for entry in entries:  # oldest→newest: later entries win
            newest[entry["key"]] = entry
        ordered = list(newest)  # first-recorded order of distinct keys
        survivors = set(ordered[len(ordered) - keep :]) if keep else set()
        evicted = [key for key in ordered if key not in survivors]
        for key in evicted:
            try:
                self.object_path(key).unlink()
            except OSError:
                pass
        kept_lines = [
            json.dumps(newest[key], sort_keys=True)
            for key in ordered
            if key in survivors
        ]
        tmp = self.index_path.with_name(f".index.{os.getpid()}.tmp")
        self.root.mkdir(parents=True, exist_ok=True)
        tmp.write_text(
            "".join(line + "\n" for line in kept_lines), encoding="utf-8"
        )
        os.replace(tmp, self.index_path)
        return evicted

    # -- telemetry ------------------------------------------------------
    def stats(self) -> LedgerStats:
        return LedgerStats(
            hits=self._hits,
            misses=self._misses,
            corrupt=self._corrupt,
            puts=self._puts,
        )


# ----------------------------------------------------------------------
# Environment switch: $REPRO_CACHE
# ----------------------------------------------------------------------
CACHE_ENV = "REPRO_CACHE"
_FALSEY = frozenset(("", "0", "false", "no", "off"))
_TRUTHY = frozenset(("1", "true", "yes", "on"))


def env_cache_enabled(environ: Mapping[str, str] = os.environ) -> bool:
    """True when ``$REPRO_CACHE`` asks campaigns to consult the ledger."""
    return environ.get(CACHE_ENV, "").strip().lower() not in _FALSEY


def env_ledger_dir(environ: Mapping[str, str] = os.environ) -> Path:
    """Ledger root from ``$REPRO_CACHE``.

    Truthy switch values (``1``/``true``/…) select the default
    ``results/ledger``; any other non-falsey value is taken as an
    explicit ledger directory path.
    """
    raw = environ.get(CACHE_ENV, "").strip()
    if raw.lower() in _TRUTHY or raw.lower() in _FALSEY:
        return DEFAULT_LEDGER_DIR
    return Path(raw)


def iter_ledger_roots(results_dir: Path | str) -> Iterator[Path]:
    """Ledger roots under a results tree (currently just ``ledger/``)."""
    root = Path(results_dir) / "ledger"
    if root.exists():
        yield root
