"""Campaign run-cache: the ledger codec for :class:`CampaignResult`.

:mod:`repro.obs.store` stores opaque JSON documents by content hash;
this module is the campaign-shaped layer on top of it — it reduces a
finished :class:`~repro.experiments.campaigns.CampaignResult` to an
exact JSON body and rebuilds an identical result from that body.

A campaign's run key is the hash of
:meth:`CampaignRequest.projection
<repro.experiments.campaigns.CampaignRequest.projection>`, which holds
only what changes the computed numbers:

* circuit name, fault model (and bridge dominance), the resolved
  routing key (``dp`` / ``bitparallel`` / ``sampled``);
* the master seed and every scale knob that shapes the fault set or
  the estimator (sample size, decomposition threshold, variable
  ordering, sampled-mode precision knobs);
* the SHA-256 of the circuit's ``.bench`` rendering (``netlist``) and
  of the library's sources (``code``, :func:`code_digest`).

Worker count, reordering and cache policy are *excluded*: all are
result-neutral (``tests/test_parallel_campaigns.py``, the reorder
oracles), so a serial run can serve a later ``--workers 8`` run and
vice versa.

Detectabilities are exact :class:`~fractions.Fraction`\\ s; they round
trip through the ledger as ``"p/q"`` strings, so a decoded campaign is
**equal** to the computed one — byte-identical rendered figures — not
merely close. Execution telemetry (``chunk_stats``, resource series)
is intentionally *not* stored: a served result did no work, and its
``sim.*`` / ``bdd.*`` counters must say so.
"""

from __future__ import annotations

import functools
import hashlib
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

import repro
from repro.benchcircuits import get_circuit
from repro.faults.bridging import BridgeKind, BridgingFault
from repro.faults.lines import Line
from repro.faults.stuck_at import StuckAtFault
from repro.obs import store as _store
from repro.obs.logging import get_logger

#: Schema of the stored campaign body (the ledger object's ``body``).
BODY_SCHEMA = "repro.campaign-result/1"

#: Schema tag inside every run-key projection, so a future projection
#: change (new knob, new model) can never collide with old keys.
PROJECTION_SCHEMA = "repro.run-key/2"

log = get_logger("repro.experiments.runcache")

_LEDGERS: dict[str, _store.RunLedger] = {}


def ledger() -> _store.RunLedger:
    """The process-wide ledger at the ``$REPRO_CACHE``-resolved root."""
    root = str(_store.env_ledger_dir())
    if root not in _LEDGERS:
        _LEDGERS[root] = _store.RunLedger(root)
    return _LEDGERS[root]


def cache_stats() -> dict[str, int]:
    """Hit/miss/corrupt/put totals over every ledger this process used."""
    totals = {"hits": 0, "misses": 0, "corrupt": 0, "puts": 0}
    for instance in _LEDGERS.values():
        stats = instance.stats()
        for name in totals:
            totals[name] += getattr(stats, name)
    return totals


# ----------------------------------------------------------------------
# Code identity
# ----------------------------------------------------------------------
def source_digest(root: Path) -> str:
    """SHA-256 over every ``*.py`` file under ``root``: each file's
    relative path and content digest, in sorted path order."""
    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for relative, path in files:
        content = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{relative}\0{content}\n".encode("utf-8"))
    return digest.hexdigest()


@functools.cache
def code_digest() -> str:
    """:func:`source_digest` of the installed ``repro`` package, once per
    process. Unlike a commit SHA it sees uncommitted edits and needs no
    checkout."""
    return source_digest(Path(repro.__file__).resolve().parent)


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def _encode_fault(fault: Any) -> dict[str, Any]:
    if isinstance(fault, StuckAtFault):
        return {
            "model": "stuck-at",
            "net": fault.line.net,
            "sink": fault.line.sink,
            "pin": fault.line.pin,
            "value": fault.value,
        }
    if isinstance(fault, BridgingFault):
        return {
            "model": "bridging",
            "nets": [fault.net_a, fault.net_b],
            "kind": fault.kind.value,
        }
    raise TypeError(f"no ledger codec for fault type {type(fault).__name__}")


def _decode_fault(data: Mapping[str, Any]) -> Any:
    model = data.get("model")
    if model == "stuck-at":
        return StuckAtFault(
            line=Line(data["net"], data["sink"], data["pin"]),
            value=bool(data["value"]),
        )
    if model == "bridging":
        net_a, net_b = data["nets"]
        return BridgingFault(net_a, net_b, BridgeKind(data["kind"]))
    raise ValueError(f"unknown fault model {model!r} in ledger body")


def _encode_fraction(value: Fraction) -> str:
    return str(value)


def _decode_fraction(text: str) -> Fraction:
    return Fraction(text)


def _encode_record(record: Any) -> dict[str, Any]:
    return {
        "fault": _encode_fault(record.fault),
        "detectability": _encode_fraction(record.detectability),
        "upper_bound": _encode_fraction(record.upper_bound),
        "observable_pos": sorted(record.observable_pos),
        "stuck_at_equivalent": record.stuck_at_equivalent,
        "ci_low": record.ci_low,
        "ci_high": record.ci_high,
        "patterns_spent": record.patterns_spent,
        "stratum": record.stratum,
    }


def _decode_record(data: Mapping[str, Any]) -> Any:
    from repro.experiments.campaigns import FaultResult

    return FaultResult(
        fault=_decode_fault(data["fault"]),
        detectability=_decode_fraction(data["detectability"]),
        upper_bound=_decode_fraction(data["upper_bound"]),
        observable_pos=frozenset(data["observable_pos"]),
        stuck_at_equivalent=data.get("stuck_at_equivalent"),
        ci_low=data.get("ci_low"),
        ci_high=data.get("ci_high"),
        patterns_spent=data.get("patterns_spent"),
        stratum=data.get("stratum"),
    )


def encode_result(name: str, result: Any) -> dict[str, Any]:
    """A finished campaign as an exact, ledger-storable JSON body."""
    return {
        "schema": BODY_SCHEMA,
        "circuit": name,
        "exact": result.exact,
        "results": [_encode_record(record) for record in result.results],
        "strata": [
            {
                "name": stratum.name,
                "population": stratum.population,
                "allocated": stratum.allocated,
                "sampled": stratum.sampled,
            }
            for stratum in result.strata
        ],
    }


def decode_result(body: Mapping[str, Any]) -> Any:
    """Rebuild a :class:`CampaignResult` equal to the one encoded.

    The rebuilt result carries ``from_cache=True`` and **empty**
    execution telemetry — zero chunks, zero ``sim.*``/``bdd.*``
    counters — which is the truthful accounting of a run that did no
    fault simulation.
    """
    from repro.experiments.campaigns import CampaignResult

    if body.get("schema") != BODY_SCHEMA:
        raise ValueError(
            f"unexpected campaign body schema {body.get('schema')!r}"
        )
    strata: tuple = ()
    if body.get("strata"):
        from repro.sampling.strata import StratumStat

        strata = tuple(
            StratumStat(
                name=stratum["name"],
                population=stratum["population"],
                allocated=stratum["allocated"],
                sampled=stratum["sampled"],
            )
            for stratum in body["strata"]
        )
    return CampaignResult(
        circuit=get_circuit(body["circuit"]),
        results=tuple(
            _decode_record(record) for record in body["results"]
        ),
        exact=bool(body["exact"]),
        strata=strata,
        from_cache=True,
    )


# ----------------------------------------------------------------------
# The consult/record pair campaigns call
# ----------------------------------------------------------------------
def fetch(projection: Mapping[str, Any]) -> Any | None:
    """A cached campaign equal to what this projection would compute.

    ``None`` on a miss *or* on a failed integrity/decode check — the
    ledger never serves silently wrong data; the caller recomputes.
    """
    key = _store.run_key(projection)
    body = ledger().get(key)
    if body is None:
        return None
    try:
        result = decode_result(body)
    except Exception as exc:
        log.warning(
            "ledger object %s decoded to garbage (%r); recomputing", key, exc
        )
        return None
    log.info(
        "campaign %s/%s served from ledger (%d faults, key %s)",
        projection.get("circuit"),
        projection.get("model"),
        len(result.results),
        key[:12],
    )
    return result


def record(
    projection: Mapping[str, Any], result: Any
) -> str | None:
    """Store a freshly computed campaign; returns its run key.

    Best-effort: a fault type the codec can't represent, or an
    unwritable ledger directory, skips caching with a warning — the
    run itself already succeeded and must not fail retroactively.
    """
    key = _store.run_key(projection)
    try:
        body = encode_result(projection["circuit"], result)
        meta = {
            "circuit": projection.get("circuit"),
            "model": projection.get("model"),
            "bridge_kind": projection.get("bridge_kind"),
            "routing": projection.get("routing"),
            "seed": projection.get("seed"),
            "num_faults": len(result.results),
            "num_detectable": len(result.detectable()),
            "exact": result.exact,
            "seconds": result.total_seconds(),
        }
        ledger().put(key, body, meta=meta)
    except Exception as exc:
        log.warning("could not record campaign in ledger: %r", exc)
        return None
    return key


def round_trip_equal(name: str, result: Any) -> bool:
    """Debug helper: does this result survive the codec exactly?"""
    return decode_result(encode_result(name, result)) == result
