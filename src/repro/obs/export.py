"""Metric exporters: Prometheus text format and JSONL.

The registry snapshots pinned by the test suite are exactly the
numbers an external scraper should see — so these exporters are thin,
lossless renderings of :meth:`MetricsRegistry.snapshot`, not a second
bookkeeping system:

* :func:`prometheus_lines` — the Prometheus text exposition format
  (``# TYPE`` headers, sanitized metric names, optional labels;
  histograms export as summaries with ``quantile`` labels plus
  ``_sum``/``_count``).
* :func:`jsonl_lines` — one self-describing JSON object per metric,
  for log pipelines and ``jq``.

``python -m repro.obs export ARTIFACT`` renders the metrics snapshot
embedded in any ``BENCH_*.json`` artifact in either format.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, Mapping

from repro.obs.metrics import MetricsRegistry

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_VALUE_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}

#: Prefix every exported metric name carries (Prometheus convention:
#: one namespace per producing system).
PREFIX = "repro_"


def metric_name(name: str, prefix: str = PREFIX) -> str:
    """``bdd.cache.hits`` → ``repro_bdd_cache_hits`` (idempotent)."""
    flat = _NAME_OK.sub("_", name)
    if flat and flat[0].isdigit():
        flat = f"_{flat}"
    return flat if flat.startswith(prefix) else f"{prefix}{flat}"


def _labels(labels: Mapping[str, Any] | None) -> str:
    if not labels:
        return ""
    rendered = []
    for key, value in sorted(labels.items()):
        text = str(value)
        for raw, escaped in _LABEL_VALUE_ESCAPES.items():
            text = text.replace(raw, escaped)
        rendered.append(f'{_NAME_OK.sub("_", key)}="{text}"')
    return "{" + ",".join(rendered) + "}"


def _num(value: Any) -> str:
    """Prometheus sample value rendering (floats stay floats)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "NaN"
    return repr(float(value))


def _snapshot(source: MetricsRegistry | Mapping[str, Any]) -> Mapping[str, Any]:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


def prometheus_lines(
    source: MetricsRegistry | Mapping[str, Any],
    labels: Mapping[str, Any] | None = None,
    prefix: str = PREFIX,
) -> list[str]:
    """Prometheus text-format lines over a registry (or its snapshot)."""
    snapshot = _snapshot(source)
    label_str = _labels(labels)
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        flat = metric_name(name, prefix)
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat}{label_str} {_num(value)}")
    for name, payload in sorted(snapshot.get("gauges", {}).items()):
        flat = metric_name(name, prefix)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat}{label_str} {_num(payload['value'])}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        flat = metric_name(name, prefix)
        lines.append(f"# TYPE {flat} summary")
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            quantile = summary.get(key)
            if quantile is None:
                continue
            q_labels = dict(labels or {})
            q_labels["quantile"] = q
            lines.append(f"{flat}{_labels(q_labels)} {_num(quantile)}")
        lines.append(f"{flat}_sum{label_str} {_num(summary.get('sum', 0.0))}")
        lines.append(f"{flat}_count{label_str} {_num(summary.get('count', 0))}")
    return lines


def jsonl_lines(
    source: MetricsRegistry | Mapping[str, Any],
    labels: Mapping[str, Any] | None = None,
) -> list[str]:
    """One self-describing JSON object per metric, sorted by name."""
    snapshot = _snapshot(source)
    records: list[dict[str, Any]] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        records.append({"name": name, "kind": "counter", "value": value})
    for name, payload in sorted(snapshot.get("gauges", {}).items()):
        records.append(
            {
                "name": name,
                "kind": "gauge",
                "value": payload["value"],
                "mode": payload.get("mode", "max"),
            }
        )
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        record: dict[str, Any] = {"name": name, "kind": "histogram"}
        record.update(
            {
                key: summary.get(key)
                for key in ("count", "sum", "min", "max", "p50", "p95", "p99")
            }
        )
        records.append(record)
    if labels:
        for record in records:
            record["labels"] = dict(labels)
    return [json.dumps(record, sort_keys=True) for record in records]


def export_artifact_metrics(
    document: Mapping[str, Any],
    fmt: str = "prometheus",
) -> list[str]:
    """Render the metrics snapshot inside one ``BENCH_*.json`` document.

    Labels carry the artifact's identity (bench name plus the
    manifest's comparability key), so multiple artifacts can be
    concatenated into one scrape body without metric collisions.
    """
    payload = document.get("payload", {})
    manifest = document.get("manifest", {})
    snapshot = payload.get("metrics", {})
    labels = {
        "bench": document.get("name", "unknown"),
        "scale": manifest.get("scale"),
        "engine": manifest.get("engine"),
        "seed": manifest.get("seed"),
    }
    labels = {k: v for k, v in labels.items() if v is not None}
    if fmt == "prometheus":
        return prometheus_lines(snapshot, labels=labels)
    if fmt == "jsonl":
        return jsonl_lines(snapshot, labels=labels)
    raise ValueError(f"unknown export format {fmt!r}")


def write_lines(lines: Iterable[str], path):
    """Write one line per entry; returns the path written."""
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(f"{line}\n" for line in lines), encoding="utf-8"
    )
    return path
