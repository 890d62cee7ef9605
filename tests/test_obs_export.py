"""Exporters: Prometheus text format and JSONL over metric snapshots."""

from __future__ import annotations

import json

import pytest

from repro.obs import export
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("sim.words").inc(7424)
    registry.counter("campaign.cache_hit").inc(1)
    registry.gauge("bdd.nodes.peak_allocated").set(1234)
    for value in (0.1, 0.2, 0.3, 0.4):
        registry.histogram("campaign.chunk_seconds").observe(value)
    return registry


def test_metric_name_sanitizes_and_prefixes():
    assert export.metric_name("bdd.cache.hits") == "repro_bdd_cache_hits"
    assert export.metric_name("repro_x") == "repro_x"  # idempotent
    assert export.metric_name("9lives") == "repro__9lives"
    assert export.metric_name("a-b c").startswith("repro_a_b_c")


def test_prometheus_lines_cover_all_kinds(registry):
    lines = export.prometheus_lines(registry, labels={"bench": "fig2"})
    text = "\n".join(lines)
    assert "# TYPE repro_sim_words counter" in text
    assert 'repro_sim_words{bench="fig2"} 7424' in text
    assert "# TYPE repro_bdd_nodes_peak_allocated gauge" in text
    assert "# TYPE repro_campaign_chunk_seconds summary" in text
    assert 'quantile="0.5"' in text
    assert 'repro_campaign_chunk_seconds_count{bench="fig2"} 4' in text
    # every non-comment line: name[{labels}] value
    for line in lines:
        if line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        float(value)  # parses as a number
        assert name_part.startswith("repro_")


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("x").inc(1)
    [_, sample] = export.prometheus_lines(
        registry, labels={"note": 'a"b\\c\nd'}
    )
    assert '\\"' in sample and "\\\\" in sample and "\\n" in sample


def test_jsonl_lines_are_self_describing(registry):
    records = [json.loads(line) for line in export.jsonl_lines(registry)]
    by_name = {record["name"]: record for record in records}
    assert by_name["sim.words"] == {
        "kind": "counter",
        "name": "sim.words",
        "value": 7424,
    }
    assert by_name["bdd.nodes.peak_allocated"]["kind"] == "gauge"
    histogram = by_name["campaign.chunk_seconds"]
    assert histogram["kind"] == "histogram"
    assert histogram["count"] == 4


def test_export_artifact_metrics_labels(registry):
    document = {
        "schema": "repro.bench/1",
        "name": "observatory",
        "payload": {"metrics": registry.snapshot()},
        "manifest": {"scale": "ci", "engine": "dp", "seed": 0},
    }
    prom = export.export_artifact_metrics(document, fmt="prometheus")
    assert any(
        'bench="observatory"' in line and 'scale="ci"' in line
        for line in prom
    )
    jsonl = export.export_artifact_metrics(document, fmt="jsonl")
    record = json.loads(jsonl[0])
    assert record["labels"]["bench"] == "observatory"
    with pytest.raises(ValueError):
        export.export_artifact_metrics(document, fmt="xml")


def test_write_lines_returns_path(tmp_path):
    out = tmp_path / "deep" / "metrics.prom"
    path = export.write_lines(["a 1", "b 2"], out)
    assert path == out
    assert out.read_text() == "a 1\nb 2\n"
