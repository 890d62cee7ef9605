"""One benchmark run: measure, verify, attribute, report.

The untraced measurement gives the end-to-end metrics. ``trace=True``
adds one traced pass on a fresh set-up after it and reports the
per-layer metrics, including ``trace.overhead_frac`` (traced against
untraced ``faults_per_s``). The caller runs each run in a fresh
process with every ``REPRO_*`` variable cleared.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any

from repro.obs.trace import get_tracer

from harness import checks, layers, workloads
from harness.fingerprint import fingerprint

#: End-to-end metric → unit (the untraced run's metrics).
END_TO_END = {"setup_s": "s", "faults_per_s": "1/s", "peak_rss_mb": "MB"}

OUT_DIR = Path(__file__).resolve().parent.parent / "out"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _verify(workload: str, seed: int, runs) -> tuple[int, int]:
    """(attempted, failed) over every (cells, pass) in ``runs``.

    The first pass faces the oracles (and the reference, where the seed
    has one). Later passes analyse the same inputs, and the program is
    deterministic, so each of their records must equal the first pass's
    byte for byte; a record that differs fails, as do those the first
    pass failed.
    """
    reference = checks.load_reference(workload, seed)
    first_cells, first_pass = runs[0]
    first_failed = checks.failed_positions(first_cells, first_pass, reference)
    first_lines = checks.pass_lines(first_cells, first_pass)
    attempted = workloads.planned_faults(first_cells)
    failed = len(first_failed)
    for cells, pass_ in runs[1:]:
        planned = workloads.planned_faults(cells)
        lines = checks.pass_lines(cells, pass_)
        attempted += planned
        if len(lines) != planned or len(first_lines) != planned:
            failed += planned
            continue
        failed += sum(
            1
            for i, (got, want) in enumerate(zip(lines, first_lines))
            if got != want or i in first_failed
        )
    return attempted, failed


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    write_reference: bool = False,
) -> dict[str, Any]:
    """Run one workload; returns the result object plus its context."""
    if get_tracer().enabled:
        raise RuntimeError("the program's global tracer must be off")
    workload = workloads.WORKLOADS[name]
    measured = workloads.measure(workload, seed, seconds)
    runs = list(measured["passes"])
    rates = [p.faults / p.seconds for _, p in runs if p.seconds > 0]
    faults_per_s = statistics.median(rates) if rates else 0.0
    metrics = {
        "setup_s": statistics.median(measured["setup_times"]),
        "faults_per_s": faults_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    units = dict(END_TO_END)
    if write_reference:
        cells, pass_ = runs[0]
        checks.write_reference(name, seed, checks.pass_lines(cells, pass_))

    events: list[dict] = []
    if trace:
        run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
        workloads.cold()
        with layers.LayerTracer(run_id) as tracer:
            cells = workloads.set_up(workload, seed, tracer)
            pass_ = workloads.run_pass(cells, tracer)
        runs.append((cells, pass_))
        events = tracer.events()
        metrics = layers.layer_metrics(events, cells, pass_, tracer.engines)
        traced_rate = pass_.faults / pass_.seconds if pass_.seconds else 0.0
        metrics["trace.overhead_frac"] = (
            faults_per_s / traced_rate - 1 if traced_rate else 0.0
        )
        units = layers.UNITS

    attempted, failed = _verify(name, seed, runs)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {
                key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
            },
        },
        "fail_frac": failed / attempted if attempted else 1.0,
        "passes": len(measured["passes"]),
        "setups": len(measured["setup_times"]),
        "verification": (
            f"oracles + reference records (seed {seed})"
            if checks.reference_path(name, seed).exists()
            else f"oracles only (no reference records for seed {seed})"
        ),
        "fingerprint": fingerprint(root, name, seed, trace),
        "events": events,
    }


def write_artifacts(outcome: dict[str, Any], name: str, seed: int, trace: bool) -> Path:
    """Write the stamped result (and the spans of a traced run)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    summary = {k: v for k, v in outcome.items() if k != "events"}
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=2) + "\n")
    if outcome["events"]:
        with open(stem.with_suffix(".trace.jsonl"), "w", encoding="utf-8") as fh:
            for event in outcome["events"]:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
    return stem.with_suffix(".json")
