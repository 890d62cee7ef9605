"""The benchmark's own tests, on the seconds-sized ``smoke`` workload
(c432 and alu181, exact and sampled cells).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repro.experiments.campaigns as campaigns
import repro.verify.oracles as oracles
from harness import checks, layers, runner

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer counts that must repeat exactly between two runs.
COUNTS = (
    "bdd.steps",
    "bdd.steps.and",
    "bdd.steps.or",
    "bdd.steps.xor",
    "bdd.steps.not",
    "bdd.cache_lookups",
    "bdd.gc.runs",
    "bdd.gc.reclaimed",
    "bdd.evictions",
    "bdd.nodes.peak_live",
    "bdd.nodes.peak_allocated",
    "engine.gates_evaluated",
    "symbolic.good_nodes",
    "simulation.words",
    "sampling.patterns",
    "sampling.rounds",
)


def _run(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def _smoke(trace: int, seed: int = 0, env: dict | None = None):
    done = _run(
        "--workload", "smoke", "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return _smoke(1)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace, traced):
    stdout, result = traced if trace else _smoke(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in stdout.splitlines()
        )
    assert "fail_frac" in stdout
    assert "oracles + reference records (seed 0)" in stdout


def test_traced_self_times_add_up_to_the_chunk(traced):
    metrics = traced[1]["metrics"]
    assert metrics["experiments.chunk_s"]["value"] > 0
    assert abs(metrics["trace.self_sum_frac"]["value"] - 1) < 0.05


def test_layer_counts_repeat_exactly(traced):
    first = traced[1]["metrics"]
    second = _smoke(1)[1]["metrics"]
    assert first["bdd.gc.runs"]["value"] > 0  # the smoke run does collect
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_stray_program_variables_are_cleared():
    env = dict(os.environ, REPRO_WORKERS="2", REPRO_TRACE="1", REPRO_CACHE="1")
    stdout, result = _smoke(0, env=env)
    assert result["correct"]
    assert "REPRO_CACHE, REPRO_TRACE, REPRO_WORKERS" in stdout


def _patched_names():
    """(owner, attribute) → original object, for every name a trace patches."""
    tracer = layers.LayerTracer("probe")
    tracer.install()
    try:
        saved = list(tracer._saved)
    finally:
        tracer.restore()
    return {(owner, attr): original for owner, attr, original in saved}


def test_traced_run_restores_every_patched_name():
    originals = _patched_names()
    assert len(originals) >= 12
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    with layers.LayerTracer("probe"):
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, attr
    runner.run("smoke", 0, 0.0, True, ROOT)
    with pytest.raises(RuntimeError):
        with layers.LayerTracer("probe"):
            raise RuntimeError("boom")
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr


def test_perturbed_record_fails_against_the_reference(monkeypatch):
    body = campaigns.run_chunk_body

    def perturbing(circuit, name, scale, faults, bridging, index, engine="dp"):
        records, exact, stat = body(circuit, name, scale, faults, bridging, index, engine)
        if index == 0:
            first = records[0]
            nudge = Fraction(1, 2**circuit.num_inputs)
            wrong = first.detectability - nudge if first.detectability else nudge
            records = (dataclasses.replace(first, detectability=wrong), *records[1:])
        return records, exact, stat

    monkeypatch.setattr(campaigns, "run_chunk_body", perturbing)
    outcome = runner.run("smoke", 0, 0.0, False, ROOT)
    assert checks.load_reference("smoke", 0) is not None
    assert not outcome["result"]["correct"]
    assert 0 < outcome["fail_frac"] < 1


def test_perturbed_report_fails_the_oracles_on_an_unreferenced_seed(monkeypatch):
    adapt = oracles.report_from_result
    state = {"done": False}

    def perturbing(engine, result, num_vars, exact):
        report = adapt(engine, result, num_vars, exact)
        if state["done"] or report.upper_bound is None:
            return report
        state["done"] = True
        return oracles.perturbed(
            report, detectability=report.upper_bound + Fraction(1, 2**num_vars)
        )

    monkeypatch.setattr(oracles, "report_from_result", perturbing)
    assert checks.load_reference("smoke", 7) is None
    outcome = runner.run("smoke", 7, 0.0, False, ROOT)
    assert "oracles only" in outcome["verification"]
    assert outcome["result"]["failed"] == 1
    assert outcome["fail_frac"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _run("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
