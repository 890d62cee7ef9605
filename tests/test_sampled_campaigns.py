"""Sampled campaign mode: routing, determinism, sharding, CLI, roster.

The statistical mode's contract has three legs, each pinned here:

* **routing** — ``Scale.mode`` / ``--mode sampled`` / ``$REPRO_MODE``
  all reach the ``"sampled"`` chunk body, supersede any exact engine
  choice, and cache under the ``"sampled"`` engine key;
* **invariance** — substream-seeded pattern rounds make the merged
  campaign bit-identical under any chunk size, worker count or
  completion order, and the exact OBDD path is never touched;
* **workloads** — the roster accepts external ``.bench`` netlists, and
  the committed ``tests/bench/mult16.bench`` fixture (32 inputs — past
  every built-in) runs the whole pipeline end to end.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.benchcircuits import get_circuit
from repro.experiments import campaigns, parallel
from repro.experiments.campaigns import (
    CampaignRequest,
    clear_campaign_caches,
    stuck_at_campaign,
)
from repro.experiments.config import get_scale
from repro.faults.stuck_at import collapsed_checkpoint_faults
from repro.sampling.engine import SampledCampaignEngine, SampledSettings
from repro.sampling.roster import (
    resolve_roster,
    roster_display_name,
    roster_sizes,
)

BENCH_DIR = Path(__file__).resolve().parent / "bench"
MULT16 = BENCH_DIR / "mult16.bench"


def _routing(scale, engine=None, mode=None) -> str:
    return CampaignRequest.of("c17", scale, engine=engine, mode=mode).routing


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Isolate every test from campaigns memoized by earlier ones."""
    clear_campaign_caches()
    yield
    clear_campaign_caches()


@pytest.fixture
def scale():
    return get_scale("ci")


class TestRouting:
    def test_explicit_mode_argument(self, scale):
        campaign = stuck_at_campaign("c17", scale, mode="sampled")
        assert campaign.exact is False
        assert campaign.strata
        assert [r.routing for r in campaigns._memo] == ["sampled"]
        for record in campaign.results:
            assert record.ci_low is not None
            assert record.ci_high is not None
            assert record.patterns_spent is not None
            assert record.stratum is not None

    def test_scale_mode_field(self, scale):
        sampled_scale = dataclasses.replace(scale, mode="sampled")
        campaign = stuck_at_campaign("c17", sampled_scale)
        assert campaign.exact is False
        assert campaign.results[0].ci_low is not None

    def test_env_mode(self, scale, monkeypatch):
        monkeypatch.setenv("REPRO_MODE", "sampled")
        resolved = get_scale("ci")
        assert resolved.mode == "sampled"
        assert _routing(resolved) == "sampled"
        assert scale.mode == "exact"  # resolved before the variable was set
        with pytest.raises(KeyError, match="unknown \\$REPRO_MODE"):
            get_scale("ci", {"REPRO_MODE": "approximate"})

    def test_sampled_supersedes_engine(self, scale):
        assert _routing(scale, "bitparallel", "sampled") == "sampled"
        assert _routing(scale, "dp", "sampled") == "sampled"

    def test_exact_mode_routes_to_engine(self, scale):
        assert _routing(scale, "dp", "exact") == "dp"
        assert _routing(scale, "bitparallel", "exact") == "bitparallel"

    def test_unknown_mode_raises(self, scale):
        with pytest.raises(KeyError, match="unknown campaign mode"):
            _routing(scale, None, "approximate")

    def test_mode_and_engine_cache_keys_are_distinct(self, scale):
        sampled = stuck_at_campaign("c17", scale, mode="sampled")
        exact = stuck_at_campaign("c17", scale, mode="exact")
        routings = {request.routing for request in campaigns._memo}
        assert routings == {"sampled", "dp"}
        assert exact.exact is True
        assert sampled.exact is False


class TestShardInvariance:
    def test_chunk_size_never_changes_results(self, scale):
        """Pattern substreams are keyed by round, never shard: any
        chunking of the fault list merges to the identical records."""
        circuit = get_circuit("c17")
        faults = collapsed_checkpoint_faults(circuit)
        serial = campaigns._run(
            circuit, "c17", scale, faults, False, engine="sampled"
        )
        for chunk_size in (1, 3, 7, len(faults)):
            sharded = parallel.run_campaign(
                circuit,
                "c17",
                scale,
                faults,
                bridging=False,
                n_workers=1,
                chunk_size=chunk_size,
                engine="sampled",
            )
            assert sharded.results == serial.results
            assert sharded.exact is False

    def test_process_pool_matches_serial(self, scale):
        circuit = get_circuit("c17")
        faults = collapsed_checkpoint_faults(circuit)
        serial = campaigns._run(
            circuit, "c17", scale, faults, False, engine="sampled"
        )
        pooled = parallel.run_campaign(
            circuit,
            "c17",
            scale,
            faults,
            bridging=False,
            n_workers=2,
            chunk_size=5,
            engine="sampled",
        )
        assert pooled.results == serial.results
        assert len(pooled.chunk_stats) == 4

    def test_sampled_mode_is_not_clamped_to_serial(self, scale):
        """Unlike the plain bitparallel engine, sampled campaigns may
        fan out: only ``engine == "bitparallel"`` forces one worker."""
        circuit = get_circuit("c95")
        faults = collapsed_checkpoint_faults(circuit)
        requested = parallel.effective_workers(2, circuit, len(faults))
        assert requested == 2


class TestSequentialStopping:
    def test_round_sizes_double_cumulatively(self):
        assert SampledSettings().round_sizes() == [256, 256, 512, 1024, 2048]
        assert SampledSettings(pattern_budget=1000).round_sizes() == [
            256,
            256,
            488,
        ]
        assert SampledSettings(pattern_budget=100).round_sizes() == [100]

    def test_invalid_budgets_raise(self):
        with pytest.raises(ValueError):
            SampledSettings(pattern_budget=0).round_sizes()
        with pytest.raises(ValueError):
            SampledSettings(initial_patterns=0).round_sizes()

    def test_spent_lands_on_round_boundaries(self):
        circuit = get_circuit("c17")
        faults = collapsed_checkpoint_faults(circuit)
        settings = SampledSettings(seed=0)
        records = SampledCampaignEngine(circuit, "c17", settings).run(faults)
        legal = set()
        cumulative = 0
        for size in settings.round_sizes():
            cumulative += size
            legal.add(cumulative)
        for record in records:
            assert record.patterns_spent in legal

    def test_unresolved_faults_exhaust_exactly_the_budget(self):
        """A target no mid-detectability fault can meet forces the full
        budget — the stopping rule must never stop early or overshoot."""
        circuit = get_circuit("c17")
        faults = collapsed_checkpoint_faults(circuit)
        settings = SampledSettings(seed=0, ci_width=0.005, pattern_budget=512)
        records = SampledCampaignEngine(circuit, "c17", settings).run(faults)
        unresolved = [
            r
            for r in records
            if (r.ci_high - r.ci_low) / 2 > settings.ci_width
        ]
        assert unresolved, "expected some fault to miss a 0.005 half-width"
        for record in unresolved:
            assert record.patterns_spent == settings.pattern_budget

    def test_easy_faults_retire_in_the_first_round(self):
        """Undetectable and always-detected faults close their interval
        immediately; the budget concentrates on the uncertain middle."""
        circuit = get_circuit("c17")
        faults = collapsed_checkpoint_faults(circuit)
        settings = SampledSettings(seed=0)
        records = SampledCampaignEngine(circuit, "c17", settings).run(faults)
        for record in records:
            if record.detectability in (0, 1):
                assert record.patterns_spent == settings.initial_patterns


class TestRoster:
    def test_builtins_pass_through(self):
        assert resolve_roster(["c17", "c432"]) == ["c17", "c432"]

    def test_bench_paths_resolve_absolute(self):
        (entry,) = resolve_roster([str(MULT16)])
        assert Path(entry).is_absolute()
        assert roster_display_name(entry) == "mult16"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="neither a built-in"):
            resolve_roster(["c9999"])

    def test_missing_bench_file_raises(self):
        with pytest.raises(FileNotFoundError):
            resolve_roster(["no/such/file.bench"])

    def test_roster_sizes_reports_external_netlists(self):
        ((name, inputs, size),) = roster_sizes([str(MULT16)])
        assert name == "mult16"
        assert inputs == 32
        assert size > get_circuit("c1908").netlist_size


class TestMult16Fixture:
    def test_committed_bench_matches_its_generator(self):
        """The fixture cannot drift: rebuilding the multiplier from the
        committed generator yields the identical netlist."""
        import sys

        sys.path.insert(0, str(BENCH_DIR))
        try:
            from generate_mult16 import build_mult16
        finally:
            sys.path.remove(str(BENCH_DIR))
        from repro.circuit.iscas import parse_bench_file

        built = build_mult16()
        parsed = parse_bench_file(MULT16)
        assert parsed.inputs == built.inputs
        assert parsed.outputs == built.outputs
        # The parser may topologically re-order gate lines; the netlist
        # contents (names, types, fanins) must still match exactly.
        assert {g.name: g for g in parsed.gates()} == {
            g.name: g for g in built.gates()
        }

    def test_multiplies(self):
        from repro.circuit.iscas import parse_bench_file

        circuit = parse_bench_file(MULT16)
        x, y = 51234, 40321
        assignment = {f"a{i}": bool((x >> i) & 1) for i in range(16)}
        assignment |= {f"b{j}": bool((y >> j) & 1) for j in range(16)}
        outputs = circuit.evaluate_outputs(assignment)
        value = sum(1 << k for k in range(32) if outputs[f"p{k}"])
        assert value == x * y

    def test_end_to_end_sampled_campaign_never_touches_obdd(self, scale):
        """Acceptance criterion: a committed workload bigger than any
        built-in completes the sampled pipeline — strata, intervals,
        telemetry — with the exact OBDD path left cold."""
        (entry,) = resolve_roster([str(MULT16)])
        workload = dataclasses.replace(
            scale,
            stuck_at_samples={entry: 12},
            pattern_budget=1024,
        )
        campaign = stuck_at_campaign(entry, workload, mode="sampled")
        assert campaigns._functions_cache == {}  # no OBDD was built
        assert len(campaign.results) == 12
        assert campaign.exact is False
        assert campaign.patterns_spent() >= 12 * 256
        summary = campaign.ci_width_summary()
        assert summary["count"] == 12
        for record in campaign.results:
            assert 0.0 <= record.ci_low <= record.ci_high <= 1.0


class TestCLI:
    def test_writes_the_campaign_artifact(self, tmp_path, monkeypatch):
        from repro.sampling.__main__ import SCHEMA, main

        # the CLI's own mode and --budget flag beat these variables
        monkeypatch.setenv("REPRO_MODE", "exact")
        monkeypatch.setenv("REPRO_PATTERN_BUDGET", "4096")
        rc = main(
            [
                "c17",
                "--out",
                str(tmp_path),
                "--budget",
                "512",
                "--faults",
                "10",
            ]
        )
        assert rc == 0
        document = json.loads(
            (tmp_path / "c17_sampled.json").read_text(encoding="utf-8")
        )
        assert document["schema"] == SCHEMA
        assert document["mode"] == "sampled"
        assert document["circuit"] == "c17"
        assert document["num_faults"] == 10
        assert document["settings"]["pattern_budget"] == 512
        assert len(document["faults"]) == 10
        assert document["strata"]
        assert "sampling.patterns_spent" in document["metrics"]["counters"]
        assert document["manifest"]
        record = document["faults"][0]
        assert {"fault", "stratum", "ci_low", "ci_high", "patterns_spent"} <= (
            set(record)
        )

    def test_rejects_bad_flags(self, tmp_path):
        from repro.sampling.__main__ import main

        with pytest.raises(SystemExit):
            main(["c17", "--ci-width", "0.9", "--out", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["c17", "--budget", "0", "--out", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["nonexistent", "--out", str(tmp_path)])
