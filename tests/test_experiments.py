"""Smoke and correctness tests for the experiment suite.

These run at the fast ``smoke`` scale (five circuits, sampled fault
sets) and assert the paper's qualitative claims reproduce; the full
runs live in benchmarks/.
"""

from __future__ import annotations

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import ExperimentResult
from repro.experiments.campaigns import (
    bridging_campaign,
    circuit_functions,
    clear_campaign_caches,
    stuck_at_campaign,
)
from repro.experiments.config import SCALES, Scale, get_scale
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.pofed import run_pofed
from repro.experiments.table1 import run_table1
from repro.faults.bridging import BridgeKind

SMOKE = SCALES["smoke"]


class TestConfig:
    def test_get_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "ci"

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale().name == "smoke"

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("nope")

    def test_scale_lookups(self):
        scale = SCALES["ci"]
        assert scale.stuck_at_limit("c17") is None
        assert scale.stuck_at_limit("c1355") == 260
        assert scale.bridging_target("c1908") == 15
        assert scale.decompose_threshold("c17") is None
        assert scale.ordering("c1908") == "dfs"
        assert scale.ordering("c17") == "declared"


class TestCampaigns:
    def test_stuck_at_campaign_cached(self):
        first = stuck_at_campaign("c17", SMOKE)
        second = stuck_at_campaign("c17", SMOKE)
        assert first is second
        assert first.exact

    def test_campaign_sampling_respects_limit(self):
        campaign = stuck_at_campaign("c432", SMOKE)
        assert len(campaign.results) == 120

    def test_bridging_campaign_kinds_are_disjoint_caches(self):
        and_campaign = bridging_campaign("c17", BridgeKind.AND, SMOKE)
        or_campaign = bridging_campaign("c17", BridgeKind.OR, SMOKE)
        assert and_campaign is not or_campaign
        assert all(r.fault.kind is BridgeKind.AND for r in and_campaign.results)

    def test_records_have_bounds(self):
        campaign = stuck_at_campaign("fulladder", SMOKE)
        for record in campaign.results:
            assert 0 <= record.detectability <= record.upper_bound <= 1
            if record.upper_bound > 0:
                assert record.adherence is not None
                assert 0 <= record.adherence <= 1

    def test_bridging_records_have_equivalence_flag(self):
        campaign = bridging_campaign("fulladder", BridgeKind.AND, SMOKE)
        assert all(r.stuck_at_equivalent is not None for r in campaign.results)

    def test_clear_caches(self):
        first = stuck_at_campaign("c17", SMOKE)
        clear_campaign_caches()
        assert stuck_at_campaign("c17", SMOKE) is not first

    def test_shared_functions(self):
        assert circuit_functions("c17", SMOKE) is circuit_functions("c17", SMOKE)


class TestExperimentRuns:
    def test_table1(self):
        result = run_table1(SMOKE, trials=30)
        assert result.data["failures"] == 0
        assert "AND / NAND" in result.text

    def test_fig1(self):
        result = run_fig1(SMOKE)
        assert isinstance(result, ExperimentResult)
        for name in ("c95", "alu181"):
            assert result.data[name]["histogram"].sample_size > 0

    def test_fig2_normalized_detectability_decreases(self):
        result = run_fig2(SMOKE)
        points = result.data["points"]
        assert [p.circuit for p in points] == sorted(
            (p.circuit for p in points),
            key=lambda n: next(q.netlist_size for q in points if q.circuit == n),
        )
        # The qualitative claim on the exact (non-sampled) prefix:
        by_name = {p.circuit: p for p in points}
        assert (
            by_name["c95"].normalized_detectability
            < by_name["c17"].normalized_detectability
        )

    def test_fig3_profiles(self):
        result = run_fig3(SMOKE, circuit="c95")
        profile = result.data["po_profile"]
        assert profile.distances
        assert all(0 <= m <= 1 for m in profile.means)

    def test_fig4_adherence_spike(self):
        result = run_fig4(SMOKE)
        histogram = result.data["histogram"]
        assert histogram.proportions[-1] > 0  # PO faults adhere fully

    def test_fig5_proportions_low(self):
        result = run_fig5(SMOKE)
        for entry in result.data["proportions"].values():
            for proportion in entry.values():
                assert 0.0 <= proportion <= 0.5

    def test_fig6_and_or_similar(self):
        result = run_fig6(SMOKE)
        assert result.data["l1"] < 0.8
        assert abs(result.data["means"]["AND"] - result.data["means"]["OR"]) < 0.2

    def test_fig7_bridging_means_at_least_stuck_at(self):
        result = run_fig7(SMOKE)
        points = result.data["points"]
        stuck = result.data["stuck_means"]
        above = sum(
            1 for p in points if p.mean_detectability >= stuck[p.circuit] - 0.05
        )
        assert above >= len(points) - 1

    def test_fig8_profile(self):
        result = run_fig8(SMOKE, circuit="c95")
        assert result.data["profile"].distances

    def test_pofed_high_agreement(self):
        result = run_pofed(SMOKE)
        fractions = result.data["fractions"]
        assert all(f >= 0.8 for f in fractions.values())

    def test_ext_multiple_high_coverage(self):
        from repro.experiments.ext_multiple import run_ext_multiple

        result = run_ext_multiple(SMOKE, sample_pairs=80)
        assert all(v >= 0.9 for v in result.data["coverages"].values())

    def test_ext_bf_coverage_high_but_imperfect_possible(self):
        from repro.experiments.ext_bf_coverage import run_ext_bf_coverage

        result = run_ext_bf_coverage(SMOKE)
        every = [
            v
            for entry in result.data["coverages"].values()
            for v in entry.values()
        ]
        assert all(0.9 <= v <= 1.0 for v in every)

    def test_ext_testlength_grows_with_difficulty(self):
        from repro.experiments.ext_testlength import run_ext_testlength

        result = run_ext_testlength(SMOKE)
        lengths = result.data["lengths"]
        assert lengths["c432"] > lengths["c17"]

    def test_all_experiments_render(self):
        for name, runner in ALL_EXPERIMENTS.items():
            if name in ("fig3", "fig8"):  # c1355 at smoke scale: re-target
                continue
            result = runner(SMOKE)
            rendered = result.render()
            assert result.exp_id == name
            assert rendered.startswith(f"== {name}:")


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out

    def test_unknown_experiment(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_run_subset_with_output_dir(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["table1", "--scale", "smoke", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.txt").exists()
        assert "Table 1" in capsys.readouterr().out

    def test_stats_prints_allocated_and_live_peaks(self, capsys):
        from repro.experiments.cli import main

        assert main(["--scale", "smoke", "fig4", "--stats"]) == 0
        out = capsys.readouterr().out
        header = next(
            line for line in out.splitlines() if line.startswith("circuit")
        )
        assert "peak-alloc" in header.split()
        assert "peak-live" in header.split()


class TestCliFailurePath:
    def test_failing_experiment_reported(self, monkeypatch, capsys):
        from repro.experiments import cli
        import repro.experiments as exp

        def boom(_scale):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(exp.ALL_EXPERIMENTS, "table1", boom)
        assert cli.main(["table1", "--scale", "smoke"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "synthetic failure" in err


class TestFig3OnC432:
    def test_observability_correlation_claim(self):
        """Guards the bench assertion: on c432 the paper's correlation
        claim must hold (full collapsed fault set at smoke scale)."""
        from repro.experiments.fig3 import run_fig3

        result = run_fig3(SMOKE, circuit="c432")
        assert abs(result.data["corr_po"]) >= abs(result.data["corr_pi"])


class TestDecomposedCampaign:
    def test_cut_point_scale_still_produces_bounded_records(self):
        """Exercise the cut-point path end to end via a custom scale."""
        scale = Scale(
            name="cutpoints",
            circuits=("alu181",),
            decompose={"alu181": 40},
        )
        campaign = stuck_at_campaign("alu181", scale)
        assert not campaign.exact  # decomposition must have triggered
        for record in campaign.results[::9]:
            assert 0 <= record.detectability <= 1
            assert 0 <= record.upper_bound <= 1

    def test_dfs_ordering_scale_matches_declared(self):
        """Ordering policy must not change computed detectabilities."""
        declared = stuck_at_campaign("c95", SMOKE)
        dfs_scale = Scale(
            name="dfscheck", circuits=("c95",), orderings={"c95": "dfs"}
        )
        dfs = stuck_at_campaign("c95", dfs_scale)
        assert [r.detectability for r in declared.results] == [
            r.detectability for r in dfs.results
        ]


class TestMarkdownReport:
    def test_combined_markdown(self, tmp_path, capsys):
        from repro.experiments.cli import main

        report = tmp_path / "run.md"
        assert (
            main(["table1", "--scale", "smoke", "--markdown", str(report)])
            == 0
        )
        capsys.readouterr()
        text = report.read_text()
        assert text.startswith("# Experiment run report")
        assert "## table1" in text and "```" in text
