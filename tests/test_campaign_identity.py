"""One campaign identity: ``CampaignRequest`` keys the memo and the ledger.

Each regression here pins a way the old keys confused two different
campaigns — a seed, a CI width, an edited netlist, edited code, the
bit-parallel kernel's seed — plus the configuration edge around them:
``$REPRO_REORDER`` reaches the engines through the resolver alone, and
the CLI's run header logs cleanly.
"""

from __future__ import annotations

import dataclasses
import io
import logging
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import repro
from repro.benchcircuits import registry
from repro.experiments import campaigns, runcache
from repro.experiments.campaigns import (
    CampaignRequest,
    clear_campaign_caches,
    stuck_at_campaign,
)
from repro.experiments.config import get_scale
from repro.obs import store


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_campaign_caches()
    yield
    clear_campaign_caches()


def _faults(result) -> list:
    return [record.fault for record in result.results]


def test_seed_changes_the_sampled_fault_list():
    scale = dataclasses.replace(get_scale("ci"), stuck_at_samples={"c432": 50})
    first = stuck_at_campaign("c432", scale)
    second = stuck_at_campaign("c432", dataclasses.replace(scale, seed=1))
    assert len(first.results) == len(second.results) == 50
    assert _faults(first) != _faults(second)


def test_ci_width_changes_the_sampled_campaign():
    pytest.importorskip("numpy")
    scale = get_scale("ci")
    loose = stuck_at_campaign(
        "c95", dataclasses.replace(scale, ci_width=0.2), mode="sampled"
    )
    tight = stuck_at_campaign(
        "c95", dataclasses.replace(scale, ci_width=0.01), mode="sampled"
    )
    assert loose is not tight
    assert loose != tight
    assert tight.patterns_spent() > loose.patterns_spent()


#: ``x`` fans out, so its branches are checkpoints whose activation
#: probability flips between AND (x=1 on 1/4) and OR (x=1 on 3/4)
_BENCH = """\
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
x = {first}(a, b)
y = {second}(x, c)
z = NAND(x, c)
"""


def test_edited_bench_file_is_recomputed_not_served(tmp_path, monkeypatch):
    monkeypatch.setenv(store.CACHE_ENV, str(tmp_path / "ledger"))
    runcache._LEDGERS.clear()
    netlist = tmp_path / "swap.bench"
    netlist.write_text(_BENCH.format(first="AND", second="OR"))
    scale = dataclasses.replace(get_scale("ci"), cache=True)
    name = str(netlist)
    try:
        original = stuck_at_campaign(name, scale)
        assert original.from_cache is False
        # a new process: nothing in memory, the ledger on disk
        clear_campaign_caches()
        registry._CACHE.pop(name, None)
        netlist.write_text(_BENCH.format(first="OR", second="AND"))
        edited = stuck_at_campaign(name, scale)
    finally:
        registry._CACHE.pop(name, None)
        runcache._LEDGERS.clear()
    assert edited.from_cache is False
    assert edited.detectabilities() != original.detectabilities()


def test_source_edit_changes_the_run_key(tmp_path, monkeypatch):
    package = Path(repro.__file__).resolve().parent
    copy = tmp_path / "repro"
    shutil.copytree(
        package, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    assert runcache.source_digest(copy) == runcache.code_digest()
    request = CampaignRequest.of("c17", get_scale("ci"))
    assert request.code == runcache.code_digest()
    before = store.run_key(request.projection())

    engine = copy / "core" / "engine.py"
    engine.write_bytes(engine.read_bytes() + b"# edited\n")
    edited = runcache.source_digest(copy)
    assert edited != request.code
    monkeypatch.setattr(runcache, "code_digest", lambda: edited)
    after = CampaignRequest.of("c17", get_scale("ci"))
    assert store.run_key(after.projection()) != before


def test_bitparallel_vectors_follow_the_seed():
    np = pytest.importorskip("numpy")
    scale = get_scale("ci")
    seed0 = campaigns._bitparallel_simulator("c432", scale)
    seed7 = campaigns._bitparallel_simulator(
        "c432", dataclasses.replace(scale, seed=7)
    )
    assert seed7 is not seed0
    words0, words7 = seed0._input_words, seed7._input_words
    assert words0.keys() == words7.keys()
    assert any(not np.array_equal(words0[n], words7[n]) for n in words0)
    again = campaigns._bitparallel_simulator("c432", scale)
    assert again is seed0


# ----------------------------------------------------------------------
# The configuration edge
# ----------------------------------------------------------------------
def test_resolver_parses_every_campaign_variable():
    environ = {
        "REPRO_SCALE": "smoke",
        "REPRO_WORKERS": "3",
        "REPRO_ENGINE": "bitparallel",
        "REPRO_MODE": "sampled",
        "REPRO_CI_WIDTH": "0.1",
        "REPRO_PATTERN_BUDGET": "512",
        "REPRO_REORDER": "yes",
        "REPRO_CACHE": "1",
    }
    scale = get_scale(environ=environ)
    assert scale.name == "smoke"
    assert (scale.workers, scale.engine, scale.mode) == (
        3,
        "bitparallel",
        "sampled",
    )
    assert (scale.ci_width, scale.pattern_budget) == (0.1, 512)
    assert scale.reorder is True and scale.cache is True
    defaults = get_scale(environ={})
    assert (defaults.name, defaults.workers) == ("ci", 1)
    assert defaults.engine == "dp"
    assert (defaults.mode, defaults.reorder, defaults.cache) == (
        "exact",
        False,
        False,
    )
    assert get_scale(environ={"REPRO_WORKERS": "many"}).workers == 1


@pytest.mark.parametrize(
    "variable, raw, error, message",
    [
        ("REPRO_CI_WIDTH", "wide", ValueError, "REPRO_CI_WIDTH"),
        ("REPRO_CI_WIDTH", "0", ValueError, "REPRO_CI_WIDTH"),
        ("REPRO_CI_WIDTH", "0.6", ValueError, "REPRO_CI_WIDTH"),
        ("REPRO_PATTERN_BUDGET", "lots", ValueError, "REPRO_PATTERN_BUDGET"),
        ("REPRO_PATTERN_BUDGET", "0", ValueError, "REPRO_PATTERN_BUDGET"),
        ("REPRO_ENGINE", "quantum", KeyError, "REPRO_ENGINE"),
        ("REPRO_SCALE", "huge", KeyError, "unknown scale"),
    ],
)
def test_resolver_rejects_invalid_values(variable, raw, error, message):
    with pytest.raises(error, match=message):
        get_scale(environ={variable: raw})


def test_scale_built_in_code_ignores_the_environment(monkeypatch):
    from repro.experiments.config import Scale

    monkeypatch.setenv("REPRO_ENGINE", "bitparallel")
    monkeypatch.setenv("REPRO_WORKERS", "4")
    built = Scale(name="x")
    assert (built.engine, built.workers) == ("dp", 1)
    assert CampaignRequest.of("c17", built).routing == "dp"


def test_reorder_env_turns_sifting_on_through_the_experiments_cli(
    monkeypatch,
):
    from repro.experiments.cli import main

    monkeypatch.setenv("REPRO_REORDER", "1")
    with redirect_stdout(io.StringIO()):
        assert main(["--scale", "smoke", "fig4"]) == 0
    results = list(campaigns._memo.values())
    runs = "bdd.reorder.runs"
    assert results and all(r.metrics().counter_value(runs) > 0 for r in results)

    clear_campaign_caches()
    monkeypatch.delenv("REPRO_REORDER")
    with redirect_stdout(io.StringIO()):
        assert main(["--scale", "smoke", "fig4"]) == 0
    assert all(
        r.metrics().counter_value(runs) == 0 for r in campaigns._memo.values()
    )


@pytest.mark.parametrize("raw, sifted", [("1", True), ("0", False)])
def test_reorder_env_turns_sifting_on_through_verify(monkeypatch, raw, sifted):
    from repro.verify import conformance
    from repro.verify.__main__ import main

    engines: list = []

    class Recording(conformance.DifferencePropagation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(conformance, "DifferencePropagation", Recording)
    monkeypatch.setenv("REPRO_REORDER", raw)
    argv = ["--circuits", "c17", "--skip-metamorphic", "--skip-seeded"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert engines
    assert (
        any(engine.functions.manager.reorder_runs > 0 for engine in engines)
        is sifted
    )


def test_cli_run_header_logs_without_errors(monkeypatch):
    from repro.experiments.cli import main

    class FailOnError(logging.Handler):
        def __init__(self) -> None:
            super().__init__(logging.INFO)
            self.failures: list[logging.LogRecord] = []
            self.messages: list[str] = []

        def emit(self, record: logging.LogRecord) -> None:
            try:
                self.messages.append(self.format(record))
            except Exception:
                self.handleError(record)

        def handleError(self, record: logging.LogRecord) -> None:
            self.failures.append(record)

    monkeypatch.setattr(logging, "raiseExceptions", True)
    monkeypatch.setenv("REPRO_LOG", "info")
    handler = FailOnError()
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["--scale", "smoke", "table1"]) == 0
    finally:
        logger.removeHandler(handler)
    assert not handler.failures, [r.msg for r in handler.failures]
    assert any(m.startswith("scale: smoke") for m in handler.messages)
