"""Shared fixtures for the benchmark harness.

Every ``test_bench_fig*.py`` regenerates one of the paper's figures or
tables: it runs the experiment under ``pytest-benchmark`` (one round —
these are minutes-scale analyses, not microbenchmarks), asserts the
paper's qualitative finding, prints the rows/series, and writes the
rendering to ``results/``.

Scale selection follows the experiment suite: ``REPRO_SCALE=paper``
for full fault sets, default ``ci`` for the sampled profile.

Every source of randomness — fault sampling inside campaign scales,
ad-hoc ``random.Random`` draws in individual benches, numpy pattern
generators — derives from the single ``REPRO_SEED`` environment
variable (default 0), so one knob reproduces an entire benchmark run.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import time
from pathlib import Path

import pytest

# Make the experiment campaign cache warm across benches in one session:
# later figures reuse earlier campaigns exactly like the CLI runner does.
from repro.experiments.config import get_scale

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

REPRO_SEED = int(os.environ.get("REPRO_SEED", "0"))


@pytest.fixture(scope="session")
def repro_seed() -> int:
    """The run's master seed; every bench-local RNG must derive from it."""
    return REPRO_SEED


@pytest.fixture(autouse=True, scope="session")
def _seed_global_rngs():
    """Pin the module-level RNGs for anything not taking an explicit seed."""
    random.seed(REPRO_SEED)
    try:
        import numpy
    except ImportError:
        pass
    else:
        numpy.random.seed(REPRO_SEED)


@pytest.fixture(scope="session")
def scale():
    return dataclasses.replace(get_scale(), seed=REPRO_SEED)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(autouse=True, scope="module")
def _release_heavy_bdd_state():
    """Free OBDD managers between benchmark modules.

    Campaign *records* (plain fractions) stay cached across the whole
    session, but the shared good-function tables pin multi-million-node
    managers; one 15 GB box cannot hold every circuit's at once. The
    scalar caches make re-deriving functions cheap when a later module
    needs them again.
    """
    yield
    import gc

    from repro.experiments import campaigns

    campaigns._functions_cache.clear()
    gc.collect()


def _roster_row(request) -> list[str]:
    """One campaign of a bench artifact's roster, from its request."""
    return [
        request.model,
        request.circuit,
        request.bridge_kind or "",
        request.routing,
    ]


@pytest.fixture(autouse=True, scope="module")
def _bench_artifact(request, results_dir, scale):
    """Emit ``results/BENCH_<name>.json`` for every benchmark module.

    The machine-readable twin of each bench's ``.txt`` rendering: wall
    seconds for the whole module, the merged metric totals (BDD op
    counts, GC reclaim, cache hit rate, peak/live nodes) of every
    campaign the module caused to run, and a run manifest — so CI can
    archive and diff benchmark runs without scraping stdout.
    """
    from repro import obs
    from repro.experiments import campaigns

    module = request.module.__name__.rpartition(".")[2]
    name = module.removeprefix("test_bench_")
    before = set(campaigns._memo)
    t0 = time.perf_counter()
    yield
    wall = time.perf_counter() - t0

    registry = obs.MetricsRegistry()
    roster: list[list[str]] = []
    for req in sorted(set(campaigns._memo) - before, key=_roster_row):
        registry.merge_snapshot(campaigns._memo[req].metrics().snapshot())
        roster.append(_roster_row(req))
    payload = {
        "wall_seconds": wall,
        "campaigns": roster,
        "metrics": registry.snapshot(),
        "cache_hit_rate": registry.ratio(
            "bdd.cache.hits", ("bdd.cache.hits", "bdd.cache.misses")
        ),
    }
    # A bench module can publish extra artifact fields (e.g. measured
    # speedups) by filling a module-level ``BENCH_EXTRA`` dict.
    payload.update(getattr(request.module, "BENCH_EXTRA", {}))
    obs.write_bench_artifact(
        results_dir,
        name,
        payload,
        manifest=obs.RunManifest.collect(scale=scale, wall_seconds=wall),
    )


@pytest.fixture
def publish(results_dir):
    """Print an experiment's rendering and persist it under results/."""

    def _publish(result) -> None:
        rendered = result.render()
        (results_dir / f"{result.exp_id}.txt").write_text(rendered + "\n")
        print(f"\n{rendered}", file=sys.stderr)

    return _publish
