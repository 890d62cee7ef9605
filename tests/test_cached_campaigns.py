"""Acceptance tests for the content-addressed campaign run-cache.

The contract under test (the PR's headline acceptance criterion): a
re-run of a full c432 stuck-at campaign with the cache on is **served
from the ledger with zero fault simulations** — every ``sim.*`` and
``bdd.*`` counter flat at zero, ``campaign.cache_hit`` pinned to 1 —
and the served detectabilities are *equal* (exact Fractions, so
byte-identical rendered figures), not merely close.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import runcache
from repro.experiments.campaigns import (
    CampaignRequest,
    bridging_campaign,
    clear_campaign_caches,
    stuck_at_campaign,
)
from repro.experiments.config import get_scale
from repro.faults.bridging import BridgeKind
from repro.obs import store


@pytest.fixture
def cached_scale(tmp_path, monkeypatch):
    """A ci-scale with the ledger rooted in this test's tmp dir."""
    monkeypatch.setenv(store.CACHE_ENV, str(tmp_path / "ledger"))
    runcache._LEDGERS.clear()
    clear_campaign_caches()
    yield dataclasses.replace(get_scale("ci"), cache=True)
    clear_campaign_caches()
    runcache._LEDGERS.clear()


def _work_counters(result) -> dict[str, float]:
    """Every simulation/BDD work counter of a campaign's metrics."""
    counters = result.metrics().snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(("sim.", "bdd."))
    }


# ----------------------------------------------------------------------
# The acceptance criterion: c432 full stuck-at served with zero work
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["bitparallel", "dp"])
def test_c432_second_run_is_served_with_zero_simulation(
    cached_scale, engine
):
    scale = dataclasses.replace(cached_scale, engine=engine)
    computed = stuck_at_campaign("c432", scale)
    assert computed.from_cache is False
    assert computed.results, "campaign computed nothing"
    assert sum(_work_counters(computed).values()) > 0, (
        "computed run recorded no simulation work — counter wiring broke"
    )
    assert computed.metrics().counter_value("campaign.cache_hit") == 0

    clear_campaign_caches()  # drop the in-memory layer; ledger remains
    served = stuck_at_campaign("c432", scale)

    assert served.from_cache is True
    metrics = served.metrics()
    assert metrics.counter_value("campaign.cache_hit") == 1
    flat = _work_counters(served)
    assert all(value == 0 for value in flat.values()), (
        f"served run did simulation work: "
        f"{ {k: v for k, v in flat.items() if v} }"
    )
    assert served.total_seconds() == 0.0
    assert served.chunk_stats == ()

    # equal — exact Fractions, identical fault order, identical strata
    assert served == computed
    assert served.detectabilities() == computed.detectabilities()
    assert [r.fault for r in served.results] == [
        r.fault for r in computed.results
    ]


def test_bridging_campaign_round_trips_through_ledger(cached_scale):
    computed = bridging_campaign("c95", BridgeKind.AND, cached_scale)
    clear_campaign_caches()
    served = bridging_campaign("c95", BridgeKind.AND, cached_scale)
    assert served.from_cache and served == computed
    assert served.metrics().counter_value("campaign.cache_hit") == 1


def test_cache_stats_count_the_round_trip(cached_scale):
    stuck_at_campaign("c17", cached_scale)
    clear_campaign_caches()
    stuck_at_campaign("c17", cached_scale)
    stats = runcache.cache_stats()
    assert stats["puts"] >= 1 and stats["hits"] >= 1
    assert stats["corrupt"] == 0


# ----------------------------------------------------------------------
# The ledger never serves wrong data
# ----------------------------------------------------------------------
def test_corrupted_ledger_object_forces_recompute(cached_scale):
    computed = stuck_at_campaign("c17", cached_scale)
    clear_campaign_caches()

    ledger = runcache.ledger()
    [key] = ledger.keys()
    path = ledger.object_path(key)
    path.write_text(path.read_text().replace('"exact": true', '"exact": false'))

    recomputed = stuck_at_campaign("c17", cached_scale)
    assert recomputed.from_cache is False  # tamper detected → recompute
    assert recomputed == computed


def test_decode_garbage_body_forces_recompute(cached_scale):
    stuck_at_campaign("c17", cached_scale)
    clear_campaign_caches()

    ledger = runcache.ledger()
    [key] = ledger.keys()
    # valid object, valid hash, but a body the codec rejects
    ledger.put(key, {"schema": "not-a-campaign/1"})
    recomputed = stuck_at_campaign("c17", cached_scale)
    assert recomputed.from_cache is False
    assert recomputed.results


# ----------------------------------------------------------------------
# Projection semantics
# ----------------------------------------------------------------------
def _run_key(scale, name="c432", **overrides) -> str:
    request = CampaignRequest.of(name, scale, **overrides)
    return store.run_key(request.projection())


def test_projection_excludes_result_neutral_knobs(cached_scale):
    base = CampaignRequest.of("c432", cached_scale)
    reworked = dataclasses.replace(
        cached_scale, workers=8, reorder=True, cache=False, name="other"
    )
    assert CampaignRequest.of("c432", reworked).projection() == (
        base.projection()
    )
    assert CampaignRequest.of("c432", reworked) == base
    assert base.projection()["schema"] == "repro.run-key/2"


def test_projection_includes_result_shaping_knobs(cached_scale):
    base = _run_key(cached_scale)
    for variant in (
        dataclasses.replace(cached_scale, seed=99),
        dataclasses.replace(
            cached_scale, stuck_at_samples={"c432": 3}
        ),
        dataclasses.replace(cached_scale, decompose={"c432": 500}),
        dataclasses.replace(cached_scale, orderings={"c432": "dfs"}),
    ):
        assert _run_key(variant) != base
    assert _run_key(cached_scale, engine="bitparallel") != base
    sampled = _run_key(cached_scale, mode="sampled")
    assert sampled != base
    for knob in ({"ci_width": 0.01}, {"pattern_budget": 512}):
        variant = dataclasses.replace(cached_scale, **knob)
        assert _run_key(variant, mode="sampled") != sampled
        # exact campaigns never read the sampled-mode knobs
        assert _run_key(variant) == base


def test_round_trip_equal_debug_helper(cached_scale):
    result = stuck_at_campaign("c17", cached_scale)
    assert runcache.round_trip_equal("c17", result)


# ----------------------------------------------------------------------
# Switches
# ----------------------------------------------------------------------
def test_cache_off_touches_no_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv(store.CACHE_ENV, str(tmp_path / "ledger"))
    runcache._LEDGERS.clear()
    clear_campaign_caches()
    scale = dataclasses.replace(get_scale("ci"), cache=False)
    result = stuck_at_campaign("c17", scale)
    assert result.from_cache is False
    assert not (tmp_path / "ledger").exists()
    clear_campaign_caches()


def test_scale_cache_flag_overrides_env(monkeypatch):
    monkeypatch.delenv(store.CACHE_ENV, raising=False)
    assert get_scale("ci").cache is False
    assert dataclasses.replace(get_scale("ci"), cache=True).cache
    monkeypatch.setenv(store.CACHE_ENV, "1")
    assert get_scale("ci").cache is True
    assert not dataclasses.replace(get_scale("ci"), cache=False).cache
    for raw, enabled in (("off", False), ("0", False), ("/x/ledger", True)):
        assert get_scale("ci", {store.CACHE_ENV: raw}).cache is enabled
