"""Experiment scales.

Exact OBDD analysis of every fault on the big circuits is a batch-job
workload (the paper ran on late-80s workstations for hours). Every
preset builds exact good functions on every circuit, C1908 under the
fanin-DFS order; none sets :attr:`Scale.decompose`:

* ``ci`` (default) — full fault sets wherever a circuit analyzes in
  milliseconds per fault, seeded samples on the three big circuits.
* ``smoke`` — the circuits through C432 with small samples.
* ``paper`` — the paper's fault-set sizes: complete collapsed
  checkpoint sets everywhere, complete NFBF sets through the 74LS181,
  ≈1000-fault distance-weighted NFBF samples on the large circuits, and
  exact functions where the paper fell back on functional decomposition
  (C499 and larger).

Select with ``REPRO_SCALE=paper`` in the environment or the ``--scale``
CLI flag.

Configuration is resolved once, at the edge: :func:`get_scale` is the
only reader of the campaign ``REPRO_*`` variables, and a ``Scale`` it
returns carries concrete values for every policy field. A ``Scale(...)``
built in code ignores the environment entirely; CLI flags override the
resolved scale with :func:`dataclasses.replace` (flag > env > default).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.store import env_cache_enabled
from repro.obs.trace import FALSEY

#: Engines the campaign layer can route to.
CAMPAIGN_ENGINES = ("dp", "bitparallel")

#: Campaign modes the dispatch layer can route to.
CAMPAIGN_MODES = ("exact", "sampled")

#: Default target CI half-width for sampled campaigns.
DEFAULT_CI_WIDTH = 0.05

#: Default per-fault pattern budget for sampled campaigns.
DEFAULT_PATTERN_BUDGET = 4096


@dataclass(frozen=True)
class Scale:
    """Fault-set sizing and decomposition policy for one run profile."""

    name: str
    seed: int = 0
    #: circuits covered by the suite-wide figures, in size order
    circuits: tuple[str, ...] = (
        "c17",
        "fulladder",
        "c95",
        "alu181",
        "c432",
        "c499",
        "c1355",
        "c1908",
    )
    #: stuck-at sample size per circuit; absent/None = full collapsed set
    stuck_at_samples: Mapping[str, int | None] = field(default_factory=dict)
    #: per-kind bridging sample target; absent/None = full NFBF set
    bridging_samples: Mapping[str, int | None] = field(default_factory=dict)
    #: cut-point decomposition threshold per circuit; absent = exact
    decompose: Mapping[str, int] = field(default_factory=dict)
    #: OBDD variable-order heuristic per circuit: "declared" (the
    #: paper's choice, default) or "dfs" (fanin DFS — several times
    #: faster on the deep SEC/DED circuit). Ordering never changes any
    #: computed quantity, only runtime.
    orderings: Mapping[str, str] = field(default_factory=dict)
    #: worker processes for campaign execution. Campaigns on tiny
    #: circuits fall back to serial regardless — results are
    #: bit-identical either way (see ``repro.experiments.parallel``).
    workers: int = 1
    #: campaign engine: ``"dp"`` (exact OBDD Δ-propagation) or
    #: ``"bitparallel"`` (the vectorized kernel — exact on exhaustive
    #: circuits, sampled beyond them)
    engine: str = "dp"
    #: dynamic variable reordering (Rudell sifting) in the DP engine:
    #: an initial sift after the good-function build plus growth-
    #: triggered re-sifts at the GC boundary. Never changes any computed
    #: quantity, only memory/runtime.
    reorder: bool = False
    #: campaign mode: ``"exact"`` (closed-form detectabilities) or
    #: ``"sampled"`` (stratified Monte-Carlo estimation with Wilson
    #: confidence intervals — see :mod:`repro.sampling`)
    mode: str = "exact"
    #: sampled mode's target CI half-width per fault (``None`` is only
    #: meaningful for scales that never run a sampled campaign)
    ci_width: float | None = DEFAULT_CI_WIDTH
    #: sampled mode's per-fault pattern budget (``None`` as above)
    pattern_budget: int | None = DEFAULT_PATTERN_BUDGET
    #: consult the content-addressed run ledger (``results/ledger/``)
    #: before computing a campaign, and record fresh results into it.
    #: A ledger-served result is equal to the computed one (exact
    #: fractions round trip); only the execution telemetry differs.
    cache: bool = False

    def stuck_at_limit(self, circuit: str) -> int | None:
        return self.stuck_at_samples.get(circuit)

    def bridging_target(self, circuit: str) -> int | None:
        return self.bridging_samples.get(circuit)

    def decompose_threshold(self, circuit: str) -> int | None:
        return self.decompose.get(circuit)

    def ordering(self, circuit: str) -> str:
        return self.orderings.get(circuit, "declared")

    # The benchmark harness calls these two accessors; keep them.
    def effective_engine(self) -> str:
        return self.engine

    def effective_reorder(self) -> bool:
        return self.reorder


def _choice(known: tuple[str, ...]):
    def parse(variable: str, raw: str) -> str:
        if raw not in known:
            raise KeyError(
                f"unknown ${variable} {raw!r}; known: {', '.join(known)}"
            )
        return raw

    return parse


def _number(convert, valid, requirement: str):
    def parse(variable: str, raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise ValueError(f"${variable} {raw!r} is not {requirement}")
        return value

    return parse


def _workers(variable: str, raw: str) -> int:
    try:
        return max(1, int(raw))
    except ValueError:  # an unparsable count means serial
        return 1


def _switch(variable: str, raw: str) -> bool:
    return raw.lower() not in FALSEY


#: campaign variable -> (the ``Scale`` field it sets, its parser)
_CAMPAIGN_ENV = {
    "REPRO_WORKERS": ("workers", _workers),
    "REPRO_ENGINE": ("engine", _choice(CAMPAIGN_ENGINES)),
    "REPRO_MODE": ("mode", _choice(CAMPAIGN_MODES)),
    "REPRO_CI_WIDTH": (
        "ci_width",
        _number(float, lambda w: 0.0 < w <= 0.5, "a number in (0, 0.5]"),
    ),
    "REPRO_PATTERN_BUDGET": (
        "pattern_budget",
        _number(int, lambda budget: budget >= 1, "a positive integer"),
    ),
    "REPRO_REORDER": ("reorder", _switch),
    # the ledger-directory form of the same variable is read by obs.store
    "REPRO_CACHE": ("cache", lambda var, raw: env_cache_enabled({var: raw})),
}


def env_overrides(environ: Mapping[str, str] = os.environ) -> dict[str, Any]:
    """The ``Scale`` fields set by the campaign ``REPRO_*`` variables.

    Only variables that are present and non-blank appear. A set but
    invalid engine, mode, CI width or pattern budget raises rather than
    silently running a campaign under the wrong policy.
    """
    overrides: dict[str, Any] = {}
    for variable, (name, parse) in _CAMPAIGN_ENV.items():
        raw = environ.get(variable, "").strip()
        if raw:
            overrides[name] = parse(variable, raw)
    return overrides


SCALES: dict[str, Scale] = {
    "ci": Scale(
        name="ci",
        stuck_at_samples={"c499": 120, "c1355": 260, "c1908": 40},
        bridging_samples={
            "alu181": 400,
            "c432": 250,
            "c499": 100,
            "c1355": 60,
            "c1908": 15,
        },
        orderings={"c1908": "dfs"},
    ),
    "smoke": Scale(
        name="smoke",
        circuits=("c17", "fulladder", "c95", "alu181", "c432"),
        stuck_at_samples={"c432": 120},
        bridging_samples={"alu181": 120, "c432": 80},
    ),
    "paper": Scale(
        name="paper",
        bridging_samples={
            "c432": 1000,
            "c499": 1000,
            "c1355": 1000,
            "c1908": 1000,
        },
        orderings={"c1908": "dfs"},
    ),
}


def get_scale(
    name: str | None = None, environ: Mapping[str, str] = os.environ
) -> Scale:
    """Resolve a scale by name (else ``$REPRO_SCALE``, else ``ci``) and
    apply the campaign ``REPRO_*`` variables in ``environ`` to it."""
    if name is None:
        name = environ.get("REPRO_SCALE", "").strip() or "ci"
    try:
        scale = SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; known: {', '.join(SCALES)}"
        ) from None
    return dataclasses.replace(scale, **env_overrides(environ))
