"""Verification of sampled campaigns: consistency oracles + calibration.

Sampled campaigns trade the exact engines' by-construction guarantees
for statistical ones, so their verification splits in two:

* **Consistency oracles** — deterministic invariants every honest
  sampled record must satisfy regardless of randomness: the interval
  is a well-formed sub-range of ``[0, 1]`` containing the point
  estimate; the reported bounds are exactly the Wilson interval of the
  reported ``(detections, patterns_spent)`` tally (so misaccounted
  budgets are visible as non-integral detection counts or drifted
  bounds); the sequential stopping rule was obeyed (a fault only stops
  short of the budget once its interval is tight enough, and every
  tally lands on a legal round boundary); and the realized sample
  honors the stratification plan (a silently dropped stratum is the
  bias these campaigns exist to avoid).

* **Calibration** — the statistical claim itself, checked against
  ground truth: run the same fault sets through the exact Difference
  Propagation engine and through the sampled estimator under several
  seeds, and demand the empirical coverage of the nominal 95%
  intervals stays above :data:`CALIBRATION_THRESHOLD`. Sequential
  stopping spends a little of the nominal coverage (optional-stopping
  bias), which is why the gate sits at 93% rather than 95%.

Both surfaces are exercised by ``python -m repro.verify`` when
``$REPRO_MODE=sampled`` (or ``--mode sampled``) and by the seeded
defects in :mod:`repro.verify.seeded`, which prove a biased stratum
sampler and an off-by-one budget accountant are actually caught.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.benchcircuits import get_circuit
from repro.circuit.netlist import Circuit
from repro.core.engine import DifferencePropagation
from repro.core.metrics import Fault
from repro.faults.bridging import BridgeKind, enumerate_nfbfs
from repro.faults.stuck_at import collapsed_checkpoint_faults
from repro.obs.trace import get_tracer
from repro.verify.oracles import Violation, check_campaign

#: Numerical slack for recomputed-float comparisons (Wilson bounds are
#: pure float arithmetic, so honest recomputation matches far tighter).
FLOAT_TOLERANCE = 1e-9

#: Empirical-coverage gate for nominal 95% intervals. Sequential
#: stopping is slightly anticonservative (the rule peeks at the
#: interval every round), so the gate concedes two points.
CALIBRATION_THRESHOLD = 0.93

#: Default calibration battery: the three circuits past the exhaustive
#: frontier, where the sampled mode is the only practical estimate.
CALIBRATION_CIRCUITS = ("c432", "c499", "c1908")
CALIBRATION_SEEDS = (0, 1, 2)

#: Ground-truth fault-set sizes per circuit (stratified, seed 0): big
#: enough to hit every stratum, small enough that exact DP stays
#: affordable on C1908.
CALIBRATION_STUCK_FAULTS = 30
CALIBRATION_BRIDGE_FAULTS = 12  # per dominance


def _violation(
    oracle: str, circuit: str, fault: str, message: str
) -> Violation:
    return Violation(
        oracle=oracle,
        circuit=circuit,
        engine="sampled",
        fault=fault,
        message=message,
        span=get_tracer().current_location() or "",
    )


def _legal_totals(settings) -> list[int]:
    """The cumulative trial counts a fault's tally may legally stop at."""
    totals: list[int] = []
    cumulative = 0
    for size in settings.round_sizes():
        cumulative += size
        totals.append(cumulative)
    return totals


def sampled_record_violations(
    circuit: Circuit, record, settings
) -> list[Violation]:
    """Consistency oracles for one sampled ``FaultResult``."""
    from repro.sampling.wilson import wilson_interval

    name = circuit.name
    fault = str(record.fault)
    found: list[Violation] = []
    if (
        record.ci_low is None
        or record.ci_high is None
        or record.patterns_spent is None
    ):
        return [
            _violation(
                "ci-missing",
                name,
                fault,
                "sampled record lacks interval/budget fields "
                f"(ci_low={record.ci_low}, ci_high={record.ci_high}, "
                f"patterns_spent={record.patterns_spent})",
            )
        ]
    low, high, spent = record.ci_low, record.ci_high, record.patterns_spent
    estimate = record.detectability
    if not (0.0 <= low <= high <= 1.0):
        found.append(
            _violation(
                "ci-bounds-range",
                name,
                fault,
                f"interval [{low}, {high}] is not a sub-range of [0, 1]",
            )
        )
    if not (low - FLOAT_TOLERANCE <= estimate <= high + FLOAT_TOLERANCE):
        found.append(
            _violation(
                "ci-containment",
                name,
                fault,
                f"point estimate {estimate} outside its own interval "
                f"[{low}, {high}]",
            )
        )
    # The reported tally must be an integer detection count: the
    # detectability is detections/trials, so δ·patterns_spent drifts
    # off the integers exactly when the budget was misaccounted.
    detections = estimate * spent
    if spent < 1 or detections.denominator != 1:
        found.append(
            _violation(
                "ci-consistency",
                name,
                fault,
                f"detectability {estimate} x patterns_spent {spent} "
                f"= {detections} is not an integral detection count",
            )
        )
        return found
    recomputed = wilson_interval(
        int(detections), spent, settings.confidence
    )
    if (
        abs(recomputed.low - low) > FLOAT_TOLERANCE
        or abs(recomputed.high - high) > FLOAT_TOLERANCE
    ):
        found.append(
            _violation(
                "ci-consistency",
                name,
                fault,
                f"reported interval [{low}, {high}] is not the Wilson "
                f"interval of {int(detections)}/{spent} "
                f"= [{recomputed.low}, {recomputed.high}]",
            )
        )
    legal = _legal_totals(settings)
    if spent not in legal:
        found.append(
            _violation(
                "stopping-rule",
                name,
                fault,
                f"patterns_spent {spent} is not a legal round boundary "
                f"(legal: {legal})",
            )
        )
    if spent > settings.pattern_budget:
        found.append(
            _violation(
                "stopping-rule",
                name,
                fault,
                f"patterns_spent {spent} exceeds the budget "
                f"{settings.pattern_budget}",
            )
        )
    elif (
        spent < settings.pattern_budget
        and recomputed.half_width > settings.ci_width + FLOAT_TOLERANCE
    ):
        found.append(
            _violation(
                "stopping-rule",
                name,
                fault,
                f"stopped at {spent} < budget {settings.pattern_budget} "
                f"with half-width {recomputed.half_width:.4f} still above "
                f"the target {settings.ci_width}",
            )
        )
    return found


def stratum_coverage_violations(campaign) -> list[Violation]:
    """The realized sample must honor the stratification plan.

    Every stratum the plan says was sampled must contribute exactly
    that many records, and every record's label must appear in the
    plan — a sampler that silently drops (or invents) a stratum is the
    bias this oracle exists to catch.
    """
    if not campaign.strata:
        # No plan (e.g. a hand-built campaign over an explicit fault
        # list): nothing to hold the realized sample against.
        return []
    name = campaign.circuit.name
    found: list[Violation] = []
    realized = Counter(r.stratum for r in campaign.results)
    planned = {stat.name: stat for stat in campaign.strata}
    for stat in campaign.strata:
        got = realized.get(stat.name, 0)
        if got != stat.sampled:
            found.append(
                _violation(
                    "stratum-coverage",
                    name,
                    stat.name,
                    f"plan says {stat.sampled} sampled "
                    f"(population {stat.population}, allocated "
                    f"{stat.allocated}) but {got} records carry the label",
                )
            )
    for label, count in sorted(realized.items()):
        if label not in planned:
            found.append(
                _violation(
                    "stratum-coverage",
                    name,
                    str(label),
                    f"{count} records labeled with a stratum absent "
                    "from the plan",
                )
            )
    return found


def check_sampled_campaign(campaign, settings) -> list[Violation]:
    """The full oracle battery for one finished sampled campaign."""
    found: list[Violation] = []
    if campaign.exact:
        found.append(
            _violation(
                "sampled-exactness",
                campaign.circuit.name,
                "-",
                "a sampled campaign claimed exact=True; its estimates "
                "must never be trusted by exact-only oracles",
            )
        )
    # The generic scalar oracles still apply (ranges, PO feeding,
    # detectability/observability consistency); exact-only ones skip.
    found.extend(check_campaign(campaign, engine="sampled"))
    for record in campaign.results:
        found.extend(
            sampled_record_violations(campaign.circuit, record, settings)
        )
    found.extend(stratum_coverage_violations(campaign))
    return found


# ----------------------------------------------------------------------
# Sampled conformance (the $REPRO_MODE=sampled verify phase)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SampledCell:
    """One (circuit, fault model) sampled campaign and its verdict."""

    circuit: str
    model: str
    num_faults: int
    patterns_spent: int
    seconds: float
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class SampledConformanceReport:
    """Outcome of the sampled-mode conformance sweep."""

    cells: tuple[SampledCell, ...]

    def violations(self) -> list[Violation]:
        return [v for cell in self.cells for v in cell.violations]

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        lines = [
            f"sampled conformance: {len(self.cells)} campaigns, "
            f"{sum(c.num_faults for c in self.cells)} fault estimates",
            f"{'circuit':<10} {'model':<12} {'faults':>6} "
            f"{'patterns':>9} {'sec':>7} {'violations':>10}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.circuit:<10} {cell.model:<12} "
                f"{cell.num_faults:>6} {cell.patterns_spent:>9} "
                f"{cell.seconds:>7.2f} {len(cell.violations):>10}"
            )
        for violation in self.violations():
            lines.append(f"  VIOLATION {violation}")
        if self.ok:
            lines.append("all sampled invariants hold")
        return "\n".join(lines)


def run_sampled_conformance(
    circuits: Sequence[str] = ("c17", "fulladder", "c95"),
    scale=None,
) -> SampledConformanceReport:
    """Sampled campaigns over ``circuits``, every oracle applied."""
    from repro.experiments.campaigns import (
        bridging_campaign,
        stuck_at_campaign,
    )
    from repro.experiments.config import get_scale
    from repro.sampling.engine import SampledSettings

    scale = scale if scale is not None else get_scale("ci")
    settings = SampledSettings.from_scale(scale)
    cells: list[SampledCell] = []
    for name in circuits:
        start = time.perf_counter()
        campaign = stuck_at_campaign(name, scale, mode="sampled")
        cells.append(
            SampledCell(
                circuit=name,
                model="stuck-at",
                num_faults=len(campaign.results),
                patterns_spent=campaign.patterns_spent(),
                seconds=time.perf_counter() - start,
                violations=tuple(
                    check_sampled_campaign(campaign, settings)
                ),
            )
        )
        for kind in (BridgeKind.AND, BridgeKind.OR):
            if not list(enumerate_nfbfs(get_circuit(name), kind)):
                continue
            start = time.perf_counter()
            campaign = bridging_campaign(name, kind, scale, mode="sampled")
            cells.append(
                SampledCell(
                    circuit=name,
                    model=f"bridge/{kind.value}",
                    num_faults=len(campaign.results),
                    patterns_spent=campaign.patterns_spent(),
                    seconds=time.perf_counter() - start,
                    violations=tuple(
                        check_sampled_campaign(campaign, settings)
                    ),
                )
            )
    return SampledConformanceReport(cells=tuple(cells))


# ----------------------------------------------------------------------
# Statistical calibration against the exact engines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CalibrationCell:
    """Coverage of one (circuit, fault model, seed) sampled run."""

    circuit: str
    model: str
    seed: int
    num_faults: int
    covered: int
    #: faults whose exact detectability escaped the sampled interval
    misses: tuple[str, ...] = ()


@dataclass(frozen=True)
class CalibrationReport:
    """Empirical CI coverage against exact DP ground truth."""

    cells: tuple[CalibrationCell, ...]
    threshold: float = CALIBRATION_THRESHOLD

    @property
    def trials(self) -> int:
        return sum(cell.num_faults for cell in self.cells)

    @property
    def covered(self) -> int:
        return sum(cell.covered for cell in self.cells)

    @property
    def coverage(self) -> float:
        return self.covered / self.trials if self.trials else 0.0

    @property
    def ok(self) -> bool:
        return self.trials > 0 and self.coverage >= self.threshold

    def render(self) -> str:
        lines = [
            f"calibration: {self.covered}/{self.trials} exact "
            f"detectabilities inside their sampled 95% CI "
            f"({100 * self.coverage:.1f}%, gate {100 * self.threshold:.0f}%)",
            f"{'circuit':<10} {'model':<12} {'seed':>4} "
            f"{'faults':>6} {'covered':>7}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.circuit:<10} {cell.model:<12} {cell.seed:>4} "
                f"{cell.num_faults:>6} {cell.covered:>7}"
            )
            for miss in cell.misses:
                lines.append(f"    missed: {miss}")
        lines.append(
            "calibration PASSED" if self.ok else "calibration FAILED"
        )
        return "\n".join(lines)


def calibration_fault_sets(
    circuit: Circuit,
    stuck_limit: int = CALIBRATION_STUCK_FAULTS,
    bridge_limit: int = CALIBRATION_BRIDGE_FAULTS,
) -> list[tuple[str, list[Fault]]]:
    """The (model, faults) pairs one circuit contributes to calibration.

    Stratified draws under a pinned seed, so ground truth is computed
    once per circuit and reused across every sampled-run seed.
    """
    from repro.sampling.strata import stratified_sample

    stuck = stratified_sample(
        circuit, collapsed_checkpoint_faults(circuit), stuck_limit, seed=0
    )
    models: list[tuple[str, list[Fault]]] = [
        ("stuck-at", list(stuck.faults))
    ]
    bridges: list[Fault] = []
    for kind in (BridgeKind.AND, BridgeKind.OR):
        candidates = list(enumerate_nfbfs(circuit, kind))
        if not candidates:
            continue
        bridges.extend(
            stratified_sample(circuit, candidates, bridge_limit, seed=0).faults
        )
    if bridges:
        models.append(("bridging", bridges))
    return models


def run_calibration(
    circuits: Sequence[str] = CALIBRATION_CIRCUITS,
    seeds: Sequence[int] = CALIBRATION_SEEDS,
    scale=None,
    stuck_limit: int = CALIBRATION_STUCK_FAULTS,
    bridge_limit: int = CALIBRATION_BRIDGE_FAULTS,
    threshold: float = CALIBRATION_THRESHOLD,
) -> CalibrationReport:
    """Sampled CIs vs exact DP detectabilities over seeds and circuits.

    Ground truth per circuit comes from the exact OBDD engine (shared
    function tables via the campaign cache, so the C1908 build is paid
    once); each seed then runs the identical fault set through the
    sequential sampler, and a (fault, seed) pair counts as covered when
    the exact detectability lies inside the sampled interval.
    """
    from repro.experiments.campaigns import circuit_functions
    from repro.experiments.config import get_scale
    from repro.sampling.engine import SampledCampaignEngine, SampledSettings

    scale = scale if scale is not None else get_scale("ci")
    cells: list[CalibrationCell] = []
    for name in circuits:
        circuit = get_circuit(name)
        engine = DifferencePropagation(
            circuit, functions=circuit_functions(name, scale)
        )
        for model, faults in calibration_fault_sets(
            circuit, stuck_limit, bridge_limit
        ):
            exact = [engine.analyze(fault).detectability for fault in faults]
            for seed in seeds:
                settings = SampledSettings(
                    seed=seed,
                    ci_width=scale.ci_width,
                    pattern_budget=scale.pattern_budget,
                )
                sampler = SampledCampaignEngine(circuit, name, settings)
                records = sampler.run(faults)
                misses = tuple(
                    f"{record.fault} (exact {truth}, interval "
                    f"[{record.ci_low:.4f}, {record.ci_high:.4f}])"
                    for record, truth in zip(records, exact)
                    if not record.ci_low <= truth <= record.ci_high
                )
                covered = len(faults) - len(misses)
                cells.append(
                    CalibrationCell(
                        circuit=name,
                        model=model,
                        seed=seed,
                        num_faults=len(faults),
                        covered=covered,
                        misses=misses,
                    )
                )
    return CalibrationReport(cells=tuple(cells), threshold=threshold)
