"""Output verification behind ``failed`` and ``fail_frac``.

Every record of every pass is checked twice:

* by the program's invariant oracles (``repro.verify.oracles
  .check_campaign``): ranges, δ ≤ U, adherence, PO feeding, and
  detectability/observability consistency;
* for the seeds that have committed reference records (seed 0 and the
  held-out seed 1), byte for byte against the reference line of the
  same position: fault, exact δ, U, observable POs, stuck-at
  equivalence and, on sampled records, the CI bounds and patterns
  spent. Other seeds are checked by the oracles only, and the run says
  so.

A fault fails when its cell raised, an oracle flags it, or its line
differs from the reference. Simulated statistics are deterministic, so
any difference is a real change in what the program computes.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Sequence

from repro.experiments.campaigns import CampaignResult
from repro.verify.oracles import check_campaign

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "reference"


def record_line(label: str, record) -> str:
    """Canonical one-line JSON of a campaign record (floats by repr,
    fractions as ``p/q``), the unit of the byte-for-byte comparison."""
    ci = None
    if record.ci_low is not None:
        ci = [repr(record.ci_low), repr(record.ci_high)]
    return json.dumps(
        {
            "cell": label,
            "fault": str(record.fault),
            "delta": str(record.detectability),
            "U": str(record.upper_bound),
            "pos": sorted(record.observable_pos),
            "stuck_eq": record.stuck_at_equivalent,
            "ci": ci,
            "patterns": record.patterns_spent,
        },
        sort_keys=True,
    )


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.jsonl.gz"


def load_reference(workload: str, seed: int) -> list[str] | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return fh.read().splitlines()


def write_reference(workload: str, seed: int, lines: Sequence[str]) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write("".join(line + "\n" for line in lines).encode("utf-8"))
    return path


def failed_positions(cells, pass_, reference: list[str] | None) -> set[int]:
    """Positions (in planned fault order) of the faults that failed."""
    total = sum(len(cell.faults) for cell in cells)
    if reference is not None and len(reference) != total:
        return set(range(total))  # the reference is of another fault list
    failed: set[int] = set()
    offset = 0
    for cell, outcome in zip(cells, pass_.outcomes):
        planned = len(cell.faults)
        if outcome.error is not None or len(outcome.records) != planned:
            failed.update(range(offset, offset + planned))
            offset += planned
            continue
        campaign = CampaignResult(
            circuit=cell.circuit, results=outcome.records, exact=outcome.exact
        )
        flagged = {v.fault for v in check_campaign(campaign, engine="perfbench")}
        for i, record in enumerate(outcome.records):
            if str(record.fault) in flagged or (
                reference is not None
                and record_line(cell.part.label, record) != reference[offset + i]
            ):
                failed.add(offset + i)
        offset += planned
    return failed


def pass_lines(cells, pass_) -> list[str]:
    """The reference lines a pass would write."""
    return [
        record_line(cell.part.label, record)
        for cell, outcome in zip(cells, pass_.outcomes)
        for record in outcome.records
    ]
