"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one seeded fault-campaign workload in this process, checks every
record, and prints the metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. See ``perfbench/README.md``.

Exit status is 0 when the run completed (correct or not), 1 when it
crashed (after printing a result that counts every fault as failed),
and nonzero without a result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _clear_program_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable before the program is imported
    (several are read at import time), so none can change what runs."""
    cleared = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="write this seed's reference records from the first pass",
    )
    args = parser.parse_args(argv)

    cleared = _clear_program_environment()
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from harness import runner, workloads  # imports the program

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    try:
        outcome = runner.run(
            args.workload, args.seed, args.seconds, trace, ROOT, args.write_reference
        )
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    artifact = runner.write_artifacts(outcome, args.workload, args.seed, trace)
    result = outcome["result"]
    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={outcome['passes']} setups={outcome['setups']}"
    )
    print(
        "perfbench: cleared REPRO_* variables: "
        f"{', '.join(cleared) or '(none set)'}; fresh process, so OBDD and "
        "computed-table caches start empty at every set-up"
    )
    print(f"perfbench: verification: {outcome['verification']}")
    print(f"perfbench: fingerprint {json.dumps(outcome['fingerprint'], sort_keys=True)}")
    print(f"perfbench: artifact {artifact.relative_to(ROOT)}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"  {'fail_frac':<28} {outcome['fail_frac']:>16.6g} ratio "
        f"({result['failed']} of {result['attempted']} faults)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
