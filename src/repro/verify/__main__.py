"""``python -m repro.verify`` — run the whole conformance wall.

Three phases, any failure turning the exit code nonzero:

1. **conformance** — every registered engine over the sweep's circuits
   and fault models, all invariant oracles plus cross-engine agreement;
2. **metamorphic** — exact detectability invariance under every
   registered netlist transform;
3. **seeded** — the defect-seeding self-check proving the oracles
   would have caught a defective engine.

The campaign variables ``$REPRO_MODE``, ``$REPRO_ENGINE`` and
``$REPRO_REORDER`` are resolved once here, by the same resolver as the
experiment suite's (:func:`repro.experiments.config.env_overrides`);
``$REPRO_REORDER`` turns sifting on in the conformance and metamorphic
phases' DP engines.

With ``--mode sampled`` (or ``$REPRO_MODE=sampled``) a fourth phase
runs: **sampled conformance**, the consistency-oracle battery of
:mod:`repro.verify.sampled` over sampled campaigns on the sweep's
circuits (interval well-formedness, Wilson reproducibility, the
sequential stopping rule, stratum coverage).

Examples::

    python -m repro.verify                      # ci sweep, all phases
    python -m repro.verify --scale full
    python -m repro.verify --circuits c17 c95 --skip-seeded
    python -m repro.verify --engines dp truthtable
    REPRO_MODE=sampled python -m repro.verify --scale ci
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import env_overrides
from repro.verify.conformance import ENGINES, SWEEPS, run_conformance
from repro.verify.metamorphic import (
    DEFAULT_CIRCUITS,
    TRANSFORMS,
    render_outcomes,
    run_metamorphic,
)
from repro.verify.seeded import run_seeded_self_check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Conformance, metamorphic and seeded-defect checks.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SWEEPS),
        default="ci",
        help="conformance sweep profile (default: ci)",
    )
    parser.add_argument(
        "--circuits",
        nargs="+",
        metavar="NAME",
        default=None,
        help="override the sweep's circuit list (conformance phase)",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        choices=sorted(ENGINES),
        default=None,
        help="restrict the conformance phase to these engines "
        "(default: all registered; $REPRO_ENGINE adds itself plus the "
        "dp reference when set)",
    )
    parser.add_argument(
        "--transforms",
        nargs="+",
        choices=sorted(TRANSFORMS),
        default=None,
        help="restrict the metamorphic phase to these transforms",
    )
    parser.add_argument(
        "--mode",
        choices=("exact", "sampled"),
        default=None,
        help="campaign mode: 'sampled' adds the sampled-conformance "
        "phase (default: $REPRO_MODE or 'exact')",
    )
    parser.add_argument(
        "--skip-conformance", action="store_true", help="skip phase 1"
    )
    parser.add_argument(
        "--skip-metamorphic", action="store_true", help="skip phase 2"
    )
    parser.add_argument(
        "--skip-seeded", action="store_true", help="skip phase 3"
    )
    args = parser.parse_args(argv)

    try:
        env = env_overrides()
    except (KeyError, ValueError) as exc:
        parser.error(exc.args[0])
    mode = args.mode or env.get("mode", "exact")
    reorder = env.get("reorder", False)

    engines = args.engines
    if engines is None and "engine" in env:
        if env["engine"] not in ENGINES:
            parser.error(
                f"$REPRO_ENGINE={env['engine']!r} is not a registered "
                f"engine (known: {', '.join(sorted(ENGINES))})"
            )
        # the requested engine plus the dp reference, so the
        # cross-engine comparison still has an independent witness
        engines = sorted({env["engine"], "dp"})

    failed = False
    if not args.skip_conformance:
        report = run_conformance(
            args.scale,
            circuits=args.circuits,
            engines=engines,
            reorder=reorder,
        )
        print(report.render())
        failed |= not report.ok
    if not args.skip_metamorphic:
        circuits = args.circuits or DEFAULT_CIRCUITS
        outcomes = run_metamorphic(
            circuits, transforms=args.transforms, reorder=reorder
        )
        print()
        print(render_outcomes(outcomes))
        failed |= not all(outcome.ok for outcome in outcomes)
    if not args.skip_seeded:
        seeded = run_seeded_self_check()
        print()
        print(seeded.render())
        failed |= not seeded.ok
    if mode == "sampled":
        from repro.verify.sampled import run_sampled_conformance

        sweep = SWEEPS[args.scale]
        sampled = run_sampled_conformance(
            circuits=args.circuits or sweep.circuits
        )
        print()
        print(sampled.render())
        failed |= not sampled.ok
    print()
    print("repro.verify: FAILED" if failed else "repro.verify: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
