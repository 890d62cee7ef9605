"""Observability tooling CLI.

::

    python -m repro.obs demo                 # traced C17 campaign → span tree
    python -m repro.obs demo --circuit c95   # any registered circuit
    python -m repro.obs tree results/trace.jsonl
    python -m repro.obs profile results/trace.jsonl --top 15
    python -m repro.obs profile results/trace.jsonl --flame out.folded
    python -m repro.obs perf record          # append BENCH_* → history/
    python -m repro.obs perf check           # nonzero exit on regression
    python -m repro.obs perf report          # markdown trajectory dashboard
    python -m repro.obs dashboard            # results/ → dashboard.html
    python -m repro.obs export --format prometheus BENCH_fig2.json
    python -m repro.obs ledger verify        # re-hash every ledger object

``demo`` backs ``make trace-demo``: it enables tracing, runs one
stuck-at campaign, writes the JSONL trace and a run manifest under
``results/``, and pretty-prints the span tree. ``profile`` backs
``make flamegraph``; the ``perf`` family backs ``make perf-check`` and
the CI regression gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.obs import perf as perf_mod
from repro.obs import profile as profile_mod
from repro.obs import trace as trace_mod
from repro.obs.logging import configure_logging, get_logger
from repro.obs.manifest import RunManifest
from repro.obs.trace import render_tree

log = get_logger("repro.obs")


def _cmd_tree(args: argparse.Namespace) -> int:
    events = []
    with open(args.trace, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    for line in render_tree(events):
        print(line)
    print(f"({len(events)} spans)")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    # Imports deferred: the obs package itself must stay importable
    # from the layers these modules sit on top of.
    from repro.experiments.campaigns import (
        clear_campaign_caches,
        stuck_at_campaign,
        telemetry_report,
    )
    from repro.experiments.config import get_scale

    tracer = trace_mod.enable_tracing()
    scale = get_scale(args.scale)
    clear_campaign_caches()
    start = time.perf_counter()
    campaign = stuck_at_campaign(args.circuit, scale)
    wall = time.perf_counter() - start

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace_{args.circuit}.jsonl"
    count = tracer.export_jsonl(trace_path)
    manifest = RunManifest.collect(
        scale=scale,
        circuits=(args.circuit,),
        wall_seconds=wall,
        extra={"demo": True, "spans": count},
    )
    manifest_path = manifest.write(out_dir / f"trace_{args.circuit}.json")

    for line in render_tree(tracer.events):
        print(line)
    print()
    print("\n".join(telemetry_report()))
    print()
    print(
        f"{args.circuit}: {len(campaign.results)} faults, "
        f"{count} spans in {wall:.2f} s"
    )
    log.info("trace written to %s", trace_path)
    log.info("manifest written to %s", manifest_path)
    clear_campaign_caches()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    events = profile_mod.load_trace(args.trace)
    if not events:
        print(f"{args.trace}: no spans", file=sys.stderr)
        return 1
    for line in profile_mod.profile_report(events, top=args.top, sort=args.sort):
        print(line)
    if args.flame is not None:
        path = profile_mod.write_folded(events, args.flame)
        # Strict re-parse: a flamegraph we can't read back is a bug.
        profile_mod.parse_folded(path.read_text(encoding="utf-8"))
        stacks = len(profile_mod.fold_stacks(events))
        print(f"\n{stacks} folded stacks written to {path}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    history_dir = (
        Path(args.history)
        if args.history is not None
        else perf_mod.default_history_dir(results_dir)
    )
    if args.perf_command == "record":
        paths = perf_mod.record(results_dir, history_dir)
        for path in sorted(set(paths)):
            print(f"recorded → {path}")
        if not any(results_dir.glob("BENCH_*.json")):
            print(f"no BENCH_*.json artifacts under {results_dir}", file=sys.stderr)
            return 1
        if not paths:
            print("nothing new: every artifact is already recorded")
        return 0
    if args.perf_command == "report":
        print(perf_mod.report(history_dir))
        return 0
    # check
    findings, notes = perf_mod.check(results_dir, history_dir)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for finding in findings:
        print(finding.render())
    regressions = [f for f in findings if f.regressed]
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) against the recorded "
            f"trajectory in {history_dir}",
            file=sys.stderr,
        )
        return 1
    print(
        f"perf check ok: {len(findings)} gated metrics within tolerance"
        if findings
        else "perf check ok: nothing to gate yet"
    )
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.obs import dashboard as dashboard_mod

    out = dashboard_mod.write_dashboard(args.results, args.out)
    print(f"dashboard written to {out}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.obs.bench import read_bench_artifact
    from repro.obs.export import export_artifact_metrics, write_lines

    try:
        document = read_bench_artifact(args.artifact)
    except (OSError, ValueError) as exc:
        print(f"{args.artifact}: {exc}", file=sys.stderr)
        return 1
    lines = export_artifact_metrics(document, fmt=args.format)
    if args.out is not None:
        path = write_lines(lines, args.out)
        print(f"{len(lines)} lines written to {path}")
    else:
        try:
            for line in lines:
                print(line)
        except BrokenPipeError:
            # downstream consumer (head, grep -m) closed the pipe early
            os.close(sys.stdout.fileno())
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    from repro.obs.store import RunLedger

    ledger = RunLedger(args.root)
    if args.ledger_command == "verify":
        findings = ledger.verify()
        bad = 0
        for key, status in findings:
            print(f"{status:8s} {key}")
            bad += status != "ok"
        print(f"{len(findings)} objects, {bad} not ok")
        return 1 if bad else 0
    # list
    for entry in ledger.entries():
        meta = entry.get("meta", {})
        print(
            f"{entry.get('created_utc', '?'):20s} "
            f"{meta.get('circuit', '?'):8s} "
            f"{meta.get('model', '?'):9s} "
            f"{meta.get('routing', '?'):11s} "
            f"{entry.get('key', '')[:16]}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    configure_logging()
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Span-trace tooling: run a traced demo or render a trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a traced campaign, print the tree")
    demo.add_argument("--circuit", default="c17")
    demo.add_argument("--scale", default=None)
    demo.add_argument("--out", default="results")
    demo.set_defaults(func=_cmd_demo)

    tree = sub.add_parser("tree", help="pretty-print a JSONL trace file")
    tree.add_argument("trace")
    tree.set_defaults(func=_cmd_tree)

    profile = sub.add_parser(
        "profile",
        help="aggregate a JSONL trace: hotspots + optional flamegraph",
    )
    profile.add_argument("trace")
    profile.add_argument("--top", type=int, default=10)
    profile.add_argument("--sort", choices=("self", "cum"), default="self")
    profile.add_argument(
        "--flame",
        type=Path,
        default=None,
        metavar="FILE",
        help="also export a folded-stack flamegraph "
        "(flamegraph.pl / speedscope input)",
    )
    profile.set_defaults(func=_cmd_profile)

    perf = sub.add_parser(
        "perf", help="bench trajectory: record, check, report"
    )
    perf.add_argument(
        "perf_command",
        choices=("record", "check", "report"),
        help="record: append fresh BENCH_*.json to history/; "
        "check: gate fresh artifacts against the baseline (nonzero exit "
        "on regression); report: markdown trajectory dashboard",
    )
    perf.add_argument("--results", default="results")
    perf.add_argument(
        "--history",
        default=None,
        help="trajectory store (default: <results>/history)",
    )
    perf.set_defaults(func=_cmd_perf)

    dashboard = sub.add_parser(
        "dashboard",
        help="aggregate results/ into one self-contained HTML dashboard",
    )
    dashboard.add_argument("--results", default="results")
    dashboard.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output file (default: <results>/dashboard.html)",
    )
    dashboard.set_defaults(func=_cmd_dashboard)

    export = sub.add_parser(
        "export",
        help="emit one BENCH_*.json artifact's metrics for scrapers",
    )
    export.add_argument("artifact")
    export.add_argument(
        "--format", choices=("prometheus", "jsonl"), default="prometheus"
    )
    export.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write to a file instead of stdout",
    )
    export.set_defaults(func=_cmd_export)

    ledger = sub.add_parser(
        "ledger", help="inspect the content-addressed run ledger"
    )
    ledger.add_argument("ledger_command", choices=("list", "verify"))
    ledger.add_argument("--root", default="results/ledger")
    ledger.set_defaults(func=_cmd_ledger)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
