"""Run manifests: the provenance record written next to every artifact.

A :class:`RunManifest` pins everything needed to reproduce (or refuse
to compare) a run: the master seed, the scale profile, worker count,
git SHA, interpreter and platform, the circuit roster, and wall time.
Experiment outputs gain a sibling ``results/<name>.json`` carrying the
manifest plus the machine-readable result data; ``BENCH_*.json``
benchmark artifacts embed one too, so two perf numbers are only ever
diffed when their manifests say they are comparable.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs.encode import json_safe

SCHEMA = "repro.run-manifest/1"

#: Environment knobs recorded verbatim (when set) — the full set of
#: switches that can change what a run computes or how it is observed.
_RECORDED_ENV = (
    "REPRO_SEED",
    "REPRO_SCALE",
    "REPRO_WORKERS",
    "REPRO_ENGINE",
    "REPRO_REORDER",
    "REPRO_MODE",
    "REPRO_CI_WIDTH",
    "REPRO_PATTERN_BUDGET",
    "REPRO_TRACE",
    "REPRO_LOG",
    "REPRO_PROGRESS",
    "REPRO_CACHE",
    "REPRO_RESOURCE",
    "HYPOTHESIS_PROFILE",
)


def numpy_version() -> str | None:
    """Installed numpy's version, or ``None`` when numpy is absent.

    Recorded so trajectory entries produced by the vectorized kernel
    are only compared across runs with a comparable numeric backend.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def git_sha() -> str | None:
    """HEAD commit of the working tree, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run (all fields JSON-safe scalars/sequences)."""

    schema: str
    created_utc: str
    command: tuple[str, ...]
    seed: int
    scale: str | None
    workers: int | None
    git_sha: str | None
    python: str
    platform: str
    hostname: str
    pid: int
    circuits: tuple[str, ...]
    wall_seconds: float | None
    env: Mapping[str, str] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)
    #: installed numpy version (``None`` without numpy) — kernel-backend
    #: provenance for perf-trajectory comparability
    numpy: str | None = None
    #: the run scale's campaign engine (``None`` without a scale)
    engine: str | None = None
    #: the run scale's dynamic-reordering policy (``None`` without one)
    reorder: bool | None = None
    #: the run scale's campaign mode (``None`` without a scale)
    mode: str | None = None
    #: sampled mode's target CI half-width (``None`` outside sampled mode)
    ci_width: float | None = None
    #: resource time-series summary for the run (the dict shape of
    #: :meth:`repro.obs.resource.ResourceSeries.summary`; ``None`` when
    #: ``$REPRO_RESOURCE`` was off or no series was attached)
    resources: Mapping[str, Any] | None = None

    @classmethod
    def collect(
        cls,
        scale: Any = None,
        workers: int | None = None,
        circuits: tuple[str, ...] | None = None,
        command: tuple[str, ...] | None = None,
        wall_seconds: float | None = None,
        extra: Mapping[str, Any] | None = None,
        engine: str | None = None,
        reorder: bool | None = None,
        mode: str | None = None,
        ci_width: float | None = None,
        resources: Mapping[str, Any] | None = None,
    ) -> "RunManifest":
        """Snapshot the current process (pass the run's ``Scale`` if any).

        ``scale`` duck-types on ``name``/``seed``/``circuits`` and the
        policy fields ``engine``/``reorder``/``mode``/``ci_width`` so the
        obs layer stays importable from everywhere below
        ``experiments``. The scale is already resolved, so its fields
        are recorded as they are; explicit arguments override them.
        ``env`` keeps the raw ``REPRO_*`` variables verbatim.
        """
        scale_name = getattr(scale, "name", None)
        if engine is None:
            engine = getattr(scale, "engine", None)
        if reorder is None:
            reorder = getattr(scale, "reorder", None)
        if mode is None:
            mode = getattr(scale, "mode", None)
        if ci_width is None and mode == "sampled":
            ci_width = getattr(scale, "ci_width", None)
        seed = getattr(scale, "seed", None)
        if seed is None:
            try:
                seed = int(os.environ.get("REPRO_SEED", "0"))
            except ValueError:
                seed = 0
        if circuits is None:
            circuits = tuple(getattr(scale, "circuits", ()) or ())
        return cls(
            schema=SCHEMA,
            created_utc=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            command=tuple(command if command is not None else sys.argv),
            seed=seed,
            scale=scale_name,
            workers=workers,
            git_sha=git_sha(),
            python=sys.version.split()[0],
            platform=_platform.platform(),
            hostname=socket.gethostname(),
            pid=os.getpid(),
            circuits=circuits,
            wall_seconds=wall_seconds,
            env={
                name: os.environ[name]
                for name in _RECORDED_ENV
                if name in os.environ
            },
            extra=dict(extra or {}),
            numpy=numpy_version(),
            engine=engine,
            reorder=reorder,
            mode=mode,
            ci_width=ci_width,
            resources=resources,
        )

    def to_dict(self) -> dict[str, Any]:
        return json_safe(self)

    def write(self, path: Path | str) -> Path:
        """Serialize as pretty JSON at ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path
