"""Hardware and code fingerprint stamped on every result.

Numbers from different machines or different code must never be
compared; the fingerprint says which machine and which code produced
a result. The code identity is the git SHA with a dirty flag where the
checkout is a git repository, and always a SHA-256 over the program's
source files, which also identifies a checkout that is not.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path, workload: str, seed: int, trace: bool) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    toplevel = _git(root, "rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == root.resolve()
    sha = _git(root, "rev-parse", "HEAD") if in_repo else None
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "src_sha256": source_digest(root),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }
