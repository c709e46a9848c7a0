"""Where a result came from: code, interpreter, machine and inputs."""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Dict, Optional

from ledger import workloads


def _git(root: str, *args: str) -> Optional[str]:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str, workload: str, seed: int, seconds: float) -> Dict:
    """Commit (``unknown`` outside a git checkout), host and inputs."""
    import numpy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "commit": sha.strip() if sha else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "constants": workloads.frozen_constants(workload),
    }
