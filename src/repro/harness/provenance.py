"""Run provenance: who produced a run artifact, and on what.

Cluster and SMR run manifests (``run.json`` next to the trace shards)
are compared across commits and machines, so each one is stamped with
the facts needed to interpret a number months later:
the git commit it was built from, the host's CPU count, and the Python
version.  Everything degrades gracefully — outside a git checkout the
SHA is simply ``None``, never an exception.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Optional


def git_sha() -> Optional[str]:
    """The current git commit hash, or None outside a checkout."""
    here = os.path.dirname(os.path.abspath(__file__))
    for cwd in (here, os.getcwd()):
        try:
            result = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=5,
            )
        except (OSError, subprocess.TimeoutExpired, ValueError):
            continue
        if result.returncode == 0:
            sha = result.stdout.strip()
            if sha:
                return sha
    return None


def provenance() -> dict:
    """Metadata block stamped into run manifests."""
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
