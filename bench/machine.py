"""Stamp of the machine and build a benchmark result was measured on."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                out[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def _git(root: Path, *args):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def stamp(root: Path) -> dict:
    import numpy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    caches = _caches()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": sha.strip() if sha else "unknown (not a git checkout)",
        "git_dirty": bool(status.strip()) if status is not None else None,
    }
