"""Where and on what a result was measured, read without changing anything.

Machine facts come from ``lscpu`` or ``/proc/cpuinfo`` (read only). The
commit comes from ``.git`` in the checkout when there is one; a checkout
without git history is identified by a digest of ``src/ballast/*.py``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

STREAM_LAYOUT = (
    "numpy Philox, one key per run (the --seed value; scan trials use seed XOR trial), "
    "three streams drawn up front in order: bin_a, bin_b, tie bits"
)
SCOPE = (
    "timings and rusage cover only the benchmark's own processes; no cache drop, "
    "CPU pinning, frequency or cgroup change was made"
)


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info


def _lscpu_caches() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return caches


def _git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def source_digest(src_pkg: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(src_pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src_pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def collect(root: str, workload: str, seed: int, numpy_version: str | None) -> dict:
    cpu = _cpuinfo()
    caches = _lscpu_caches()
    return {
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "l2_cache": caches.get("L2 cache"),
        "l3_cache": caches.get("L3 cache", cpu.get("cache size")),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src", "ballast")),
        "workload": workload,
        "seed": seed,
        "stream_layout": STREAM_LAYOUT,
        "measurement_scope": SCOPE,
    }
