"""Statistics, metric records, run hygiene and the host fingerprint.

Nothing here imports the program under test, so the benchmark's own tests
can exercise it without ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Thread knobs that change how numpy/BLAS use the host's cores.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Scratch space of every run, inside the checkout and ignored by git.
SCRATCH_DIRNAME = ".cnvbench"


class TooFewSamples(ValueError):
    """A percentile was asked for without ``MIN_BEYOND`` samples beyond it."""


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    The rank is ``ceil(q/100 * n)`` (1-based), so the result is always a
    measured sample.  Raises :class:`TooFewSamples` when fewer than
    ``min_beyond`` samples lie above that rank: such a "tail" is one or
    two unlucky samples, not a percentile.
    """
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it "
            f"(need {min_beyond})"
        )
    return ordered[rank - 1]


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


@dataclass
class Metric:
    """One reported number with the context a reader needs to trust it.

    ``samples`` is how many measurements the value summarizes (``None``
    for a counter read once); ``base`` names the denominator of a ratio
    or mean ("lookups=1234").  ``value is None`` means the workload never
    reaches the layer (printed ``n/a``; reported as 0 in the JSON line,
    which carries numbers only).
    """

    name: str
    value: float | None
    unit: str
    samples: int | None = None
    base: str | None = None

    def line(self) -> str:
        if self.value is None:
            return f"  {self.name:<34} n/a ({self.unit})"
        parts = [f"  {self.name:<34} {self.value:.6g} {self.unit}"]
        if self.samples is not None:
            parts.append(f"n={self.samples}")
        elif self.base is None:
            parts.append("counter")
        if self.base is not None:
            parts.append(f"base {self.base}")
        return "  ".join(parts)


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    """The contract's final stdout line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                m.name: {
                    "value": 0.0 if m.value is None else float(m.value),
                    "unit": m.unit,
                }
                for m in metrics
            },
        },
        sort_keys=False,
    )


# ----------------------------------------------------------------------
# run hygiene
# ----------------------------------------------------------------------
def program_env_vars(environ=None) -> list[str]:
    """``CNVLUTIN_*`` variables set in the environment.

    Every one of them changes what the program computes or how (cache
    location, kernel choice, engine cache budget, faults, integrity
    checks, tracing), so a run refuses to start with any of them set.
    """
    environ = os.environ if environ is None else environ
    return sorted(key for key in environ if key.startswith("CNVLUTIN_"))


class Scratch:
    """A run's private directory under ``<checkout>/.cnvbench``."""

    def __init__(self, root: Path, label: str):
        self.base = root / SCRATCH_DIRNAME
        self.dir = self.base / f"run-{label}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._count = 0

    def fresh(self, stem: str) -> Path:
        """A new, empty directory (artifact caches, snapshots)."""
        self._count += 1
        path = self.dir / f"{stem}{self._count}"
        path.mkdir()
        return path

    def spans_path(self, workload: str, seed: int) -> Path:
        path = self.base / "spans"
        path.mkdir(parents=True, exist_ok=True)
        return path / f"{workload}-seed{seed}.jsonl"

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def shm_segments(pid: int, shm_dir: str = "/dev/shm") -> list[str]:
    """Shared-memory weight arenas owned by ``pid`` still present."""
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return []
    prefix = f"cnvlutin-{pid}-"
    return sorted(name for name in names if name.startswith(prefix))


# ----------------------------------------------------------------------
# memory and CPU accounting
# ----------------------------------------------------------------------
def reset_peak_rss(pids) -> None:
    """Restart each process's peak-RSS watermark (``VmHWM``) from now."""
    for pid in pids:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")


def peak_rss_mb(pids) -> float:
    """Sum of the processes' ``VmHWM`` since the last reset, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_times() -> list[int]:
    """Aggregate jiffies from ``/proc/stat`` (user … steal)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return [int(value) for value in fields[1:9]]


def steal_fraction(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor stole between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed yardstick.

    It does not depend on the program, so a slow record whose reference
    loop also ran slow points at the host, not at the change.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------
def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (path + bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode; the version suffices
        info["blas"] = "unknown"
    return info


def fingerprint(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
        **blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }
