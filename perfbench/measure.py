"""Small measurement helpers: latency summaries, memory, host fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples above it.

    With ``n`` sorted samples that is the ``(n - 10)``-th smallest, whose
    percentile rank is ``100 * (n - 10) / n``.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it"
        )
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class OpLog:
    """What one timed pass did: per-op latencies, user bytes, outcomes.

    ``wall`` is the time the pass's ops took: their summed latencies
    for one sequential caller, the pass's elapsed time for concurrent
    clients.
    """

    latencies: list[float] = field(default_factory=list)
    user_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0

    def add(self, seconds: float, n_bytes: int, ok: bool) -> None:
        """Log one op; only a verified op's bytes count as done."""
        self.attempted += 1
        self.latencies.append(seconds)
        if ok:
            self.user_bytes += n_bytes
        else:
            self.failed += 1

    def extend(self, other: "OpLog") -> None:
        self.latencies += other.latencies
        self.user_bytes += other.user_bytes
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def seconds_per_mb(self) -> float:
        return self.wall / (self.user_bytes / 1e6) if self.user_bytes else 0.0


def latency_summary(samples: list[float]) -> dict[str, float]:
    """Median and tail in ms, with the tail's percentile and sample count."""
    value, pct = tail(samples)
    return {
        "p50_ms": statistics.median(samples) * 1e3,
        "tail_ms": value * 1e3,
        "tail_pct": pct,
        "n": len(samples),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * 1024 / 1e6


def proc_tree_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` and its live descendants."""
    from perfbench.procs import descendants

    peak = 0.0
    for current in [pid, *descendants(pid)]:
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) * 1024 / 1e6)
    return peak


def host_fingerprint(fsync_policy: str) -> dict:
    """Where the numbers were measured; latencies are this host's."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fsync": fsync_policy,
        "latency_note": "latencies are this host's, not a storage device's",
    }
