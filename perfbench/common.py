"""Shared plumbing: checkout paths, the measured phase, and statistics."""

from __future__ import annotations

import json
import math
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
#: The checkout root: the benchmark builds from ``src/`` next to it.
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch state (daemon state dirs, surrogate models); removed per run.
WORK = ROOT / ".perfbench-work"
#: Span dumps from traced runs, kept for reading after the run.
OUT = ROOT / ".perfbench-out"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {SRC}; run from a full "
            "checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict[str, Any]:
    with open(HERE / "spec.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Phase:
    """What one timed closed-loop phase produced.

    ``latencies`` holds one wall time per unit the loop waits on (a
    job, a request, a grid); ``work`` counts what throughput divides
    (jobs, requests, grid points).  ``answers`` is whatever the
    workload's oracle check reads; ``threads`` are the load threads
    (trace coverage is measured on them).
    """

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    work: int = 0
    attempted: int = 0
    errors: int = 0
    answers: list[Any] = field(default_factory=list)
    threads: list[int] = field(default_factory=list)
    rss_mb: float = 0.0


@dataclass
class Verdict:
    """The oracle's reading of a phase's answers."""

    answers: int = 0
    mismatches: int = 0
    agreeing: int = 0
    notes: list[str] = field(default_factory=list)

    def merge(self, other: "Verdict") -> None:
        self.answers += other.answers
        self.mismatches += other.mismatches
        self.agreeing += other.agreeing
        self.notes.extend(other.notes)


def nearest_rank(values: list[float], percentile: float) -> float:
    """The nearest-rank percentile (``percentile`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(count: int, percentile: float) -> int:
    """Samples strictly above the nearest-rank ``percentile``."""
    return count - max(1, math.ceil(percentile / 100.0 * count))


def own_peak_rss_mb() -> float:
    """This process's peak resident set, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
