"""Benchmark trend gate: fail CI on a >20% throughput regression.

Compares the fresh ``benchmarks/out/BENCH_*.json`` files against the
same files from the previous successful CI run (downloaded as an
artifact).  Only *throughput* leaves participate — numeric values whose
key ends in ``_per_s`` or ``_per_query_us`` — because those are the
numbers the benchmarks gate on; counters (``rows``, ``pool_workers``)
and ratios are ignored.  Higher is better for ``_per_s``; lower is
better for ``_per_query_us`` (it is a latency).

Exit codes: 0 when no previous baseline exists (first run, new file, or
artifact download failed — the trend gate never blocks bootstrap) or
when every leaf is within tolerance; 1 when any tracked leaf regressed
beyond the threshold.

Usage::

    python benchmarks/bench_trend.py PREVIOUS_DIR CURRENT_DIR [--threshold 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Key suffixes that mark a leaf as a tracked throughput number, mapped
#: to the direction that counts as a regression.
HIGHER_IS_BETTER = "_per_s"
LOWER_IS_BETTER = "_per_query_us"

DEFAULT_THRESHOLD = 0.20


def throughput_leaves(data: object, prefix: str = "") -> dict[str, float]:
    """Flatten a benchmark JSON tree to its tracked numeric leaves.

    Keys become dotted paths (``explorer.fast_configs_per_s``);
    only leaves whose final key component carries a tracked suffix are
    kept.
    """
    leaves: dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                leaves.update(throughput_leaves(value, path))
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                if str(key).endswith((HIGHER_IS_BETTER, LOWER_IS_BETTER)):
                    leaves[path] = float(value)
    return leaves


def compare_leaves(
    previous: dict[str, float],
    current: dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Regression messages for every tracked leaf beyond ``threshold``.

    Leaves present only on one side are skipped (renamed or new
    benchmarks are not regressions).  A zero or negative baseline is
    skipped too — there is no meaningful ratio against it.
    """
    problems: list[str] = []
    for path in sorted(set(previous) & set(current)):
        before, after = previous[path], current[path]
        if before <= 0:
            continue
        if path.endswith(LOWER_IS_BETTER):
            change = after / before - 1.0  # +: slower (worse)
            regressed = change > threshold
            direction = "slower"
        else:
            change = 1.0 - after / before  # +: fewer per second (worse)
            regressed = change > threshold
            direction = "drop"
        if regressed:
            problems.append(
                f"{path}: {before:.6g} -> {after:.6g} "
                f"({change:+.1%} {direction}, limit {threshold:.0%})"
            )
    return problems


def compare_dirs(
    previous_dir: Path,
    current_dir: Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """(regressions, notes) across every ``BENCH_*.json`` in current."""
    problems: list[str] = []
    notes: list[str] = []
    current_files = sorted(current_dir.glob("BENCH_*.json"))
    if not current_files:
        notes.append(f"no BENCH_*.json under {current_dir} — nothing to gate")
        return problems, notes
    for current_file in current_files:
        previous_file = previous_dir / current_file.name
        if not previous_file.is_file():
            notes.append(f"{current_file.name}: no previous baseline, skipped")
            continue
        try:
            before = throughput_leaves(
                json.loads(previous_file.read_text(encoding="utf-8"))
            )
        except (OSError, ValueError):
            notes.append(f"{current_file.name}: unreadable baseline, skipped")
            continue
        after = throughput_leaves(
            json.loads(current_file.read_text(encoding="utf-8"))
        )
        found = compare_leaves(before, after, threshold)
        problems.extend(f"{current_file.name}: {p}" for p in found)
        notes.append(
            f"{current_file.name}: {len(set(before) & set(after))} leaves "
            f"compared, {len(found)} regressed"
        )
    return problems, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("previous", type=Path, help="previous run's out/ dir")
    parser.add_argument("current", type=Path, help="this run's out/ dir")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional regression that fails the gate (default 0.2)",
    )
    args = parser.parse_args(argv)
    if not args.previous.is_dir():
        print(f"trend: no previous baseline at {args.previous}; passing")
        return 0
    problems, notes = compare_dirs(args.previous, args.current, args.threshold)
    for note in notes:
        print(f"trend: {note}")
    for problem in problems:
        print(f"REGRESSION {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
