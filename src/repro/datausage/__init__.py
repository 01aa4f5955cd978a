"""Data usage analysis: what must cross the PCIe bus (paper Section III-B).

Given a :class:`~repro.skeleton.program.ProgramSkeleton` (a sequence of GPU
kernels over shared arrays), the analyzer maintains the set of array
sections already produced on the device and derives:

- **host-to-device**: the UNION of sections read before being written by
  any earlier kernel/statement;
- **device-to-host**: the UNION of all written sections, minus arrays the
  user hinted as temporaries;
- sparse/irregular arrays: conservatively the whole array, unless an
  explicit :class:`~repro.datausage.hints.SparseExtentHint` bounds the
  referenced element count.

Each array is transferred separately, matching the paper's assumption; a
batched mode exists for the corresponding ablation.
"""

from repro.datausage.transfers import Direction, Transfer, TransferPlan
from repro.datausage.hints import AnalysisHints, SparseExtentHint
from repro.datausage.analyzer import DataUsageAnalyzer, analyze_transfers
from repro.datausage.liveness import (
    KernelDependence,
    kernel_dependences,
)

__all__ = [
    "Direction",
    "Transfer",
    "TransferPlan",
    "AnalysisHints",
    "SparseExtentHint",
    "DataUsageAnalyzer",
    "analyze_transfers",
    "KernelDependence",
    "kernel_dependences",
]
