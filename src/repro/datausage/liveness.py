"""Inter-kernel dependence analysis over BRS footprints.

The paper builds on GROPHECY's use of INTERSECT to "determine the
dependencies among BRSs"; here we expose that as kernel-level dependence
edges.  The transformation layer uses it to decide which kernels may be
fused (e.g. HotSpot's repeated stencil invocations), and it documents why
CFD is split into three kernels (global synchronization on true
dependences).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.brs.footprint import KernelFootprint, kernel_footprint
from repro.brs.ops import intersect
from repro.brs.set import SectionSet
from repro.skeleton.program import ProgramSkeleton


class DependenceKind(enum.Enum):
    FLOW = "flow"  # write -> read (true dependence)
    ANTI = "anti"  # read -> write
    OUTPUT = "output"  # write -> write


@dataclass(frozen=True)
class KernelDependence:
    """A dependence edge between two kernels through one array."""

    producer: str
    consumer: str
    array: str
    kind: DependenceKind


def _sets_overlap(a: SectionSet, b: SectionSet) -> bool:
    for sa in a:
        for sb in b:
            if intersect(sa, sb) is not None:
                return True
    return False


def kernel_dependences(program: ProgramSkeleton) -> list[KernelDependence]:
    """All pairwise dependences between kernels, in program order."""
    env = program.array_map
    footprints: list[KernelFootprint] = [
        kernel_footprint(k, env) for k in program.kernels
    ]
    out: list[KernelDependence] = []
    for i, earlier in enumerate(footprints):
        for later in footprints[i + 1 :]:
            for array in sorted(
                set(earlier.reads) | set(earlier.writes)
            ):
                e_reads = earlier.reads.get(array, SectionSet())
                e_writes = earlier.writes.get(array, SectionSet())
                l_reads = later.reads.get(array, SectionSet())
                l_writes = later.writes.get(array, SectionSet())
                if _sets_overlap(e_writes, l_reads):
                    out.append(
                        KernelDependence(
                            earlier.kernel, later.kernel, array,
                            DependenceKind.FLOW,
                        )
                    )
                if _sets_overlap(e_reads, l_writes):
                    out.append(
                        KernelDependence(
                            earlier.kernel, later.kernel, array,
                            DependenceKind.ANTI,
                        )
                    )
                if _sets_overlap(e_writes, l_writes):
                    out.append(
                        KernelDependence(
                            earlier.kernel, later.kernel, array,
                            DependenceKind.OUTPUT,
                        )
                    )
    return out

