"""CUDA occupancy calculation.

Active blocks per SM are limited by four resources: the thread budget, the
block-slot budget, the register file, and shared memory.  The number of
concurrently active warps (N in the MWP/CWP model) follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.arch import GPUArchitecture
from repro.gpu.characteristics import KernelCharacteristics


@dataclass(frozen=True)
class OccupancyResult:
    """Resolved occupancy for one kernel on one architecture."""

    blocks_per_sm: int
    warps_per_block: int
    active_warps: int  # per SM
    limiter: str  # which resource bound occupancy

    @property
    def occupancy_fraction(self) -> float:
        return self.active_warps / self._max_warps

    # populated by occupancy(); stored to compute the fraction
    _max_warps: int = 1


def occupancy(
    chars: KernelCharacteristics, arch: GPUArchitecture
) -> OccupancyResult:
    """Active blocks/warps per SM for a kernel on an architecture.

    Raises ``ValueError`` if a single block already exceeds a per-SM
    resource (unlaunchable configuration) — the transformation explorer
    relies on this to skip illegal mappings.
    """
    block = chars.block_size
    if block > arch.max_threads_per_sm:
        raise ValueError(
            f"block size {block} exceeds {arch.max_threads_per_sm} "
            f"threads/SM on {arch.name}"
        )
    warps_per_block = math.ceil(block / arch.warp_size)

    limits = {
        "threads": arch.max_threads_per_sm // block,
        "blocks": arch.max_blocks_per_sm,
        "warps": arch.max_warps_per_sm // warps_per_block,
    }
    regs_per_block = chars.registers_per_thread * block
    if regs_per_block > arch.registers_per_sm:
        raise ValueError(
            f"kernel {chars.name!r} needs {regs_per_block} registers per "
            f"block; SM has {arch.registers_per_sm}"
        )
    limits["registers"] = arch.registers_per_sm // regs_per_block
    if chars.shared_mem_per_block:
        if chars.shared_mem_per_block > arch.shared_mem_per_sm:
            raise ValueError(
                f"kernel {chars.name!r} needs {chars.shared_mem_per_block}B "
                f"shared memory per block; SM has {arch.shared_mem_per_sm}B"
            )
        limits["shared_mem"] = (
            arch.shared_mem_per_sm // chars.shared_mem_per_block
        )

    limiter = min(limits, key=lambda k: limits[k])
    blocks_per_sm = limits[limiter]
    if blocks_per_sm < 1:
        raise ValueError(
            f"kernel {chars.name!r} cannot fit one block per SM "
            f"(limited by {limiter})"
        )
    # Fewer blocks exist than would fill the device: occupancy caps there.
    total_blocks = chars.num_blocks
    blocks_per_sm = min(blocks_per_sm, max(1, math.ceil(total_blocks / arch.num_sms)))
    active_warps = blocks_per_sm * warps_per_block
    return OccupancyResult(
        blocks_per_sm=blocks_per_sm,
        warps_per_block=warps_per_block,
        active_warps=active_warps,
        limiter=limiter,
        _max_warps=arch.max_warps_per_sm,
    )
