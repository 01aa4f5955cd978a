"""The transformation space GROPHECY explores."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.util.fingerprint import memoized, stable_digest
from repro.util.validation import check_positive


@lru_cache(maxsize=256)
def _space_configs(space: "TransformationSpace") -> tuple["MappingConfig", ...]:
    return tuple(iter(space))


@lru_cache(maxsize=4096)
def _label(block_size: int, use_shared_memory: bool, unroll: int,
           coarsening: int) -> str:
    smem = "+smem" if use_shared_memory else ""
    unroll_tag = f"+u{unroll}" if unroll > 1 else ""
    coarse = f"+c{coarsening}" if coarsening > 1 else ""
    return f"b{block_size}{smem}{unroll_tag}{coarse}"


@dataclass(frozen=True)
class MappingConfig:
    """One candidate mapping of a kernel onto the GPU.

    ``block_size``: threads per block; ``use_shared_memory``: stage reused
    neighborhoods (stencil halos) in shared memory; ``unroll``: serial-loop
    unroll factor (amortizes loop overhead at a register cost);
    ``coarsening``: work-items processed per thread — fewer, fatter
    threads amortize per-thread overheads and can improve ILP at an
    occupancy cost.
    """

    block_size: int = 256
    use_shared_memory: bool = False
    unroll: int = 1
    coarsening: int = 1

    def __post_init__(self) -> None:
        check_positive("block_size", self.block_size)
        check_positive("unroll", self.unroll)
        check_positive("coarsening", self.coarsening)
        if self.block_size % 32 != 0:
            raise ValueError(
                f"block_size should be a warp multiple, got {self.block_size}"
            )

    def label(self) -> str:
        # Memoized at module level: the explorer labels every candidate
        # of every exploration, and spaces re-yield equal configs.
        return _label(
            self.block_size, self.use_shared_memory, self.unroll,
            self.coarsening,
        )


@dataclass(frozen=True)
class TransformationSpace:
    """The cartesian candidate grid.

    The default grid (8 block sizes x smem on/off x 3 unroll factors = 48
    mappings per kernel) matches the scale of search GROPHECY performs; a
    degenerate space (`naive()`) provides the ablation baseline of "just
    port it with a fixed 256-thread block", and `wide()` adds thread
    coarsening for a 144-point search.
    """

    block_sizes: tuple[int, ...] = (64, 128, 192, 256, 320, 384, 448, 512)
    shared_memory_options: tuple[bool, ...] = (False, True)
    unroll_factors: tuple[int, ...] = (1, 2, 4)
    coarsening_factors: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if not self.block_sizes:
            raise ValueError("need at least one block size")
        if not self.shared_memory_options:
            raise ValueError("need at least one shared-memory option")
        if not self.unroll_factors:
            raise ValueError("need at least one unroll factor")
        if not self.coarsening_factors:
            raise ValueError("need at least one coarsening factor")

    def __iter__(self) -> Iterator[MappingConfig]:
        for block in self.block_sizes:
            for smem in self.shared_memory_options:
                for unroll in self.unroll_factors:
                    for coarse in self.coarsening_factors:
                        yield MappingConfig(block, smem, unroll, coarse)

    def configs(self) -> tuple[MappingConfig, ...]:
        """The grid as a tuple, memoized per space.

        ``__iter__`` re-constructs every ``MappingConfig`` (validation
        included) on each pass; the explorer walks the same space once
        per kernel, so both scoring paths take this cached view.
        """
        return _space_configs(self)

    def __len__(self) -> int:
        return (
            len(self.block_sizes)
            * len(self.shared_memory_options)
            * len(self.unroll_factors)
            * len(self.coarsening_factors)
        )

    @memoized
    def fingerprint(self) -> str:
        """Stable content hash of the candidate *set*.

        Axis values are sorted first: two spaces enumerating the same
        candidates in a different order explore the same set and
        fingerprint identically.
        """
        return stable_digest(
            {
                "block_sizes": sorted(self.block_sizes),
                "shared_memory_options": sorted(self.shared_memory_options),
                "unroll_factors": sorted(self.unroll_factors),
                "coarsening_factors": sorted(self.coarsening_factors),
            }
        )

    @staticmethod
    def naive() -> "TransformationSpace":
        """Single fixed mapping: the no-search ablation baseline."""
        return TransformationSpace(
            block_sizes=(256,),
            shared_memory_options=(False,),
            unroll_factors=(1,),
            coarsening_factors=(1,),
        )

    @staticmethod
    def default() -> "TransformationSpace":
        return TransformationSpace()

    @staticmethod
    def wide() -> "TransformationSpace":
        """Default grid extended with thread coarsening (1x/2x/4x)."""
        return TransformationSpace(coarsening_factors=(1, 2, 4))
