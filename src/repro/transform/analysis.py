"""Precomputed per-kernel analysis for the fused exploration path.

The reference :func:`~repro.transform.synthesize.synthesize_characteristics`
re-derives every characteristic from the skeleton for each candidate
mapping, even though most of the synthesis — per-access coalescing
verdicts against the mapping variable, flop tallies with complex
expansion, array staging roles, traffic-weighted access widths — does not
depend on the mapping at all.  :class:`KernelAnalysis` walks the skeleton
*once* per kernel, caches everything config-independent, and turns
characteristic synthesis into a cheap closed form of ``(analysis,
config)``.

Two layers of caching:

- **per kernel** (``__init__``): the mapping variable, iteration counts,
  flop/byte tallies, neighborhood staging groups, reuse-staging
  candidates, and one coalescing verdict per access;
- **per memory shape** (:meth:`_profile`): a candidate mapping reshapes
  the memory stream only through ``(use_shared_memory, tile_dim)``, and
  the 8 block sizes of the default grid share just a handful of tile
  dimensions — so the statement-loop accumulations run a few times per
  kernel instead of once per config.

Equivalence contract: every floating-point accumulation below replays the
*same additions in the same order* as the reference synthesis, so the
resulting :class:`~repro.gpu.characteristics.KernelCharacteristics` are
bitwise identical field-for-field.  The property tests in
``tests/transform/test_fast_reference_property.py`` pin this; do not
reorder an accumulation here without reordering the reference (and vice
versa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.gpu.characteristics import KernelCharacteristics
from repro.skeleton.arrays import ArrayDecl, ArrayKind
from repro.skeleton.kernel import KernelSkeleton
from repro.transform.space import MappingConfig
from repro.transform.synthesize import (
    _ADDRESS_OVERHEAD,
    _BASE_REGISTERS,
    _COMPLEX_EXPANSION,
    _HALO_FACTOR,
    _LOOP_OVERHEAD,
    _SMEM_ACCESS_COST,
    _STRICT_TILE_COALESCING,
    _mapping_variable,
    _neighbor_groups,
    access_is_coalesced,
)

#: Access categories under shared-memory staging (see synthesize's
#: coalescing loop): a cooperative tile load of a reuse-staged operand, a
#: tap of a neighborhood-staged array, or an ordinary global access.
_REUSE, _STAGED, _NORMAL = 0, 1, 2


@dataclass(frozen=True)
class MemoryProfile:
    """The memory-stream summary for one ``(use_shared_memory, tile_dim)``.

    Everything the per-config closed form needs that the statement loops
    produce: the staged-load-adjusted load count, shared-memory traffic
    instructions, barrier count, and the traffic-weighted coalesced
    fraction — plus the profile-constant partial sums of the instruction
    stream (``mem_insts_base``, ``comp_base``) so the per-config tail
    only folds in unroll and coarsening.
    """

    loads_per_iter: float
    smem_traffic_insts: float
    syncs: float
    coalesced_fraction: float
    #: ``(loads_per_iter + stores_per_iter) * serial``.
    mem_insts_base: float
    #: ``flops + address_insts + smem_traffic_insts`` (no loop overhead).
    comp_base: float


class KernelAnalysis:
    """One-time skeleton walk; per-config characteristics in O(1) loops.

    Raises ``ValueError`` at construction if the kernel exposes no
    parallel loop to map (the same error the reference synthesis raises
    per config).

    Thread-safety: the profile and tail caches are plain dicts —
    concurrent callers may redundantly compute the same (identical,
    immutable) entry, which is benign.
    """

    def __init__(
        self,
        kernel: KernelSkeleton,
        arrays: Mapping[str, ArrayDecl],
        strict_coalescing: bool = True,
    ) -> None:
        self.kernel = kernel
        self.strict_coalescing = strict_coalescing
        self.map_var = _mapping_variable(kernel)  # may raise ValueError
        self.serial = kernel.serial_iterations
        self.parallel_iterations = kernel.parallel_iterations
        self.base_loads_per_iter = kernel.loads_per_iteration()
        self.stores_per_iter = kernel.stores_per_iteration()
        self.distinct_arrays = len(kernel.arrays())

        # --- Computation stream (config-independent) ----------------------
        flops = 0.0
        for stmt in kernel.statements:
            expansion = 1.0
            if any(arrays[a.array].dtype.is_complex for a in stmt.accesses):
                expansion = _COMPLEX_EXPANSION
            flops += (
                stmt.flops
                * stmt.branch_prob
                * kernel.statement_weight(stmt)
                * expansion
            )
        self.flops = flops

        # --- Traffic-weighted element size (config-independent) -----------
        traffic = 0.0
        access_count = 0.0
        for stmt in kernel.statements:
            weight = stmt.branch_prob * kernel.statement_weight(stmt)
            for access in stmt.accesses:
                traffic += weight * arrays[access.array].dtype.size_bytes
                access_count += weight
        self.bytes_per_access = (
            round(traffic / access_count) if access_count else 4
        )

        # --- Neighborhood staging (active only under use_shared_memory,
        # but *which* arrays stage never depends on the config) ------------
        smem_staged: list[str] = []
        staged_saved = 0.0
        staged_traffic = 0.0
        for (array, _sig), group in _neighbor_groups(kernel).items():
            if len(group) >= 3:
                smem_staged.append(array)
                staged_saved += len(group) - _HALO_FACTOR
                staged_traffic += len(group) * _SMEM_ACCESS_COST
        self.smem_staged = tuple(smem_staged)
        self._staged_saved = staged_saved
        self._staged_traffic = staged_traffic
        staged_set = set(smem_staged)
        self._staged_elem_bytes = sum(
            arrays[a].dtype.size_bytes for a in smem_staged
        )
        self._group_sizes = {
            array: sum(
                1
                for s2 in kernel.statements
                for a2 in s2.loads
                if a2.array == array and not a2.indirect
            )
            for array in staged_set
        }

        # --- Cross-thread reuse staging candidates ------------------------
        parallel_vars = frozenset(l.var for l in kernel.parallel_loops)
        serial_vars = frozenset(l.var for l in kernel.serial_loops)
        reuse_weights: list[float] = []
        reuse_arrays: list[str] = []
        for stmt in kernel.statements:
            if stmt.amortize is not None:
                continue
            stmt_weight = stmt.branch_prob
            for access in stmt.loads:
                if access.indirect or access.array in staged_set:
                    continue
                if arrays[access.array].kind is ArrayKind.SPARSE:
                    continue
                missing = parallel_vars - access.variables()
                reduces = bool(access.variables() & serial_vars)
                if missing and reduces and self.serial > 1:
                    reuse_arrays.append(access.array)
                    reuse_weights.append(stmt_weight)
        self.reuse_arrays = tuple(reuse_arrays)
        self._reuse_weights = tuple(reuse_weights)
        self._reuse_elem_bytes = sum(
            arrays[name].dtype.size_bytes for name in set(reuse_arrays)
        )

        # --- Per-access weights, coalescing verdicts, staging categories --
        reuse_set = set(reuse_arrays)
        weights: list[float] = []
        verdicts: list[bool] = []
        categories: list[int] = []
        staged_shares: list[float] = []  # weight * HALO / group_size
        for stmt in kernel.statements:
            stmt_weight = kernel.statement_weight(stmt)
            for access in stmt.accesses:
                weight = stmt.branch_prob * stmt_weight
                weights.append(weight)
                verdicts.append(
                    access_is_coalesced(
                        access,
                        self.map_var,
                        arrays[access.array],
                        strict_coalescing,
                    )
                )
                if (
                    access.is_load
                    and access.array in reuse_set
                    and stmt.amortize is None
                    and not access.indirect
                ):
                    categories.append(_REUSE)
                    staged_shares.append(0.0)
                elif access.is_load and access.array in staged_set:
                    categories.append(_STAGED)
                    group_size = self._group_sizes[access.array]
                    staged_shares.append(
                        weight * _HALO_FACTOR / max(group_size, 1)
                    )
                else:
                    categories.append(_NORMAL)
                    staged_shares.append(0.0)
        self._access_weights = tuple(weights)
        self._access_verdicts = tuple(verdicts)
        self._access_categories = tuple(categories)
        self._staged_shares = tuple(staged_shares)

        self._profiles: dict[tuple[bool, int], MemoryProfile] = {}
        self._reg_base = _BASE_REGISTERS + 2 * self.distinct_arrays
        self._bytes_pa = max(self.bytes_per_access, 1)
        self._threads_by_coarse: dict[int, tuple[int, int]] = {}
        self._tails: dict[MappingConfig, tuple] = {}
        self._char_fields: dict[MappingConfig, dict] = {}

    def signature(self) -> tuple:
        """Every input of :meth:`characteristics` except the work-item count.

        Two analyses with equal signatures produce bitwise-identical
        :class:`KernelCharacteristics` for any config at any injected
        ``parallel_iterations`` — the guarantee the parametric sweep
        engine uses to share one analysis (and its cached config tails)
        across every point of a dataset-size sweep via
        :meth:`characteristics_at`.
        """
        return (
            self.kernel.name,
            self.strict_coalescing,
            self.map_var,
            self.serial,
            self.flops,
            self.bytes_per_access,
            self.base_loads_per_iter,
            self.stores_per_iter,
            self.distinct_arrays,
            self.smem_staged,
            self._staged_saved,
            self._staged_traffic,
            self._staged_elem_bytes,
            tuple(sorted(self._group_sizes.items())),
            self.reuse_arrays,
            self._reuse_weights,
            self._reuse_elem_bytes,
            self._access_weights,
            self._access_verdicts,
            self._access_categories,
            self._staged_shares,
        )

    def memory_profile(
        self, use_shared_memory: bool, tile_dim: int = 16
    ) -> MemoryProfile:
        """The cached :class:`MemoryProfile` for one memory shape.

        Public view of the per-shape cache for consumers outside the
        explorer (the surrogate's feature extractor reads the coalesced
        fractions and instruction-stream partial sums here).  The
        default ``tile_dim`` of 16 is the tile of the canonical
        256-thread block.
        """
        return self._profile(use_shared_memory, tile_dim)

    # ------------------------------------------------------------------ #
    def _profile(self, use_shared_memory: bool, tile_dim: int) -> MemoryProfile:
        key = (use_shared_memory, tile_dim)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._compute_profile(use_shared_memory, tile_dim)
            self._profiles[key] = profile
        return profile

    def _compute_profile(
        self, use_shared_memory: bool, tile_dim: int
    ) -> MemoryProfile:
        """Replay the reference memory-stream accumulations for one shape."""
        serial = self.serial
        saved = 0.0
        smem_traffic_insts = 0.0
        syncs = 0.0
        staging = False
        if use_shared_memory:
            staging = bool(self.smem_staged or self._reuse_weights)
            saved = self._staged_saved
            smem_traffic_insts = self._staged_traffic
            if self.smem_staged:
                syncs = 1.0 * serial
            for weight in self._reuse_weights:
                saved += weight * (1 - 1 / tile_dim)
                smem_traffic_insts += weight * _SMEM_ACCESS_COST
            if self._reuse_weights:
                syncs = max(syncs, serial / tile_dim)

        loads_per_iter = self.base_loads_per_iter - (saved if staging else 0.0)
        loads_per_iter = max(loads_per_iter, 0.0)

        tile_coal = _STRICT_TILE_COALESCING if self.strict_coalescing else 1.0
        weights_total = 0.0
        weights_coalesced = 0.0
        if use_shared_memory:
            for weight, verdict, category, share in zip(
                self._access_weights,
                self._access_verdicts,
                self._access_categories,
                self._staged_shares,
            ):
                if category == _REUSE:
                    weights_total += weight / tile_dim
                    weights_coalesced += weight / tile_dim
                elif category == _STAGED:
                    weights_total += share
                    weights_coalesced += share * tile_coal
                else:
                    weights_total += weight
                    if verdict:
                        weights_coalesced += weight
        else:
            for weight, verdict in zip(
                self._access_weights, self._access_verdicts
            ):
                weights_total += weight
                if verdict:
                    weights_coalesced += weight
        coalesced_fraction = (
            weights_coalesced / weights_total if weights_total else 1.0
        )
        sum_per_iter = loads_per_iter + self.stores_per_iter
        address_insts = _ADDRESS_OVERHEAD * sum_per_iter
        return MemoryProfile(
            loads_per_iter=loads_per_iter,
            smem_traffic_insts=smem_traffic_insts,
            syncs=syncs,
            coalesced_fraction=coalesced_fraction,
            mem_insts_base=sum_per_iter * serial,
            comp_base=self.flops + address_insts + smem_traffic_insts,
        )

    # ------------------------------------------------------------------ #
    def _config_tail(self, config: MappingConfig) -> tuple:
        """Everything per-config that does not depend on the work-item
        count: ``(name, block, comp_insts, mem_insts, coalesced_fraction,
        registers, smem_bytes, syncs, coarsening)``.

        The mapping reshapes instruction counts, register pressure, and
        shared-memory footprint through the config alone; only ``threads``
        (and the block floor derived from it) reads
        ``parallel_iterations``.  Caching the tail per config lets a
        parametric sweep re-evaluate one kernel at many dataset sizes for
        just a ceil-division and a dataclass construction per point.
        """
        tail = self._tails.get(config)
        if tail is None:
            serial = self.serial
            block = config.block_size
            tile_dim = max(2, int(math.sqrt(block)))
            profile = self._profile(config.use_shared_memory, tile_dim)

            unroll = config.unroll
            loop_insts = _LOOP_OVERHEAD / unroll if serial > 1 else 0.0
            mem_insts = profile.mem_insts_base
            comp_insts = (profile.comp_base + loop_insts) * serial

            coarse = config.coarsening
            if coarse > 1:
                mem_insts *= coarse
                comp_insts = (
                    comp_insts * coarse - loop_insts * serial * (coarse - 1)
                )

            registers = self._reg_base + 3 * (unroll - 1) + 2 * (coarse - 1)
            if registers > 60:
                registers = 60
            smem_bytes = 0
            if config.use_shared_memory:
                if self.smem_staged:
                    smem_bytes = self._staged_elem_bytes * (block + 2)
                smem_bytes += self._reuse_elem_bytes * tile_dim * tile_dim
            tail = (
                f"{self.kernel.name}[{config.label()}]",
                block,
                comp_insts,
                mem_insts if mem_insts > 1e-9 else 1e-9,
                profile.coalesced_fraction,
                registers,
                smem_bytes,
                profile.syncs,
                coarse,
            )
            self._tails[config] = tail
        return tail

    def characteristics(self, config: MappingConfig) -> KernelCharacteristics:
        """The reference synthesis as a closed form of the precompute.

        Bitwise-equal to ``synthesize_characteristics(kernel, arrays,
        config, strict_coalescing=...)`` for every config: the per-config
        tail replays the reference's remaining float operations in the
        reference's order on the profile's cached partial sums.
        """
        (
            name,
            block,
            comp_insts,
            mem_insts,
            coalesced,
            registers,
            smem_bytes,
            syncs,
            coarse,
        ) = self._config_tail(config)

        threads_pair = self._threads_by_coarse.get(coarse)
        if threads_pair is None:
            threads = max(1, math.ceil(self.parallel_iterations / coarse))
            threads_pair = (threads, 32 if threads < 32 else threads)
            self._threads_by_coarse[coarse] = threads_pair
        threads, block_floor = threads_pair
        # Positional construction: keyword parsing is measurable at one
        # call per candidate mapping (field order per the dataclass).
        return KernelCharacteristics(
            name,
            threads,
            block if block < block_floor else block_floor,
            comp_insts,
            mem_insts,
            coalesced,
            self._bytes_pa,
            registers,
            smem_bytes,
            syncs,
        )

    def characteristics_at(
        self, config: MappingConfig, parallel_iterations: int
    ) -> KernelCharacteristics:
        """:meth:`characteristics` with the work-item count overridden.

        The parametric sweep engine holds one analysis (built at an anchor
        dataset) and injects each sweep point's exposed parallelism here;
        for an analysis whose config-independent fields match the point's
        own, the result is bitwise-equal to building a fresh analysis at
        that point and calling :meth:`characteristics`.
        """
        (
            name,
            block,
            comp_insts,
            mem_insts,
            coalesced,
            registers,
            smem_bytes,
            syncs,
            coarse,
        ) = self._config_tail(config)
        threads = max(1, math.ceil(parallel_iterations / coarse))
        block_floor = 32 if threads < 32 else threads
        block_size = block if block < block_floor else block_floor
        template = self._char_fields.get(config)
        if template is None:
            # First point for this config: a validated construction guards
            # the tail's config-constant fields once; the two per-point
            # fields (threads, block_size) are positive by construction,
            # so later points clone the field dict and skip __post_init__.
            chars = KernelCharacteristics(
                name,
                threads,
                block_size,
                comp_insts,
                mem_insts,
                coalesced,
                self._bytes_pa,
                registers,
                smem_bytes,
                syncs,
            )
            self._char_fields[config] = dict(chars.__dict__)
            return chars
        chars = object.__new__(KernelCharacteristics)
        fields = chars.__dict__
        fields.update(template)
        fields["threads"] = threads
        fields["block_size"] = block_size
        return chars

    def config_columns(
        self,
        configs: Sequence[MappingConfig],
        parallel_iterations: int | None = None,
    ) -> tuple[dict[str, np.ndarray], np.ndarray, dict[int, str]]:
        """The candidate grid as structure-of-arrays columns, no objects.

        Returns ``(columns, index_map, errors)``: one NumPy array per
        :class:`KernelCharacteristics` field (the
        :func:`repro.gpu.vectorized.fused_seconds` input), the original
        config index of each row (synthesis failures are dropped from the
        rows but keep their position in ``errors``), and the per-config
        synthesis error messages.  Row order is grid order, so an argmin
        over the columns obeys the explorer's first-minimum tie-break.

        This is the fused scorer's input: values are bitwise-equal to
        the per-config :meth:`characteristics` fields — the tails are the
        same cached tuples, and the threads/block-floor ceilings replay
        the same scalar expressions — but nothing per-config is
        materialized beyond one tuple row.  Skipping the dataclass
        validation is sound: a successful :meth:`_config_tail` already
        guarantees every ``__post_init__`` invariant (``mem_insts`` is
        floored at 1e-9, ``comp_insts`` and ``syncs`` are sums of
        non-negative terms, the coalesced fraction is a convex weight
        ratio with tile factor 0.40 <= 1, registers/threads/block are
        positive by construction).
        """
        iterations = (
            self.parallel_iterations
            if parallel_iterations is None
            else parallel_iterations
        )
        tails = []
        rows: list[int] = []
        errors: dict[int, str] = {}
        tail_of = self._config_tail
        for index, config in enumerate(configs):
            try:
                tails.append(tail_of(config))
            except ValueError as exc:
                errors[index] = str(exc)
                continue
            rows.append(index)
        index_map = np.asarray(rows, dtype=np.int64)
        if not tails:
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=np.float64)
            columns = {
                "block_size": empty_i,
                "registers_per_thread": empty_i,
                "shared_mem_per_block": empty_i,
                "threads": empty_i,
                "bytes_per_access": empty_i,
                "mem_insts_per_thread": empty_f,
                "comp_insts_per_thread": empty_f,
                "coalesced_fraction": empty_f,
                "syncs_per_thread": empty_f,
            }
            return columns, index_map, errors
        (
            _names,
            block,
            comp_insts,
            mem_insts,
            coalesced,
            registers,
            smem_bytes,
            syncs,
            coarse,
        ) = zip(*tails)
        block_arr = np.asarray(block, dtype=np.int64)
        coarse_arr = np.asarray(coarse, dtype=np.int64)
        count = len(tails)
        threads_arr = np.empty(count, dtype=np.int64)
        floor_arr = np.empty(count, dtype=np.int64)
        # A handful of distinct coarsening factors share one scalar
        # ceiling each — the same expression characteristics() evaluates.
        for coarse_value in dict.fromkeys(coarse):
            threads = max(1, math.ceil(iterations / coarse_value))
            block_floor = 32 if threads < 32 else threads
            mask = coarse_arr == coarse_value
            threads_arr[mask] = threads
            floor_arr[mask] = block_floor
        columns = {
            "block_size": np.minimum(block_arr, floor_arr),
            "registers_per_thread": np.asarray(registers, dtype=np.int64),
            "shared_mem_per_block": np.asarray(smem_bytes, dtype=np.int64),
            "threads": threads_arr,
            "bytes_per_access": np.full(count, self._bytes_pa, dtype=np.int64),
            "mem_insts_per_thread": np.asarray(mem_insts, dtype=np.float64),
            "comp_insts_per_thread": np.asarray(comp_insts, dtype=np.float64),
            "coalesced_fraction": np.asarray(coalesced, dtype=np.float64),
            "syncs_per_thread": np.asarray(syncs, dtype=np.float64),
        }
        return columns, index_map, errors


def analyze_kernel(
    kernel: KernelSkeleton,
    arrays: Mapping[str, ArrayDecl],
    strict_coalescing: bool = True,
) -> KernelAnalysis:
    """Precompute the config-independent analysis of one kernel."""
    return KernelAnalysis(kernel, arrays, strict_coalescing)
