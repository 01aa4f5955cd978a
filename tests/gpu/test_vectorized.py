"""Tests for the fused MWP/CWP grid scorer against the scalar model."""

import dataclasses

import numpy as np
import pytest

from repro.gpu.arch import gtx_280, quadro_fx_5600, tesla_c1060
from repro.gpu.characteristics import KernelCharacteristics
from repro.gpu.model import GpuPerformanceModel
from repro.gpu.vectorized import ScoreArena, fused_argmin, fused_seconds

ARCHES = [quadro_fx_5600, tesla_c1060, gtx_280]

#: The scorer's input columns: one array per characteristics field.
FIELDS = (
    ("block_size", np.int64),
    ("registers_per_thread", np.int64),
    ("shared_mem_per_block", np.int64),
    ("threads", np.int64),
    ("bytes_per_access", np.int64),
    ("mem_insts_per_thread", np.float64),
    ("comp_insts_per_thread", np.float64),
    ("coalesced_fraction", np.float64),
    ("syncs_per_thread", np.float64),
)


def columns(chars_list):
    """Structure-of-arrays view of a characteristics list."""
    return {
        field: np.asarray([getattr(c, field) for c in chars_list], dtype)
        for field, dtype in FIELDS
    }


def scalar(model, chars):
    """The scalar breakdown, or the ValueError text for illegal rows."""
    try:
        return model.breakdown(chars)
    except ValueError as exc:
        return str(exc)


def chars_grid():
    """A batch spanning regimes, sync/no-sync, and illegal rows."""
    out = []
    for block in (32, 64, 256, 512, 1024):
        for mem, comp in ((40.0, 10.0), (2.0, 400.0), (6.0, 6.0)):
            for coal in (1.0, 0.5, 0.0):
                out.append(
                    KernelCharacteristics(
                        name=f"k_b{block}_m{mem}_c{coal}",
                        threads=1 << 18,
                        block_size=block,
                        comp_insts_per_thread=comp,
                        mem_insts_per_thread=mem,
                        coalesced_fraction=coal,
                        registers_per_thread=32,
                        shared_mem_per_block=2048 if block == 256 else 0,
                        syncs_per_thread=4.0 if block == 64 else 0.0,
                    )
                )
    # Compute-only kernel (mem_insts at the synthesizer's epsilon floor).
    out.append(
        KernelCharacteristics(
            name="compute_only", threads=4096, block_size=128,
            comp_insts_per_thread=100.0, mem_insts_per_thread=1e-9,
        )
    )
    # Register-overflow and smem-overflow rows (illegal everywhere).
    out.append(
        KernelCharacteristics(
            name="reg_hog", threads=4096, block_size=512,
            comp_insts_per_thread=10.0, mem_insts_per_thread=10.0,
            registers_per_thread=124,
        )
    )
    out.append(
        KernelCharacteristics(
            name="smem_hog", threads=4096, block_size=128,
            comp_insts_per_thread=10.0, mem_insts_per_thread=10.0,
            shared_mem_per_block=1 << 20,
        )
    )
    return out


@pytest.mark.parametrize("arch_fn", ARCHES)
class TestScoreBatchEquivalence:
    def test_rowwise_bitwise_equal_to_scalar(self, arch_fn):
        model = GpuPerformanceModel(arch_fn())
        batch = chars_grid()
        seconds, legal = fused_seconds(model, columns(batch), ScoreArena())
        assert seconds.shape == (len(batch),)
        scored = 0
        for chars, row in zip(batch, seconds.tolist()):
            ref = scalar(model, chars)
            if isinstance(ref, str):
                assert row == float("inf")
                continue
            scored += 1
            # Seconds must match bit for bit, not approximately.
            assert row == ref.seconds
        assert legal == scored


class TestEdgeCases:
    def test_empty_batch(self):
        model = GpuPerformanceModel(quadro_fx_5600())
        seconds, legal = fused_seconds(model, columns([]), ScoreArena())
        assert seconds.shape == (0,)
        assert legal == 0

    def test_all_illegal_batch(self):
        model = GpuPerformanceModel(quadro_fx_5600())
        batch = [
            KernelCharacteristics(
                name="huge", threads=4096, block_size=1024,
                comp_insts_per_thread=1.0, mem_insts_per_thread=1.0,
            )
        ]
        seconds, legal = fused_seconds(model, columns(batch), ScoreArena())
        assert legal == 0
        assert seconds.tolist() == [float("inf")]
        assert "block size 1024" in scalar(model, batch[0])


class TestErrorMessages:
    """Illegal rows: the fused pass flags exactly the rows the scalar
    occupancy rejects, and the scalar model keeps the raise order."""

    @pytest.mark.parametrize("arch_fn", ARCHES)
    def test_matches_scalar_text_for_every_illegal_row(self, arch_fn):
        model = GpuPerformanceModel(arch_fn())
        chars_list = chars_grid()
        seconds, _legal = fused_seconds(
            model, columns(chars_list), ScoreArena()
        )
        illegal_seen = 0
        for chars, row in zip(chars_list, seconds.tolist()):
            ref = scalar(model, chars)
            if isinstance(ref, str):
                illegal_seen += 1
                assert row == float("inf"), ref
            else:
                assert row == ref.seconds
        assert illegal_seen > 0  # the grid must actually exercise this

    def test_block_error_wins_over_registers(self):
        # Violates the block limit AND the register file; the scalar
        # occupancy raises on the block size first.
        model = GpuPerformanceModel(quadro_fx_5600())
        chars = KernelCharacteristics(
            name="both", threads=4096, block_size=1024,
            comp_insts_per_thread=1.0, mem_insts_per_thread=1.0,
            registers_per_thread=124,
        )
        assert fused_argmin(model, columns([chars]), ScoreArena())[0] == -1
        with pytest.raises(ValueError, match="^block size 1024"):
            model.breakdown(chars)

    def test_register_error_wins_over_shared_memory(self):
        model = GpuPerformanceModel(quadro_fx_5600())
        chars = KernelCharacteristics(
            name="both", threads=4096, block_size=512,
            comp_insts_per_thread=1.0, mem_insts_per_thread=1.0,
            registers_per_thread=124, shared_mem_per_block=1 << 20,
        )
        assert fused_argmin(model, columns([chars]), ScoreArena())[0] == -1
        with pytest.raises(ValueError, match="registers per block"):
            model.breakdown(chars)

    def test_cannot_fit_reports_the_limiter(self):
        # No stock arch can reach the fit error (each limit hitting zero
        # implies a dedicated earlier error), so shrink the warp budget.
        arch = dataclasses.replace(quadro_fx_5600(), max_warps_per_sm=2)
        model = GpuPerformanceModel(arch)
        chars = KernelCharacteristics(
            name="wide", threads=4096, block_size=128,
            comp_insts_per_thread=1.0, mem_insts_per_thread=1.0,
        )
        assert fused_argmin(model, columns([chars]), ScoreArena())[0] == -1
        assert scalar(model, chars) == (
            "kernel 'wide' cannot fit one block per SM (limited by warps)"
        )


class TestFusedScoring:
    """The single-pass arena scorer vs the scalar model, row by row."""

    @pytest.mark.parametrize("arch_fn", ARCHES)
    def test_rowwise_equal_to_score_batch(self, arch_fn):
        model = GpuPerformanceModel(arch_fn())
        batch = chars_grid()
        arena = ScoreArena()
        seconds, legal = fused_seconds(model, columns(batch), arena)
        expected = [scalar(model, chars) for chars in batch]
        assert legal == sum(not isinstance(e, str) for e in expected)
        for row, ref in zip(seconds.tolist(), expected):
            if isinstance(ref, str):
                assert row == float("inf")
            else:
                assert row == ref.seconds  # bitwise

    def test_argmin_first_minimum(self):
        model = GpuPerformanceModel(quadro_fx_5600())
        batch = chars_grid()
        index, seconds, legal = fused_argmin(
            model, columns(batch), ScoreArena()
        )
        scored = [scalar(model, chars) for chars in batch]
        expected = min(
            (ref.seconds, i)
            for i, ref in enumerate(scored)
            if not isinstance(ref, str)
        )
        assert (seconds, index) == expected
        assert legal > 0

    def test_empty_columns(self):
        model = GpuPerformanceModel(quadro_fx_5600())
        assert fused_argmin(
            model, columns([]), ScoreArena()
        ) == (-1, float("inf"), 0)

    def test_single_candidate(self):
        model = GpuPerformanceModel(quadro_fx_5600())
        batch = [chars_grid()[0]]
        index, seconds, legal = fused_argmin(
            model, columns(batch), ScoreArena()
        )
        assert (index, legal) == (0, 1)
        assert seconds == model.breakdown(batch[0]).seconds

    def test_all_illegal_columns(self):
        model = GpuPerformanceModel(quadro_fx_5600())
        batch = [
            KernelCharacteristics(
                name="huge", threads=4096, block_size=1024,
                comp_insts_per_thread=1.0, mem_insts_per_thread=1.0,
            )
        ]
        assert fused_argmin(
            model, columns(batch), ScoreArena()
        ) == (-1, float("inf"), 0)

    def test_arena_reuse_is_stable(self):
        # Same arena, different batch sizes: buffers grow once and the
        # results of a repeated pass stay bitwise identical.
        model = GpuPerformanceModel(quadro_fx_5600())
        arena = ScoreArena()
        big = columns(chars_grid())
        small = columns(chars_grid()[:5])
        first = fused_seconds(model, big, arena)[0].copy()
        fused_seconds(model, small, arena)
        grown = arena.nbytes()
        second = fused_seconds(model, big, arena)[0]
        assert np.array_equal(first, second)
        assert arena.nbytes() == grown  # steady state: no new buffers
