"""Stassuij: sparse x dense complex multiply from Green's Function MC.

The core of the GFMC light-nuclei code: a 132x132 sparse real matrix (CSR,
three vectors) applied to a 132x2048 dense matrix of complex numbers,
accumulating into the output (``Y += A @ X``).  A single kernel; the
application is *not* iterative in the paper's experiments.

This is the paper's decisive case: kernel-only prediction says the GPU
wins (1.10x); with transfer time charged, both the measured and predicted
speedups are ~0.4x — an overall slowdown.  The misprediction is not just a
magnitude error, it flips the porting decision.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.model import CpuWorkProfile
from repro.datausage.hints import AnalysisHints, SparseExtentHint
from repro.skeleton.arrays import ArrayKind
from repro.skeleton.builder import KernelBuilder, ProgramBuilder
from repro.skeleton.program import ProgramSkeleton
from repro.skeleton.types import DType
from repro.workloads.base import Dataset, TestbedTargets, Workload

_ROWS = 132
_NNZ_PER_ROW = 30  # ~23% density, giving nnz = 3960
_COMPLEX_FLOPS = 2  # one multiply-accumulate in complex terms


class Stassuij(Workload):
    name = "Stassuij"
    description = (
        "sparse(132x132, CSR) x dense(132xN complex128) multiply "
        "from Green's Function Monte Carlo"
    )

    def datasets(self) -> tuple[Dataset, ...]:
        # ``size`` is the dense column count; the paper uses 2048.
        return (Dataset("132 x 2048", 2048),)

    @property
    def is_iterative(self) -> bool:
        return False

    @property
    def nnz(self) -> int:
        return _ROWS * _NNZ_PER_ROW

    # --- skeleton ------------------------------------------------------------
    def skeleton(self, dataset: Dataset) -> ProgramSkeleton:
        cols = dataset.size
        nnz = self.nnz
        pb = ProgramBuilder(f"stassuij-{dataset.label.replace(' ', '')}")
        pb.array("csr_vals", (nnz,), DType.float64, ArrayKind.SPARSE)
        pb.array("csr_cols", (nnz,), DType.int32, ArrayKind.SPARSE)
        pb.array("csr_rowptr", (_ROWS + 1,), DType.int32)
        pb.array("x", (_ROWS, cols), DType.complex128)
        pb.array("y", (_ROWS, cols), DType.complex128)

        kb = KernelBuilder("spmm")
        kb.parallel_loop("r", _ROWS)
        kb.parallel_loop("j", cols)
        kb.loop("k", _NNZ_PER_ROW)
        # Row metadata, read once per (row, nonzero) — shared across the
        # dense columns (imperfect nest -> amortized statement).
        kb.load("csr_vals", "k").load("csr_cols", "k")
        kb.statement(flops=0, label="fetch-nonzero", amortize=("r", "k"))
        # The gather of x: the row index is data-dependent (csr_cols[k])
        # but columns stay contiguous across threads -> coalesced.
        kb.gather("x", "k", "j", dims=(0,))
        kb.statement(flops=_COMPLEX_FLOPS, label="multiply-accumulate")
        # y is read and written once per (row, column); the row-pointer
        # pair is fetched once per row.
        kb.load("y", "r", "j").store("y", "r", "j")
        kb.load("csr_rowptr", "r").load("csr_rowptr", ("r", 1, 1))
        kb.statement(flops=0, label="accumulate-out", amortize=("r", "j"))
        return pb.kernel(kb).build()

    def hints(self, dataset: Dataset) -> AnalysisHints:
        """The user knows the nnz of the sparse operand (Section III-B)."""
        return AnalysisHints(
            sparse_extents=(
                SparseExtentHint("csr_vals", self.nnz),
                SparseExtentHint("csr_cols", self.nnz),
            )
        )

    def cpu_profile(self, dataset: Dataset) -> CpuWorkProfile:
        cols = dataset.size
        # 8 real flops per complex MAC per (nonzero, column).
        flops = 8 * self.nnz * cols
        # Traffic: x rows gathered per nonzero (cache holds the 132-row
        # panel poorly at 2048 columns), y streamed in/out.
        bytes_moved = (self.nnz * cols + 2 * _ROWS * cols) * 16
        return CpuWorkProfile(
            name=f"stassuij-{dataset.label}",
            bytes_moved=bytes_moved,
            flops=flops,
            efficiency=1.0,
        )

    # --- reference implementation ------------------------------------------
    def make_inputs(
        self, dataset: Dataset, rng: np.random.Generator
    ) -> dict[str, np.ndarray]:
        cols = dataset.size
        nnz = self.nnz
        # Exactly _NNZ_PER_ROW nonzeros per row, distinct columns.
        col_idx = np.empty((_ROWS, _NNZ_PER_ROW), dtype=np.int32)
        for r in range(_ROWS):
            col_idx[r] = rng.choice(_ROWS, size=_NNZ_PER_ROW, replace=False)
        rowptr = np.arange(_ROWS + 1, dtype=np.int32) * _NNZ_PER_ROW
        real = rng.standard_normal((_ROWS, cols))
        imag = rng.standard_normal((_ROWS, cols))
        y_real = rng.standard_normal((_ROWS, cols))
        y_imag = rng.standard_normal((_ROWS, cols))
        return {
            "csr_vals": rng.standard_normal(nnz),
            "csr_cols": col_idx.reshape(-1),
            "csr_rowptr": rowptr,
            "x": (real + 1j * imag).astype(np.complex128),
            "y": (y_real + 1j * y_imag).astype(np.complex128),
        }

    def run_reference(
        self, inputs: dict[str, np.ndarray], iterations: int = 1
    ) -> dict[str, np.ndarray]:
        if iterations != 1:
            raise ValueError("Stassuij is not iterative")
        # Imported here, not at module level: only this NumPy reference
        # needs scipy, and importing it costs every process megabytes.
        import scipy.sparse as sp

        a = sp.csr_matrix(
            (
                inputs["csr_vals"],
                inputs["csr_cols"],
                inputs["csr_rowptr"],
            ),
            shape=(_ROWS, _ROWS),
        )
        y = inputs["y"] + a @ inputs["x"]
        return {"y": np.asarray(y, dtype=np.complex128)}

    # --- testbed calibration ----------------------------------------------
    def testbed_targets(self, dataset: Dataset) -> TestbedTargets:
        # Table I: kernel 2.4 ms.  CPU anchor 2.85 ms, back-derived from
        # the paper's kernel-only predicted speedup of 1.10x against the
        # measured 0.39x overall speedup (Section V-B.4).
        return TestbedTargets(
            kernel_seconds=2.4e-3,
            cpu_seconds=2.85e-3,
        )
