"""GPU architecture parameters.

The preset :func:`quadro_fx_5600` mirrors the G80-class machine parameters
published with the MWP/CWP model (Hong & Kim, ISCA'09, Table 3), which is
the very GPU in the paper's Argonne testbed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.util.fingerprint import memoized, stable_digest
from repro.util.validation import check_positive


@dataclass(frozen=True)
class GPUArchitecture:
    """Static machine description consumed by the analytical model."""

    name: str
    num_sms: int
    clock_ghz: float  # shader (SP) clock
    warp_size: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_warps_per_sm: int
    registers_per_sm: int
    shared_mem_per_sm: int  # bytes
    mem_bandwidth: float  # bytes/second, theoretical peak
    mem_latency_cycles: float  # Mem_LD: DRAM round-trip in SP cycles
    departure_del_coal: float  # cycles between coalesced mem warps
    departure_del_uncoal: float  # cycles between uncoalesced transactions
    issue_cycles: float  # SP cycles to issue one warp instruction
    coalesced_bytes_per_warp: int  # bytes one coalesced warp load moves
    uncoal_transactions_per_warp: int  # memory transactions if uncoalesced
    sync_cycles: float = 0.0  # extra cycles per __syncthreads()
    #: Compute-1.0 coalescing rules: misaligned accesses serialize.
    strict_coalescing: bool = True

    def __post_init__(self) -> None:
        for field_name in (
            "num_sms",
            "clock_ghz",
            "warp_size",
            "max_threads_per_sm",
            "max_blocks_per_sm",
            "max_warps_per_sm",
            "registers_per_sm",
            "shared_mem_per_sm",
            "mem_bandwidth",
            "mem_latency_cycles",
            "departure_del_coal",
            "departure_del_uncoal",
            "issue_cycles",
            "coalesced_bytes_per_warp",
            "uncoal_transactions_per_warp",
        ):
            check_positive(field_name, getattr(self, field_name))

    @memoized
    def fingerprint(self) -> str:
        """Stable content hash over every machine parameter.

        Any change to any field — SM count, clocks, latencies, coalescing
        rules — yields a different digest; the projection service keys
        cached results on it.
        """
        return stable_digest(dataclasses.asdict(self))

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def total_threads(self) -> int:
        """Maximum concurrently resident threads on the whole device."""
        return self.num_sms * self.max_threads_per_sm

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.num_sms} SMs @ {self.clock_ghz}GHz, "
            f"{self.mem_bandwidth / 1e9:.1f}GB/s"
        )


def quadro_fx_5600() -> GPUArchitecture:
    """The paper's GPU: NVIDIA Quadro FX 5600 (G80, PCIe v1 board).

    Parameters follow Hong & Kim's published FX 5600 numbers: 16 SMs at
    1.35 GHz, 420-cycle memory latency, departure delays of 4 (coalesced)
    and 10 (uncoalesced) cycles.  ``mem_bandwidth`` is the
    microbenchmark-*sustained* bandwidth (~81% of the 76.8 GB/s
    theoretical peak) — the MWP peak-bandwidth bound is meaningless
    against a number no kernel can reach.  G80 coalesces per 16-thread
    half-warp into 64 B segments, so a fully coalesced float warp load
    moves 128 B; a fully uncoalesced one issues 32 separate transactions.
    """
    return GPUArchitecture(
        name="Quadro FX 5600",
        num_sms=16,
        clock_ghz=1.35,
        warp_size=32,
        max_threads_per_sm=768,
        max_blocks_per_sm=8,
        max_warps_per_sm=24,
        registers_per_sm=8192,
        shared_mem_per_sm=16 * 1024,
        mem_bandwidth=62.0e9,
        mem_latency_cycles=420.0,
        departure_del_coal=4.0,
        departure_del_uncoal=10.0,
        issue_cycles=4.0,
        coalesced_bytes_per_warp=128,
        uncoal_transactions_per_warp=32,
        sync_cycles=28.0,
        strict_coalescing=True,
    )


def tesla_c1060() -> GPUArchitecture:
    """Tesla C1060 (GT200 compute variant): the HPC board of the era.

    Compute capability 1.3: relaxed coalescing, 30 SMs at a slightly
    lower clock than the GTX 280, 102 GB/s theoretical (here sustained
    ~82).
    """
    return GPUArchitecture(
        name="Tesla C1060",
        num_sms=30,
        clock_ghz=1.296,
        warp_size=32,
        max_threads_per_sm=1024,
        max_blocks_per_sm=8,
        max_warps_per_sm=32,
        registers_per_sm=16384,
        shared_mem_per_sm=16 * 1024,
        mem_bandwidth=82.0e9,  # sustained (~80% of 102 theoretical)
        mem_latency_cycles=450.0,
        departure_del_coal=4.0,
        departure_del_uncoal=40.0,
        issue_cycles=4.0,
        coalesced_bytes_per_warp=128,
        uncoal_transactions_per_warp=32,
        sync_cycles=28.0,
        strict_coalescing=False,
    )


def gtx_280() -> GPUArchitecture:
    """A GT200-class alternative preset (for cross-architecture what-ifs)."""
    return GPUArchitecture(
        name="GeForce GTX 280",
        num_sms=30,
        clock_ghz=1.296,
        warp_size=32,
        max_threads_per_sm=1024,
        max_blocks_per_sm=8,
        max_warps_per_sm=32,
        registers_per_sm=16384,
        shared_mem_per_sm=16 * 1024,
        mem_bandwidth=114.0e9,  # sustained (~80% of 141.7 theoretical)
        mem_latency_cycles=450.0,
        departure_del_coal=4.0,
        departure_del_uncoal=40.0,
        issue_cycles=4.0,
        coalesced_bytes_per_warp=128,
        uncoal_transactions_per_warp=32,
        sync_cycles=28.0,
        strict_coalescing=False,  # compute 1.3 relaxed coalescing
    )
