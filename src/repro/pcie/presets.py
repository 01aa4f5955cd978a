"""Bus-model presets for later PCIe generations (what-if analyses).

The paper (Section II-B) quotes effective PCIe bandwidths of ~3, 6, and
12 GB/s for generations 1, 2, and 3.  The testbed calibrates generation 1
empirically; these analytic presets let users ask how the conclusions
shift on newer buses without a testbed for them.
"""

from __future__ import annotations

from repro.pcie.model import BusModel, LinearTransferModel
from repro.util.units import us


def pcie_gen1_bus() -> BusModel:
    """Nominal PCIe v1 x16 (the paper's bus class, ~2.5-3 GB/s)."""
    return BusModel(
        h2d=LinearTransferModel(alpha=us(10), beta=1 / 2.5e9),
        d2h=LinearTransferModel(alpha=us(9), beta=1 / 2.6e9),
    )


def pcie_gen2_bus() -> BusModel:
    """Nominal PCIe v2 x16 (~6 GB/s effective, slightly lower latency)."""
    return BusModel(
        h2d=LinearTransferModel(alpha=us(8), beta=1 / 6.0e9),
        d2h=LinearTransferModel(alpha=us(8), beta=1 / 6.2e9),
    )


def pcie_gen3_bus() -> BusModel:
    """Nominal PCIe v3 x16 (~12 GB/s effective)."""
    return BusModel(
        h2d=LinearTransferModel(alpha=us(7), beta=1 / 12.0e9),
        d2h=LinearTransferModel(alpha=us(7), beta=1 / 12.3e9),
    )


_FACTORIES = {1: pcie_gen1_bus, 2: pcie_gen2_bus, 3: pcie_gen3_bus}
_BUS_CACHE: dict[int, BusModel] = {}


def bus_for_generation(generation: int) -> BusModel:
    """Bus model for PCIe generation 1, 2, or 3 (cached, so repeat
    lookups return the identical object and its memoized fingerprint)."""
    if generation not in _FACTORIES:
        raise ValueError(
            f"unknown PCIe generation {generation}; know {sorted(_FACTORIES)}"
        )
    if generation not in _BUS_CACHE:
        _BUS_CACHE[generation] = _FACTORIES[generation]()
    return _BUS_CACHE[generation]
