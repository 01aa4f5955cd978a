"""The linear transfer-time model ``T(d) = alpha + beta * d``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.datausage.transfers import Direction, TransferPlan
from repro.util.fingerprint import memoized, stable_digest
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class LinearTransferModel:
    """Equation 1 of the paper: ``T(d) = alpha + beta * d``.

    ``alpha`` (seconds) is the fixed per-transfer latency — the time to
    send the first byte; ``beta`` (seconds/byte) is the inverse of the
    sustained bandwidth.  For small transfers (<1 KB) the alpha term
    dominates; above ~1 MB the beta term does.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        check_non_negative("alpha", self.alpha)
        check_positive("beta", self.beta)

    @property
    def bandwidth(self) -> float:
        """Sustained bandwidth in bytes/second (``1 / beta``)."""
        return 1.0 / self.beta

    def predict(self, size_bytes: float) -> float:
        """Predicted transfer time in seconds for ``size_bytes``."""
        check_non_negative("size_bytes", size_bytes)
        return self.alpha + self.beta * size_bytes

    def predict_many(self, sizes: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`predict`."""
        arr = np.asarray(sizes, dtype=float)
        if (arr < 0).any():
            raise ValueError("transfer sizes must be non-negative")
        return self.alpha + self.beta * arr

    # Fitting -----------------------------------------------------------------
    @staticmethod
    def from_two_points(
        t_small: float, t_large: float, large_size: int
    ) -> "LinearTransferModel":
        """The paper's 2-measurement fit.

        ``alpha = t_small`` (the 1-byte time) and ``beta = t_large /
        large_size``.  The single byte inside ``t_small`` and the alpha
        inside ``t_large`` are both negligible at the scales used (10 us
        vs 200 ms), which is why the paper doesn't bother subtracting
        them.
        """
        check_positive("t_small", t_small)
        check_positive("t_large", t_large)
        check_positive("large_size", large_size)
        return LinearTransferModel(alpha=t_small, beta=t_large / large_size)

    @staticmethod
    def least_squares(
        sizes: Sequence[float], times: Sequence[float]
    ) -> "LinearTransferModel":
        """Ordinary least-squares fit over a full sweep (ablation baseline).

        Note this is *worse* than the 2-point fit for the paper's purpose:
        unweighted OLS over sizes spanning nine orders of magnitude is
        dominated by the largest transfers and can produce a negative
        intercept; we clamp alpha at the smallest observed time's scale.
        """
        sizes_arr = np.asarray(sizes, dtype=float)
        times_arr = np.asarray(times, dtype=float)
        if sizes_arr.shape != times_arr.shape or sizes_arr.ndim != 1:
            raise ValueError("sizes and times must be equal-length 1-D")
        if sizes_arr.size < 2:
            raise ValueError("least squares needs at least two points")
        a = np.vstack([np.ones_like(sizes_arr), sizes_arr]).T
        (alpha, beta), *_ = np.linalg.lstsq(a, times_arr, rcond=None)
        alpha = max(float(alpha), 0.0)
        beta = float(beta)
        if beta <= 0:
            raise ValueError("fit produced non-positive bandwidth")
        return LinearTransferModel(alpha=alpha, beta=beta)

    def to_dict(self) -> dict[str, float]:
        return {"alpha": self.alpha, "beta": self.beta}

    @staticmethod
    def from_dict(data: Mapping[str, float]) -> "LinearTransferModel":
        return LinearTransferModel(float(data["alpha"]), float(data["beta"]))

    @memoized
    def fingerprint(self) -> str:
        """Stable content hash of the fitted (alpha, beta) pair."""
        return stable_digest(self.to_dict())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"T(d) = {self.alpha * 1e6:.2f}us + d / "
            f"{self.bandwidth / 1e9:.2f}GB/s"
        )


@dataclass(frozen=True)
class BusModel:
    """A calibrated bus: one linear model per transfer direction.

    The paper calibrates H2D and D2H separately (their bandwidths differ
    on real hardware; see Fig. 2's two panels).
    """

    h2d: LinearTransferModel
    d2h: LinearTransferModel

    def for_direction(self, direction: Direction) -> LinearTransferModel:
        return self.h2d if direction is Direction.H2D else self.d2h

    @memoized
    def fingerprint(self) -> str:
        """Stable content hash over both directions' (alpha, beta).

        Any recalibration — a different alpha or beta in either direction
        — changes the digest, so the projection service never serves a
        result computed against a stale bus model.
        """
        return stable_digest(
            {"h2d": self.h2d.to_dict(), "d2h": self.d2h.to_dict()}
        )

    def predict_transfer(self, size_bytes: float, direction: Direction) -> float:
        return self.for_direction(direction).predict(size_bytes)

    def predict_plan(self, plan: TransferPlan) -> float:
        """Total predicted transfer time of a plan.

        Each array is transferred separately (one alpha each), matching
        the paper's assumption in Section III-B.
        """
        return sum(
            self.for_direction(t.direction).predict(t.bytes)
            for t in plan.transfers
        )

    def predict_plan_by_transfer(self, plan: TransferPlan) -> list[float]:
        """Per-transfer predicted times, in plan order (Fig. 5 needs this)."""
        return [
            self.for_direction(t.direction).predict(t.bytes)
            for t in plan.transfers
        ]
