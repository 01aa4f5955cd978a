"""Prediction provenance: *why* a projection says what it says.

The paper's core claim is attributional — ignoring data transfer
mis-ranks GPU speedups — so a projection is only trustworthy if you can
see where the predicted time comes from.  A
:class:`ProjectionProvenance` answers that for one projection:

- per kernel: the winning mapping, its MWP/CWP regime and values, the
  runner-up mapping and its gap, and how the search width splits into
  explored / illegal-skipped configurations;
- per transfer: the array, direction, bytes, and the ``α + β·d`` split
  of its predicted time (fixed latency vs. bandwidth term);
- overall: the kernel-vs-transfer share of the one-iteration total.

Exactness invariants (asserted by ``tests/obs/test_provenance.py`` and
the acceptance criteria): the per-kernel seconds sum to
``kernel_seconds`` bit-for-bit, the per-transfer seconds to
``transfer_seconds``, each transfer's ``alpha_seconds +
beta_seconds`` to its ``seconds``, and ``kernel_seconds +
transfer_seconds + setup_seconds`` to ``total_seconds`` — every sum is
computed once, in the same order the projection itself used, and stored.

The record round-trips exactly through ``to_dict``/``from_dict`` (and
JSON), so it can ride along inside a cached
:class:`~repro.core.serialize.ProjectionSummary`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.pcie.model import BusModel
from repro.util.validation import check_non_negative

if TYPE_CHECKING:  # circular at runtime: core.prediction -> ... -> obs
    from repro.core.prediction import Projection


@dataclass(frozen=True)
class KernelProvenance:
    """Why one kernel's projected time is what it is."""

    name: str
    best_mapping: str
    regime: str
    mwp: float
    cwp: float
    seconds: float
    #: Second-fastest explored mapping and how far behind it was;
    #: ``None``/``nan`` when the search produced a single candidate.
    runner_up_mapping: str | None
    runner_up_gap_seconds: float | None
    configs_explored: int
    configs_skipped: int

    def __post_init__(self) -> None:
        check_non_negative("seconds", self.seconds)
        check_non_negative("configs_explored", self.configs_explored)
        check_non_negative("configs_skipped", self.configs_skipped)

    @property
    def search_width(self) -> int:
        return self.configs_explored + self.configs_skipped

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "best_mapping": self.best_mapping,
            "regime": self.regime,
            "mwp": self.mwp,
            "cwp": self.cwp,
            "seconds": self.seconds,
            "runner_up_mapping": self.runner_up_mapping,
            "runner_up_gap_seconds": self.runner_up_gap_seconds,
            "configs_explored": self.configs_explored,
            "configs_skipped": self.configs_skipped,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "KernelProvenance":
        runner_up = data["runner_up_mapping"]
        gap = data["runner_up_gap_seconds"]
        return KernelProvenance(
            name=str(data["name"]),
            best_mapping=str(data["best_mapping"]),
            regime=str(data["regime"]),
            mwp=float(data["mwp"]),
            cwp=float(data["cwp"]),
            seconds=float(data["seconds"]),
            runner_up_mapping=(
                None if runner_up is None else str(runner_up)
            ),
            runner_up_gap_seconds=None if gap is None else float(gap),
            configs_explored=int(data["configs_explored"]),
            configs_skipped=int(data["configs_skipped"]),
        )


@dataclass(frozen=True)
class TransferProvenance:
    """One bus crossing with its ``T(d) = α + β·d`` decomposition."""

    array: str
    direction: str  # "H2D" | "D2H"
    bytes: int
    seconds: float
    #: The model's fixed per-transfer latency term (α).
    alpha_seconds: float
    #: The bandwidth term (β·d); ``alpha + beta == seconds`` exactly.
    beta_seconds: float
    conservative: bool

    def __post_init__(self) -> None:
        if self.direction not in ("H2D", "D2H"):
            raise ValueError(
                f"direction must be 'H2D' or 'D2H', got {self.direction!r}"
            )
        check_non_negative("seconds", self.seconds)
        check_non_negative("alpha_seconds", self.alpha_seconds)
        check_non_negative("beta_seconds", self.beta_seconds)

    def to_dict(self) -> dict[str, Any]:
        return {
            "array": self.array,
            "direction": self.direction,
            "bytes": self.bytes,
            "seconds": self.seconds,
            "alpha_seconds": self.alpha_seconds,
            "beta_seconds": self.beta_seconds,
            "conservative": self.conservative,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TransferProvenance":
        return TransferProvenance(
            array=str(data["array"]),
            direction=str(data["direction"]),
            bytes=int(data["bytes"]),
            seconds=float(data["seconds"]),
            alpha_seconds=float(data["alpha_seconds"]),
            beta_seconds=float(data["beta_seconds"]),
            conservative=bool(data["conservative"]),
        )


@dataclass(frozen=True)
class ServingProvenance:
    """Which serving path answered a query, and why.

    Attached by the surrogate front-end
    (:class:`~repro.surrogate.engine.SurrogateEngine`) to every response
    it serves: ``path`` is ``"surrogate"`` when the learned model
    answered and ``"exact"`` when the query ran through the exact
    fused pipeline; ``reason`` says why that path was chosen
    (``accepted``, ``low_confidence``, ``out_of_domain``, ``requested``,
    ``arch_mismatch``, ``space_mismatch``, ``provenance``); and
    ``confidence`` is the calibrated accuracy estimate when the model
    scored the query (``None`` when it never did).
    """

    path: str  # "surrogate" | "exact"
    reason: str
    confidence: float | None = None
    model_arch: str | None = None

    def __post_init__(self) -> None:
        if self.path not in ("surrogate", "exact"):
            raise ValueError(
                f"path must be 'surrogate' or 'exact', got {self.path!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"path": self.path, "reason": self.reason}
        if self.confidence is not None:
            record["confidence"] = self.confidence
        if self.model_arch is not None:
            record["model_arch"] = self.model_arch
        return record

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ServingProvenance":
        confidence = data.get("confidence")
        model_arch = data.get("model_arch")
        return ServingProvenance(
            path=str(data["path"]),
            reason=str(data["reason"]),
            confidence=None if confidence is None else float(confidence),
            model_arch=None if model_arch is None else str(model_arch),
        )


@dataclass(frozen=True)
class ProjectionProvenance:
    """The full explanation of one projection's bottom line."""

    program: str
    kernel_seconds: float
    transfer_seconds: float
    setup_seconds: float
    #: ``kernel_seconds + transfer_seconds + setup_seconds``, stored so
    #: consumers can verify the components sum to it *exactly*.
    total_seconds: float
    kernels: tuple[KernelProvenance, ...]
    transfers: tuple[TransferProvenance, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "transfers", tuple(self.transfers))
        check_non_negative("kernel_seconds", self.kernel_seconds)
        check_non_negative("transfer_seconds", self.transfer_seconds)
        check_non_negative("setup_seconds", self.setup_seconds)
        check_non_negative("total_seconds", self.total_seconds)

    # Shares ---------------------------------------------------------------
    @property
    def kernel_share(self) -> float:
        """Kernel fraction of the one-iteration total (0 when empty)."""
        if not self.total_seconds:
            return 0.0
        return self.kernel_seconds / self.total_seconds

    @property
    def transfer_share(self) -> float:
        """Transfer fraction of the one-iteration total (0 when empty)."""
        if not self.total_seconds:
            return 0.0
        return self.transfer_seconds / self.total_seconds

    @property
    def alpha_seconds(self) -> float:
        """Total fixed-latency (α) share of the transfer time."""
        return sum(t.alpha_seconds for t in self.transfers)

    @property
    def beta_seconds(self) -> float:
        """Total bandwidth (β·d) share of the transfer time."""
        return sum(t.beta_seconds for t in self.transfers)

    @property
    def configs_explored(self) -> int:
        return sum(k.configs_explored for k in self.kernels)

    # Round-trip -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.program,
            "kernel_seconds": self.kernel_seconds,
            "transfer_seconds": self.transfer_seconds,
            "setup_seconds": self.setup_seconds,
            "total_seconds": self.total_seconds,
            "kernels": [k.to_dict() for k in self.kernels],
            "transfers": [t.to_dict() for t in self.transfers],
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ProjectionProvenance":
        return ProjectionProvenance(
            program=str(data["program"]),
            kernel_seconds=float(data["kernel_seconds"]),
            transfer_seconds=float(data["transfer_seconds"]),
            setup_seconds=float(data["setup_seconds"]),
            total_seconds=float(data["total_seconds"]),
            kernels=tuple(
                KernelProvenance.from_dict(k) for k in data["kernels"]
            ),
            transfers=tuple(
                TransferProvenance.from_dict(t) for t in data["transfers"]
            ),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ProjectionProvenance":
        return ProjectionProvenance.from_dict(json.loads(text))

    # Presentation ---------------------------------------------------------
    def explain(self) -> str:
        """Human-readable account — the ``repro trace`` CLI prints this."""
        lines = [f"provenance for {self.program}:"]
        lines.append(
            f"  total {self.total_seconds * 1e3:.3f} ms = kernel "
            f"{self.kernel_seconds * 1e3:.3f} ms "
            f"({self.kernel_share:.0%}) + transfer "
            f"{self.transfer_seconds * 1e3:.3f} ms "
            f"({self.transfer_share:.0%})"
            + (
                f" + setup {self.setup_seconds * 1e3:.3f} ms"
                if self.setup_seconds
                else ""
            )
        )
        lines.append("  kernels (why each winner won):")
        for k in self.kernels:
            lines.append(
                f"    {k.name:<20} {k.best_mapping:<16} "
                f"{k.seconds * 1e6:10.1f} us  {k.regime} "
                f"(MWP={k.mwp:.1f}, CWP={k.cwp:.1f})"
            )
            if k.runner_up_mapping is not None:
                gap = k.runner_up_gap_seconds or 0.0
                lines.append(
                    f"      runner-up {k.runner_up_mapping} "
                    f"+{gap * 1e6:.1f} us behind; "
                    f"{k.configs_explored} explored, "
                    f"{k.configs_skipped} illegal"
                )
            else:
                lines.append(
                    f"      sole candidate; {k.configs_skipped} illegal"
                )
        if self.transfers:
            lines.append(
                f"  transfers (alpha "
                f"{self.alpha_seconds * 1e3:.3f} ms latency + beta "
                f"{self.beta_seconds * 1e3:.3f} ms bandwidth):"
            )
            for t in self.transfers:
                tag = " [conservative]" if t.conservative else ""
                lines.append(
                    f"    {t.direction} {t.array:<16} "
                    f"{t.bytes / 2**20:8.2f} MB  "
                    f"{t.seconds * 1e3:8.3f} ms "
                    f"(a {t.alpha_seconds * 1e6:.1f} us + b·d "
                    f"{t.beta_seconds * 1e3:.3f} ms){tag}"
                )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"provenance[{self.program}]: kernel {self.kernel_share:.0%} "
            f"/ transfer {self.transfer_share:.0%} of "
            f"{self.total_seconds * 1e3:.3f} ms"
        )


def _runner_up(kp) -> tuple[str | None, float | None]:
    """Second-best candidate's (mapping label, gap) — None when alone.

    The explorer keeps the ranking's head, fastest first with ties in
    grid order, so the runner-up is simply ``candidates[1]``.
    """
    if len(kp.candidates) < 2:
        return None, None
    best, runner = kp.candidates[0], kp.candidates[1]
    gap = runner.seconds - best.seconds
    # Guard degenerate float cases; the gap is >= 0 by best-ness.
    return runner.config.label(), (gap if math.isfinite(gap) else None)


def build_provenance(
    projection: Projection, bus: BusModel
) -> ProjectionProvenance:
    """Derive the provenance record of ``projection`` under ``bus``.

    ``bus`` must be the model that priced the projection — the α/β split
    is reconstructed from it, and ``alpha + beta*d`` re-computes the
    identical float the projection's per-transfer seconds hold (the same
    expression the model evaluated; the builder asserts it).
    """
    kernels = []
    for kp in projection.kernels.kernels:
        runner_mapping, runner_gap = _runner_up(kp)
        breakdown = kp.best.breakdown
        kernels.append(
            KernelProvenance(
                name=kp.kernel,
                best_mapping=kp.best.config.label(),
                regime=breakdown.regime,
                mwp=breakdown.mwp,
                cwp=breakdown.cwp,
                seconds=kp.seconds,
                runner_up_mapping=runner_mapping,
                runner_up_gap_seconds=runner_gap,
                configs_explored=kp.explored,
                configs_skipped=kp.skipped,
            )
        )
    transfers = []
    for transfer, seconds in zip(
        projection.plan.transfers, projection.per_transfer_seconds
    ):
        model = bus.for_direction(transfer.direction)
        alpha = model.alpha
        beta_part = model.beta * transfer.bytes
        if alpha + beta_part != seconds:
            raise ValueError(
                f"bus does not reproduce the projection's transfer time "
                f"for {transfer.array!r} {transfer.direction.short}: "
                f"{alpha + beta_part!r} != {seconds!r} — pass the bus "
                f"that priced the projection"
            )
        transfers.append(
            TransferProvenance(
                array=transfer.array,
                direction=transfer.direction.short,
                bytes=transfer.bytes,
                seconds=seconds,
                alpha_seconds=alpha,
                beta_seconds=beta_part,
                conservative=transfer.conservative,
            )
        )
    return ProjectionProvenance(
        program=projection.program,
        kernel_seconds=projection.kernel_seconds,
        transfer_seconds=projection.transfer_seconds,
        setup_seconds=projection.setup_seconds,
        total_seconds=projection.total_seconds(1),
        kernels=tuple(kernels),
        transfers=tuple(transfers),
    )
