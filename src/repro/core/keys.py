"""Cache keys: the one place that decides what counts as the same content.

Every cache tier keys through this module, from the memoized component
digests (``fingerprint()``) of its immutable inputs: the request cache
by :func:`request_key`, the kernel cache by :func:`kernel_key`, and the
plan store and the surrogate's templates by :func:`plan_key`.  Three
rules hold at every tier:

- The program digest covers everything an analysis reads: kernel,
  statement and access order, and array declaration order (the data
  usage analyzer lists transfers in it).  The kernel digest names only
  the arrays a kernel touches, sorted, so programs that declare them in
  another order share its entries.
- ``hints=None`` and :meth:`AnalysisHints.none` are the same content.
- Only the request key outlives the process (disk entries, daemon
  records), so only it is a digest and carries :data:`KEY_FORMAT`.  The
  in-memory keys are tuples of the component digests, so building one
  hashes nothing new.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.datausage.hints import AnalysisHints
from repro.util.fingerprint import stable_digest

if TYPE_CHECKING:
    from repro.gpu.arch import GPUArchitecture
    from repro.pcie.model import BusModel
    from repro.skeleton.program import ProgramSkeleton
    from repro.transform.space import TransformationSpace

#: Request-key schema version; bump when the key derivation changes.
#: 2: the program digest keeps statement order.  3: it keeps array
#: declaration and access order too (format-2 keys collided for programs
#: whose transfer lists, or float sums, differ).
KEY_FORMAT = 3


def hints_digest(hints: AnalysisHints | None) -> str:
    """The hints digest, with ``None`` read as :meth:`AnalysisHints.none`."""
    return (hints or AnalysisHints.none()).fingerprint()


def request_key(
    program: ProgramSkeleton,
    hints: AnalysisHints | None,
    arch: GPUArchitecture,
    bus: BusModel,
    space: TransformationSpace,
    batched: bool,
) -> str:
    """The persisted request-cache key: everything a summary depends on
    (never the iteration count, the CPU time or the explorer)."""
    return stable_digest(
        {
            "format": KEY_FORMAT,
            "skeleton": program.fingerprint(),
            "hints": hints_digest(hints),
            "arch": arch.fingerprint(),
            "bus": bus.fingerprint(),
            "space": space.fingerprint(),
            "options": {"batched_transfers": bool(batched)},
        }
    )


def kernel_key(
    kernel_digest: str,
    arch: GPUArchitecture,
    space: TransformationSpace,
) -> tuple[str, str, str]:
    """The kernel-cache key: everything one exploration reads — never
    the bus.  ``kernel_digest`` is one of the memoized
    :meth:`~repro.skeleton.program.ProgramSkeleton.kernel_fingerprints`."""
    return (kernel_digest, arch.fingerprint(), space.fingerprint())


def plan_key(
    program: ProgramSkeleton,
    hints: AnalysisHints | None,
    batched: bool,
) -> tuple[str, str, bool]:
    """The program-plan key of the plan store and the surrogate's
    templates: what the data usage analyzer reads."""
    return (program.fingerprint(), hints_digest(hints), bool(batched))


def model_key(
    arch: GPUArchitecture, space: TransformationSpace
) -> tuple[str, str]:
    """The (arch, space) digests a surrogate model is pinned to."""
    return (arch.fingerprint(), space.fingerprint())
