"""Program skeletons: an ordered sequence of kernels over shared arrays."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.skeleton.arrays import ArrayDecl
from repro.skeleton.kernel import KernelSkeleton
from repro.util.fingerprint import memoized, stable_digest


def _index_payload(index) -> dict[str, Any]:
    return {
        "coeffs": sorted(index.coeffs.items()),
        "offset": index.offset,
    }


def _access_payload(access) -> dict[str, Any]:
    return {
        "array": access.array,
        "indices": [_index_payload(i) for i in access.indices],
        "kind": access.kind.value,
        "indirect": access.indirect,
        "indirect_dims": list(access.indirect_dims),
    }


def _statement_payload(statement) -> dict[str, Any]:
    # ``label`` is cosmetic, so it does not participate.  Access order
    # does: kernel analysis sums per-access floats in it, so a reordered
    # statement can price a kernel differently in the last bit.
    return {
        "accesses": [_access_payload(a) for a in statement.accesses],
        "flops": statement.flops,
        "branch_prob": statement.branch_prob,
        "amortize": (
            sorted(statement.amortize)
            if statement.amortize is not None
            else None
        ),
    }


def _kernel_payload(kernel: KernelSkeleton) -> dict[str, Any]:
    # Loop order matters (it defines the nest), and so does statement
    # order: the data usage analyzer walks statements in program order,
    # so a load after a store of the same section needs no host-to-device
    # copy while the same load before it does; kernel exploration sums
    # per-statement floats in it.
    return {
        "name": kernel.name,
        "loops": [
            {
                "var": loop.var,
                "lower": loop.lower,
                "upper": loop.upper,
                "step": loop.step,
                "parallel": loop.parallel,
            }
            for loop in kernel.loops
        ],
        "statements": [_statement_payload(s) for s in kernel.statements],
    }


def _array_payload(array: ArrayDecl) -> dict[str, Any]:
    return {
        "name": array.name,
        "shape": list(array.shape),
        "dtype": array.dtype.label,
        "kind": array.kind.value,
    }


def kernel_fingerprint(
    kernel: KernelSkeleton, array_map: Mapping[str, ArrayDecl]
) -> str:
    """Content hash of one kernel plus the arrays it touches.

    Everything kernel exploration reads: the kernel's loops and
    statements (in order) and the declarations of the arrays its
    accesses name, sorted by name.  Program identity and the order the
    program declares its arrays in stay *out*, so two programs sharing a
    kernel share its cache entry — the kernel-level cache key of
    :class:`repro.service.engine.ProjectionEngine`.
    """
    payload = _kernel_payload(kernel)
    touched = sorted(
        {
            access.array
            for statement in kernel.statements
            for access in statement.accesses
        }
    )
    return stable_digest(
        {
            "kernel": payload,
            "arrays": [_array_payload(array_map[name]) for name in touched],
        }
    )


@dataclass(frozen=True)
class ProgramSkeleton:
    """The unit GROPHECY++ analyzes: kernels + array declarations + hints.

    ``kernels`` is the sequence executed once per application iteration;
    for the paper's iterative applications the transfer set is independent
    of the iteration count (input data moves once before the first
    iteration and output once after the last), which
    :class:`repro.datausage.DataUsageAnalyzer` exploits.

    ``temporaries`` is the user hint from Section III-B: written arrays
    that need not be copied back to the CPU.
    """

    name: str
    arrays: tuple[ArrayDecl, ...]
    kernels: tuple[KernelSkeleton, ...]
    temporaries: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("program name must be non-empty")
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "temporaries", frozenset(self.temporaries))
        if not self.arrays:
            raise ValueError(f"program {self.name!r} declares no arrays")
        if not self.kernels:
            raise ValueError(f"program {self.name!r} has no kernels")
        names = [a.name for a in self.arrays]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"program {self.name!r} declares arrays twice: {dupes}"
            )
        kernel_names = [k.name for k in self.kernels]
        if len(kernel_names) != len(set(kernel_names)):
            dupes = sorted(
                {n for n in kernel_names if kernel_names.count(n) > 1}
            )
            raise ValueError(
                f"program {self.name!r} declares kernels twice: {dupes}"
            )
        unknown = self.temporaries - set(names)
        if unknown:
            raise ValueError(
                f"temporary hints reference undeclared arrays: {sorted(unknown)}"
            )

    @property
    def array_map(self) -> dict[str, ArrayDecl]:
        return {a.name: a for a in self.arrays}

    def array(self, name: str) -> ArrayDecl:
        try:
            return self.array_map[name]
        except KeyError:
            raise KeyError(
                f"program {self.name!r} declares no array {name!r}"
            ) from None

    def kernel(self, name: str) -> KernelSkeleton:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"program {self.name!r} has no kernel {name!r}")

    @property
    def total_flops(self) -> float:
        return sum(k.total_flops for k in self.kernels)

    @memoized
    def fingerprint(self) -> str:
        """Stable content hash of everything the projection depends on.

        Two programs that differ only in statement labels fingerprint
        identically; any change to shapes, dtypes, flops, loop
        structure, kernel order or statement order (both drive the data
        usage analyzer's read-before-write walk), access order (kernel
        analysis sums in it), array declaration order (the analyzer
        lists transfers in it), or temporary hints produces a different
        digest.  Every cache key that reads a whole
        program is built from it (see :mod:`repro.core.keys`).  Computed
        once per object (see :func:`repro.util.fingerprint.memoized`).
        """
        payload = {
            "name": self.name,
            "arrays": [_array_payload(a) for a in self.arrays],
            "kernels": [_kernel_payload(k) for k in self.kernels],
            "temporaries": sorted(self.temporaries),
        }
        return stable_digest(payload)

    @memoized
    def kernel_fingerprints(self) -> tuple[str, ...]:
        """:func:`kernel_fingerprint` of every kernel, in program order.

        Computed once per object, like :meth:`fingerprint`; the
        projection engine builds its kernel-cache keys from these.
        """
        array_map = self.array_map
        return tuple(
            kernel_fingerprint(kernel, array_map) for kernel in self.kernels
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"program {self.name}: {len(self.kernels)} kernels, "
            f"{len(self.arrays)} arrays"
        )
