"""User hints that refine the conservative analysis (paper Section III-B)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.fingerprint import memoized, stable_digest
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SparseExtentHint:
    """Bounds the referenced elements of a sparse/irregular array.

    Without a hint GROPHECY++ assumes every element of a sparse array may
    be referenced and transfers it whole.  A hint supplies the number of
    elements actually referenced (e.g. nnz of a CSR matrix), which the
    analyzer uses instead.
    """

    array: str
    referenced_elements: int

    def __post_init__(self) -> None:
        if not self.array:
            raise ValueError("hint must name an array")
        check_positive("referenced_elements", self.referenced_elements)


@dataclass(frozen=True)
class AnalysisHints:
    """Bundle of optional hints handed to the analyzer.

    ``extra_temporaries`` augments the program's own temporary set (arrays
    that are written but need not return to the host).  ``sparse_extents``
    maps array names to :class:`SparseExtentHint`.
    """

    extra_temporaries: frozenset[str] = frozenset()
    sparse_extents: tuple[SparseExtentHint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "extra_temporaries", frozenset(self.extra_temporaries)
        )
        object.__setattr__(self, "sparse_extents", tuple(self.sparse_extents))
        names = [h.array for h in self.sparse_extents]
        if len(names) != len(set(names)):
            raise ValueError("duplicate sparse extent hints")

    def sparse_extent_for(self, array: str) -> int | None:
        for hint in self.sparse_extents:
            if hint.array == array:
                return hint.referenced_elements
        return None

    @memoized
    def fingerprint(self) -> str:
        """Stable content hash; hint order never matters."""
        return stable_digest(
            {
                "extra_temporaries": sorted(self.extra_temporaries),
                "sparse_extents": sorted(
                    (h.array, h.referenced_elements)
                    for h in self.sparse_extents
                ),
            }
        )

    @staticmethod
    def none() -> "AnalysisHints":
        """The empty hints: one shared instance, so its digest is
        computed once per process."""
        return _NO_HINTS


_NO_HINTS = AnalysisHints()
