"""Exception types shared across the package, and the 64-bit cap they name."""

__all__ = [
    "COEFFICIENT_LIMIT", "BadCharacter", "BadResidue", "BelowDiagonal",
    "CellNotAboveThePath", "CoefficientOverflow", "EmptyBound", "InvalidTriple",
    "NotCoprime", "NotMonotone", "NotRealizable", "UnsupportedM",
]

COEFFICIENT_LIMIT = 2**63 - 1  # the largest signed 64-bit integer


class NotCoprime(ValueError):
    """m and n share a factor, so there is no rational Dyck path lattice."""


class NotMonotone(ValueError):
    """East-step heights must weakly increase and stay within 0..n."""


class BelowDiagonal(ValueError):
    """Some east step is taken below the rectangle diagonal."""


class BadCharacter(ValueError):
    """Step words may contain only 'N' and 'E'."""


class CellNotAboveThePath(ValueError):
    """The addressed cell is not in the region above the path."""


class UnsupportedM(ValueError):
    """Operation is defined only for three-column paths."""


class BadResidue(ValueError):
    """n must not be a multiple of 3."""


class InvalidTriple(ValueError):
    """No path realizes these (area, skips, dinv) values."""


class NotRealizable(ValueError):
    """The marked rank word does not encode any path."""


class EmptyBound(ValueError):
    """A verify bound selects no lattice, so every check would pass vacuously."""


class CoefficientOverflow(OverflowError):
    """A value left the signed 64-bit range promised to consumers."""
