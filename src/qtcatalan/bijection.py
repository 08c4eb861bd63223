"""The involution exchanging area and dinv while fixing skips.

Statistic triples determine three-column paths uniquely, and swapping
area with dinv maps valid triples to valid triples, so the exchange is
realized by the path (n-k, n-ell, n), where (k, ell) are omega's counts
of the swapped triple: O(1), with no word.  The image is valid by
construction, so it is built unchecked (paths._built); verify's
involution check validates it.  Applied to every path of a fixed n it
permutes the path set and proves the q,t symmetry of C_{3,n}.
"""

from __future__ import annotations

__all__ = ["involution"]

from .paths import DyckPath, _built
from .rankwords import _counts
from . import stats


def involution(p: DyckPath) -> DyckPath:
    """The unique (3,n)-path whose triple is (dinv(p), skips(p), area(p))."""
    k, ell = _counts(p.n, stats.skips(p), stats.area(p))
    return _built(3, p.n, (p.n - k, p.n - ell, p.n))
