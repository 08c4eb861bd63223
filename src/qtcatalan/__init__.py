"""Rational (3,n)-Dyck paths: statistics, rank words, q,t-Catalan polynomials.

The package represents (m,n)-Dyck paths for coprime m and n, computes the
area and dinv statistics in general and the skips statistic for m = 3,
encodes three-column paths as marked rank words, reconstructs a path from
any valid (area, skips, dinv) triple, evaluates C_{m,n}(q,t) both by
brute-force summation and by the m = 3 closed form, and realizes the
involution that exchanges area with dinv while fixing skips.  Everything
is exact integer arithmetic, verifiable exhaustively at small scale via
the verify module or the qtcatalan CLI.
"""

from .bijection import *
from .errors import *
from .paths import *
from .qtpoly import *
from .rankwords import *
from .stats import *
from . import bijection, errors, paths, qtpoly, rankwords, stats

__version__ = "0.1.0"

__all__ = []
__all__ += bijection.__all__
__all__ += errors.__all__
__all__ += paths.__all__
__all__ += qtpoly.__all__
__all__ += rankwords.__all__
__all__ += stats.__all__
