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

from .bijection import involution
from .errors import (
    BadCharacter,
    BadResidue,
    BelowDiagonal,
    CellNotAboveThePath,
    CoefficientOverflow,
    EmptyBound,
    InvalidTriple,
    NotCoprime,
    NotMonotone,
    NotRealizable,
    UnsupportedM,
)
from .paths import (
    Cell,
    DyckPath,
    arm,
    cells_above,
    count_paths,
    enumerate_paths,
    leg,
    make_path,
    min_east_height,
    parse_path,
    render_path,
    shape_cells,
    transpose,
)
from .qtpoly import (
    COEFFICIENT_LIMIT,
    QtPolynomial,
    catalan3_closed_form,
    catalan_bruteforce,
    is_qt_symmetric,
)
from .rankwords import (
    MarkedRankWord,
    RankEntry,
    boxed_counts,
    count_skips,
    is_valid_triple,
    lattice_rank_word,
    mark_from_path,
    omega,
    path_from_word,
    rank,
    render_word,
)
from .stats import (
    CellClass,
    StatTriple,
    area,
    classify_nondinv_cell,
    contributes_to_dinv,
    dinv,
    skips,
    stat_triple,
)

__version__ = "0.1.0"

__all__ = [
    "BadCharacter",
    "BadResidue",
    "BelowDiagonal",
    "Cell",
    "CellClass",
    "CellNotAboveThePath",
    "CoefficientOverflow",
    "COEFFICIENT_LIMIT",
    "DyckPath",
    "EmptyBound",
    "InvalidTriple",
    "MarkedRankWord",
    "NotCoprime",
    "NotMonotone",
    "NotRealizable",
    "QtPolynomial",
    "RankEntry",
    "StatTriple",
    "UnsupportedM",
    "area",
    "arm",
    "boxed_counts",
    "catalan3_closed_form",
    "catalan_bruteforce",
    "cells_above",
    "classify_nondinv_cell",
    "contributes_to_dinv",
    "count_paths",
    "count_skips",
    "dinv",
    "enumerate_paths",
    "involution",
    "is_qt_symmetric",
    "is_valid_triple",
    "lattice_rank_word",
    "leg",
    "make_path",
    "mark_from_path",
    "min_east_height",
    "omega",
    "parse_path",
    "path_from_word",
    "rank",
    "render_path",
    "render_word",
    "shape_cells",
    "skips",
    "stat_triple",
    "transpose",
]
