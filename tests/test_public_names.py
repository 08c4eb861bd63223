"""The package's public names: each declared once, by the module that defines it."""

import sys

import qtcatalan
from qtcatalan import bijection, errors, paths, qtpoly, rankwords, stats

MODULES = (bijection, errors, paths, qtpoly, rankwords, stats)
PUBLIC = {
    "BadCharacter", "BadResidue", "BelowDiagonal", "Cell", "CellClass",
    "CellNotAboveThePath", "CoefficientOverflow", "COEFFICIENT_LIMIT", "DyckPath",
    "EmptyBound", "InvalidTriple", "MarkedRankWord", "NotCoprime", "NotMonotone",
    "NotRealizable", "QtPolynomial", "RankEntry", "StatTriple", "UnsupportedM", "area",
    "arm", "boxed_counts", "catalan3_closed_form", "catalan_bruteforce", "cells_above",
    "classify_nondinv_cell", "contributes_to_dinv", "count_paths", "count_skips", "dinv",
    "enumerate_paths", "involution", "is_qt_symmetric", "is_valid_triple",
    "lattice_rank_word", "leg", "make_path", "mark_from_path", "min_east_height", "omega",
    "parse_path", "path_from_word", "rank", "render_path", "render_word", "shape_cells",
    "skips", "stat_triple", "transpose",
}


def test_each_public_name_is_declared_once_by_its_defining_module():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)) == len(PUBLIC) == 49  # no name twice
    for module in MODULES:
        for name in module.__all__:
            value = vars(module)[name]
            if name == "COEFFICIENT_LIMIT":  # a constant names no module of its own
                assert module is errors
            else:
                assert sys.modules[value.__module__] is module, name
            assert getattr(qtcatalan, name) is value
    assert set(qtcatalan.__all__) == PUBLIC and len(qtcatalan.__all__) == 49
    bound = {}
    exec("from qtcatalan import *", bound)
    del bound["__builtins__"]
    assert bound.keys() == PUBLIC
    assert all(bound[name] is getattr(qtcatalan, name) for name in PUBLIC)
