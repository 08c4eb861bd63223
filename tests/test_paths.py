from math import comb

import pytest

from qtcatalan import COEFFICIENT_LIMIT, CoefficientOverflow
from qtcatalan import paths as paths_module


def test_the_bounded_count_refuses_a_lattice_of_more_than_the_cap_paths():
    # Catalan(35) = count_paths(35, 36) is below the cap and Catalan(36) above
    # it; a longer other side only adds paths
    catalan35 = comb(70, 35) // 36
    assert catalan35 < COEFFICIENT_LIMIT < comb(72, 36) // 37
    assert paths_module._bounded_count(35, 36) == catalan35
    assert paths_module._bounded_count(35, 37) == comb(72, 35) // 72 < COEFFICIENT_LIMIT
    assert paths_module._bounded_count(1, COEFFICIENT_LIMIT) == 1
    for m, n in ((36, 37), (37, 36), (35, 38), (40, 41), (3037000499, 3037000498)):
        with pytest.raises(CoefficientOverflow, match=rf"^the \({m},{n}\)-lattice has more"):
            paths_module._bounded_count(m, n)
    # the lattice checks come first
    for m, n in ((36, 38), (0, 41), (COEFFICIENT_LIMIT + 1, 40)):
        with pytest.raises((ValueError, OverflowError)) as counted:
            paths_module._bounded_count(m, n)
        with pytest.raises((ValueError, OverflowError)) as checked:
            paths_module._check_lattice(m, n)
        assert (type(counted.value), str(counted.value)) == (
            type(checked.value), str(checked.value))
