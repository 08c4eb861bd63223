import random

import pytest

from qtcatalan import make_path


@pytest.fixture(scope="session")
def large_three_column_paths():
    """Twenty seeded (3,n)-paths for n = 100000 and 100001.

    Each n gives its lowest and highest paths, two paths whose first
    column holds q +- 1 cells above it (q = n // 3), and six random ones.
    """
    rng = random.Random(20141)
    found = []
    for n in (100000, 100001):
        low1, low2, q = -(-n // 3), -(-2 * n // 3), n // 3
        found += [make_path(3, n, [low1, low2, n]), make_path(3, n, [n, n, n])]
        for y1 in [n - q - 1, n - q + 1] + [rng.randint(low1, n) for _ in range(6)]:
            found.append(make_path(3, n, [y1, rng.randint(max(y1, low2), n), n]))
    return found
