from qtcatalan import (
    enumerate_paths,
    involution,
    is_valid_triple,
    omega,
    path_from_word,
    stat_triple,
)


def test_swapping_area_and_dinv_preserves_triple_validity():
    for total in range(21):
        for a in range(total + 1):
            for s in range(total + 1 - a):
                d = total - a - s
                assert is_valid_triple(a, s, d) == is_valid_triple(d, s, a)


def rebuilt_from_the_word(p):
    a, s, d = stat_triple(p)
    return path_from_word(omega(d, s, a))


def test_involution_equals_the_word_reconstruction_on_every_small_path():
    for n in range(1, 64):
        if n % 3 == 0:
            continue
        for p in enumerate_paths(3, n):
            assert involution(p) == rebuilt_from_the_word(p)


def test_involution_equals_the_word_reconstruction_at_a_hundred_thousand_rows(
    large_three_column_paths,
):
    for p in large_three_column_paths:
        assert involution(p) == rebuilt_from_the_word(p)
