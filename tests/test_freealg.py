import random

import pytest

from cohprobe.errors import InhomogeneousSum, ParseError, ZeroDegreeGenerator
from cohprobe.freealg import (
    GeneratorTable,
    NcPoly,
    enumerate_words,
    leading_word,
    MAX_EXPONENT,
    parse_poly,
    poly_scale,
    poly_str,
    word_key,
)
from cohprobe.linalg import QQ


@pytest.fixture
def gt2():
    return GeneratorTable(["x", "y"])


@pytest.fixture
def gt_weighted():
    return GeneratorTable(["x", "z"], weights=[1, 2])


def test_zero_weight_rejected():
    with pytest.raises(ZeroDegreeGenerator):
        GeneratorTable(["x"], weights=[0])


def test_enumerate_degree_zero(gt2):
    assert enumerate_words(gt2, 0) == [()]


def test_enumerate_counts_unit_weights(gt2):
    assert len(enumerate_words(gt2, 3)) == 8


def test_enumerate_weighted(gt_weighted):
    words = enumerate_words(gt_weighted, 4)
    x, z = 0, 1
    assert set(words) == {(x, x, x, x), (x, x, z), (x, z, x), (z, x, x), (z, z)}
    assert all(gt_weighted.word_degree(w) == 4 for w in words)


def _count_oracle(gt, d):
    # direct recursion: c(d) = sum over generators of c(d - w_i)
    if d == 0:
        return 1
    if d < 0:
        return 0
    return sum(_count_oracle(gt, d - w) for w in gt.weights)


@pytest.mark.parametrize("names,weights", [("xy", None), ("xyz", None), ("xz", [1, 2])])
def test_enumerate_count_oracle(names, weights):
    gt = GeneratorTable(list(names), weights)
    for d in range(7):
        assert len(enumerate_words(gt, d)) == _count_oracle(gt, d)


def deglex_cmp(gt, w1, w2):
    """-1, 0 or 1 as w1 <, ==, > w2 in the order realized by word_key."""
    k1, k2 = word_key(gt, w1), word_key(gt, w2)
    return (k1 > k2) - (k1 < k2)


def test_deglex_empty_smallest(gt2):
    assert deglex_cmp(gt2, (), (0,)) == -1


def test_deglex_precedence(gt2):
    # precedence x > y: xy > yx at equal degree
    x, y = 0, 1
    assert deglex_cmp(gt2, (x, y), (y, x)) == 1


def test_deglex_total_order_weighted(gt_weighted):
    words = []
    for d in range(5):
        words.extend(enumerate_words(gt_weighted, d))
    keys = [word_key(gt_weighted, w) for w in words]
    assert len(set(keys)) == len(keys)


def test_deglex_admissible_random():
    gt = GeneratorTable(["x", "y", "z"], weights=[1, 1, 2])
    rng = random.Random(5)
    pool = []
    for d in range(5):
        pool.extend(enumerate_words(gt, d))
    for _ in range(300):
        u, v, a, b = (rng.choice(pool) for _ in range(4))
        cmp_uv = deglex_cmp(gt, u, v)
        cmp_ext = deglex_cmp(gt, a + u + b, a + v + b)
        assert cmp_uv == cmp_ext


def test_scale_by_zero(gt2):
    x = NcPoly.monomial(gt2, QQ, (0,))
    assert poly_scale(QQ, QQ.of_fraction(0, 1), x).is_zero()


def test_parse_round_trip(gt2):
    for text in ["x*y - y*x", "x*y^3*x", "x^2*y + 2*x*y*x - 1/2*y*x^2"]:
        p = parse_poly(gt2, QQ, text)
        again = parse_poly(gt2, QQ, poly_str(gt2, QQ, p))
        assert p == again


def test_parse_errors(gt2):
    with pytest.raises(ParseError):
        parse_poly(gt2, QQ, "x^")
    with pytest.raises(ParseError):
        parse_poly(gt2, QQ, "x + w")
    with pytest.raises(ParseError):
        parse_poly(gt2, QQ, "")
    with pytest.raises(InhomogeneousSum):
        parse_poly(gt2, QQ, "x*y - x")


def test_parse_exponent_cap(gt2):
    # MAX_EXPONENT = 10^6 itself is written out; one more is refused
    assert parse_poly(gt2, QQ, f"x^{MAX_EXPONENT}").degree == 10**6
    with pytest.raises(ParseError, match="exponent 1000001 > 1000000"):
        parse_poly(gt2, QQ, f"x^{MAX_EXPONENT + 1}")


def test_leading_word(gt2):
    p = parse_poly(gt2, QQ, "x*y + y*x")
    assert leading_word(gt2, p) == (0, 1)
