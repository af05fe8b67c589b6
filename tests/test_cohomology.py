"""Closed-form line bundle cohomology on P^1 products, with a Cech oracle."""

import random
import time
from itertools import product as iproduct

import pytest

from torica import (
    LineBundleOnP1Product,
    check_danilov_hypothesis,
    danilov_violations,
    h_dim_p1,
    h_dim_product,
)

from suites import cohomology_suite


def _cech_h0(deg, window=60):
    """Monomials x^a y^b with a, b >= 0 and a + b = deg."""
    return sum(
        1 for a in range(window) for b in range(window) if a + b == deg
    )


def _cech_h1(deg, window=60):
    """Cokernel basis: monomials with both exponents negative summing to deg."""
    return sum(
        1
        for a in range(-window, 0)
        for b in range(-window, 0)
        if a <= -1 and b <= -1 and a + b == deg
    )


def test_h_dim_p1_examples():
    assert h_dim_p1(1, 0) == 0
    assert h_dim_p1(0, 0) == 1
    assert h_dim_p1(1, -2) == 1
    assert h_dim_p1(0, 3) == 4
    assert h_dim_p1(2, -7) == 0
    assert h_dim_p1(5, 100) == 0


def test_h_dim_p1_against_cech_counting():
    for deg in range(-25, 26):
        assert h_dim_p1(0, deg) == _cech_h0(deg)
        assert h_dim_p1(1, deg) == _cech_h1(deg)


def test_h_dim_p1_rejects_negative_degree():
    with pytest.raises(ValueError):
        h_dim_p1(-1, 0)


def test_h_dim_product_examples():
    for i in range(21):
        assert h_dim_product(1, (2 * i, i)) == 0
    assert h_dim_product(0, (2, 1)) == 6
    assert h_dim_product(2, (-2, -2)) == 1
    assert h_dim_product(0, ()) == 1
    assert h_dim_product(1, ()) == 0


def test_h_dim_product_accepts_bundle_objects():
    bundle = LineBundleOnP1Product((2, 1))
    assert h_dim_product(0, bundle) == 6
    assert h_dim_product(0, bundle.twist(2)) == 15


def test_h_dim_product_three_factors():
    # H^3 of O(-2,-2,-2) on (P^1)^3 is 1 by Serre duality
    assert h_dim_product(3, (-2, -2, -2)) == 1
    assert h_dim_product(2, (-2, -2, 4)) == 5
    assert h_dim_product(1, (-3, 2, 0)) == 2 * 3 * 1


def _h_dim_product_by_splits(d, degrees):
    """Kunneth by every split of d into per-factor degrees 0 and 1: 2^n terms."""
    total = 0
    for split in iproduct((0, 1), repeat=len(degrees)):
        if sum(split) == d:
            term = 1
            for e, deg in zip(split, degrees):
                term *= h_dim_p1(e, deg)
            total += term
    return total


def test_h_dim_product_against_the_split_sum():
    rng = random.Random(21)
    for n in range(13):
        for _ in range(6):
            degrees = tuple(rng.randint(-5, 4) for _ in range(n))
            for d in range(n + 2):
                assert h_dim_product(d, degrees) == _h_dim_product_by_splits(d, degrees), degrees


def test_h_dim_product_of_forty_factors_in_under_a_second():
    degrees = (-3, 2) * 20
    start = time.perf_counter()
    assert h_dim_product(20, degrees) == 2**20 * 3**20
    assert h_dim_product(21, degrees) == 0
    assert time.perf_counter() - start < 1


def test_check_danilov_hypothesis_positive():
    assert check_danilov_hypothesis([LineBundleOnP1Product((2, 1))], 50)
    assert check_danilov_hypothesis([], 50)
    bundles = [LineBundleOnP1Product((2, 1)), LineBundleOnP1Product((1, 1, 1))]
    assert check_danilov_hypothesis(bundles, 50)


def test_check_danilov_hypothesis_negative():
    negative = LineBundleOnP1Product((-1,))
    assert not check_danilov_hypothesis([negative], 3)
    violations = danilov_violations([negative], 3)
    assert {"factor": 0, "d": 1, "i": 2} in violations
    assert all(v["i"] >= 2 for v in violations)


def test_danilov_accepts_plain_degree_tuples():
    assert check_danilov_hypothesis([(2, 1), (3,)], 10)
    assert not check_danilov_hypothesis([(2, 1), (-2,)], 10)


def test_non_integral_degrees_are_refused():
    for call in (
        lambda: LineBundleOnP1Product((1, 1.5)),
        lambda: h_dim_p1(0, 1.5),
        lambda: h_dim_p1(0.5, 1),
        lambda: h_dim_product(0, (2, 1.5)),
        lambda: h_dim_product(1.5, (2, 1)),
        lambda: danilov_violations([(1, 1)], i_max=2.5),
    ):
        with pytest.raises(ValueError):
            call()
    assert LineBundleOnP1Product((2.0, -1)).factor_degrees == (2, -1)
    assert h_dim_product(0.0, (2.0, 1)) == h_dim_product(0, (2, 1)) == 6


def test_bundle_json():
    assert LineBundleOnP1Product((2, 1)).to_json() == {"factor_degrees": [2, 1]}


def test_cohomology_property_suite():
    cohomology_suite(cases=200)
