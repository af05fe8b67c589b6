"""Randomized property suites, seeded so every failure reproduces.

Each suite takes a case count and drives one invariant family. Module test
files run them at moderate counts; the acceptance suite runs them at the
full required counts (500 for Smith forms, 200 elsewhere).
"""

import random

from torica import (
    Cone,
    DivisorClass,
    IntMatrix,
    PolyRing,
    det,
    div_of_character,
    h_dim_p1,
    h_dim_product,
    ideal_equal,
    module_generators,
    saturate,
    smith_normal_form,
    steinberg_variety,
)


def check_smith(a, case=None):
    """U A V = D, both transforms unimodular, diagonal divisibility chain."""
    dec = smith_normal_form(a)
    assert abs(det(dec.u)) == 1, f"case {case}: U not unimodular"
    assert abs(det(dec.v)) == 1, f"case {case}: V not unimodular"
    product = dec.u @ a @ dec.v
    assert product == dec.d, f"case {case}: UAV is not D"
    for i in range(a.rows):
        for j in range(a.cols):
            expect = dec.invariant_factors[i] if i == j else 0
            assert product.entries[i][j] == expect, f"case {case}: UAV is not diagonal"
    factors = [f for f in dec.invariant_factors if f != 0]
    assert all(f > 0 for f in factors), f"case {case}: negative invariant factor"
    for i in range(len(factors) - 1):
        assert factors[i + 1] % factors[i] == 0, f"case {case}: divisibility broken"
    tail = dec.invariant_factors[len(factors) :]
    assert all(f == 0 for f in tail), f"case {case}: zero factors not trailing"
    return dec


def snf_suite(cases=500, seed=20401):
    """`check_smith` on random matrices of 1 to 5 rows and columns."""
    rng = random.Random(seed)
    for case in range(cases):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        check_smith(a, case)


def _random_pointed_cone(rng, dims=(2, 3), bound=4):
    """A random full-dimensional strongly convex cone, its dimension one of `dims`.

    It has up to two generators more than its dimension, with entries in
    [-bound, bound].
    """
    dim = rng.choice(dims)
    while True:
        count = rng.randint(dim, dim + 2)
        gens = [
            tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(count)
        ]
        cone = Cone(dim, gens)
        if cone.dim() == dim and cone.is_strongly_convex():
            return cone


def biduality_suite(cases=200, seed=20402, wide_cases=100):
    """dual(dual(c)) = c, and the dual generators pair non-negatively.

    `cases` cones of dimension 2 and 3 with entries in [-4, 4] come first,
    then `wide_cases` of dimension 4 and 5 with entries in [-1, 1].
    """
    rng = random.Random(seed)
    cones = [_random_pointed_cone(rng) for _ in range(cases)]
    cones += [_random_pointed_cone(rng, (4, 5), 1) for _ in range(wide_cases)]
    for case, cone in enumerate(cones):
        double = cone.dual().dual()
        assert double == cone, f"case {case}: biduality failed for {cone}"
        for m in cone.dual_generators():
            for g in cone.generators:
                pairing = sum(x * y for x, y in zip(m, g))
                assert pairing >= 0, f"case {case}: negative pairing"


def _random_polynomial(rng, ring, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[exp] = rng.randint(1, ring.char - 1)
    return ring.polynomial(terms)


def buchberger_suite(cases=200, seed=20403):
    """Every S-polynomial of a reduced basis reduces to zero against it.

    The S-polynomials are formed by Polynomial arithmetic from the leading
    terms, so the engine's own S-polynomial code is not the judge.
    """
    rng = random.Random(seed)
    for case in range(cases):
        char = rng.choice((5, 7, 101))
        nvars = rng.choice((2, 3))
        ring = PolyRing(char, tuple("xyz"[:nvars]))
        gens = [_random_polynomial(rng, ring) for _ in range(rng.randint(1, 3))]
        ideal = ring.ideal(gens)
        basis = ideal.groebner()
        leads = [g.leading_term(ideal.key()) for g in basis]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                (a, ca), (b, cb) = leads[i], leads[j]
                lcm = tuple(max(x, y) for x, y in zip(a, b))
                s = ring.monomial([m - x for m, x in zip(lcm, a)], pow(ca, -1, char)) * basis[i]
                s -= ring.monomial([m - y for m, y in zip(lcm, b)], pow(cb, -1, char)) * basis[j]
                reduced = ideal.normal_form(s)
                assert reduced.is_zero(), f"case {case}: S-pair ({i},{j}) not zero"


def saturation_suite(cases=200, seed=20404):
    """saturate is idempotent and only grows the ideal."""
    rng = random.Random(seed)
    for case in range(cases):
        char = rng.choice((5, 7))
        ring = PolyRing(char, ("x", "y"))
        gens = [_random_polynomial(rng, ring, max_terms=2, max_exp=2) for _ in range(2)]
        ideal = ring.ideal(gens)
        f = ring.monomial(
            (rng.randint(0, 2), rng.randint(0, 2)), coeff=rng.randint(1, char - 1)
        )
        if f.is_zero() or f.degree() == 0:
            f = ring.parse("x*y")
        once = saturate(ideal, f)
        twice = saturate(once, f)
        assert ideal_equal(once, twice), f"case {case}: saturation not idempotent"
        for g in ideal.generators:
            assert once.contains(g), f"case {case}: saturation lost a generator"


def class_representative_suite(cases=200, seed=20405):
    """Module generator counts depend only on the divisor class."""
    rng = random.Random(seed)
    surface = steinberg_variety()
    group = surface.class_group()
    counts = {}
    for case in range(cases):
        k = rng.randint(-6, 6)
        divisor = group.representative(DivisorClass(surface, (k,)))
        # shift by a random principal divisor: same class, different divisor
        m = tuple(rng.randint(-2, 2) for _ in range(3))
        shifted = divisor + div_of_character(surface, m)
        assert shifted.divisor_class() == DivisorClass(surface, (k,))
        n = len(module_generators(surface, shifted).generators)
        if k in counts:
            assert counts[k] == n, f"case {case}: count for class {k} changed"
        else:
            counts[k] = n


def cohomology_suite(cases=200, seed=20406):
    """Serre duality, Euler characteristic, and Kunneth consistency on P^1."""
    rng = random.Random(seed)
    for case in range(cases):
        deg = rng.randint(-20, 20)
        assert h_dim_p1(1, deg) == h_dim_p1(0, -deg - 2), f"case {case}: Serre"
        assert h_dim_p1(0, deg) - h_dim_p1(1, deg) == deg + 1, f"case {case}: Euler"
        degrees = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
        d = rng.randint(0, len(degrees) + 1)
        # direct Kunneth sum against the library value
        total = 0
        for split in _splits(d, len(degrees)):
            term = 1
            for e, dg in zip(split, degrees):
                term *= h_dim_p1(e, dg)
            total += term
        assert total == h_dim_product(d, degrees), f"case {case}: Kunneth"
        shuffled = list(degrees)
        rng.shuffle(shuffled)
        assert h_dim_product(d, tuple(shuffled)) == total, f"case {case}: symmetry"


def _splits(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _splits(total - head, parts - 1):
            yield (head,) + rest
