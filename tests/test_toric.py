"""Monomial maps, toric ideals, lattice point lifting, product rings."""

import json
import random
from itertools import combinations, product as iproduct

import pytest

from torica import (
    BudgetExceeded,
    Cone,
    Ideal,
    IntMatrix,
    InfiniteCokernel,
    MonomialMap,
    PHI_COLUMNS,
    PolyRing,
    ideal_equal,
    product_ring,
    saturate,
    steinberg_minors_ideal,
    steinberg_monomial_map,
    steinberg_ring_mod_l,
    steinberg_variety,
    toric_ideal,
)
from torica import polyring
from torica.cli import main

EXPECTED_BASIS = {
    "C*Y - B*Z",
    "X^2 - Y*Z",
    "C*X - A*Z",
    "B*X - A*Y",
    "A*X - B*Z",
    "A^2 - B*C",
}


def test_phi_columns():
    m = steinberg_monomial_map()
    assert [m.phi.column(j) for j in range(6)] == list(PHI_COLUMNS)
    assert m.variable_names == ("A", "B", "C", "X", "Y", "Z")


def test_monomial_map_json_round_trip():
    m = steinberg_monomial_map()
    assert MonomialMap.from_json(m.to_json()).phi == m.phi


def test_surface_presentation_is_minors_ideal():
    pres = steinberg_ring_mod_l(101)
    assert {str(g) for g in pres.ideal.groebner()} == EXPECTED_BASIS
    minors = steinberg_minors_ideal(pres.ring)
    assert ideal_equal(pres.ideal, minors)


def test_surface_presentation_rejects_characteristic_two():
    with pytest.raises(ValueError):
        steinberg_ring_mod_l(2)


def test_surface_presentation_semigroup():
    pres = steinberg_ring_mod_l(101)
    assert set(pres.semigroup.hilbert_generators) == set(PHI_COLUMNS)


def test_toric_ideal_twisted_cubic_with_enumeration_oracle():
    phi = IntMatrix([[3, 2, 1, 0], [0, 1, 2, 3]])
    pres = toric_ideal(MonomialMap(phi, ("z0", "z1", "z2", "z3")), 101)
    basis = {str(g) for g in pres.ideal.groebner()}
    assert basis == {"z2^2 - z1*z3", "z1*z2 - z0*z3", "z1^2 - z0*z2"}
    # oracle: every binomial z^a - z^b with phi a = phi b, degree <= 3,
    # must lie in the ideal
    ring = pres.ring
    exponents = [e for e in iproduct(range(4), repeat=4) if sum(e) <= 3]
    for a in exponents:
        for b in exponents:
            if a >= b:
                continue
            if phi @ a == phi @ b:
                binomial = ring.monomial(a) - ring.monomial(b)
                assert pres.ideal.contains(binomial)


def test_toric_ideal_of_identity_is_zero():
    phi = IntMatrix([[1, 0], [0, 1]])
    pres = toric_ideal(MonomialMap(phi, ("x", "y")), 101)
    assert pres.ideal.groebner() == []


def test_toric_ideal_rejects_rank_deficient_maps():
    phi = IntMatrix([[1, 1], [1, 1]])
    with pytest.raises(InfiniteCokernel):
        toric_ideal(MonomialMap(phi, ("x", "y")), 101)


def test_lift_lattice_point_round_trip():
    pres = steinberg_ring_mod_l(101)
    phi = pres.map.phi
    rng = random.Random(41)
    for _ in range(200):
        coeffs = [rng.randint(0, 3) for _ in range(6)]
        point = tuple(
            sum(c * col[i] for c, col in zip(coeffs, PHI_COLUMNS)) for i in range(3)
        )
        lift = pres.lift_lattice_point(point)
        assert lift is not None
        assert phi @ lift == point


def test_lift_lattice_point_outside_semigroup():
    pres = steinberg_ring_mod_l(101)
    assert pres.lift_lattice_point((0, 0, 1)) is None
    assert pres.lift_lattice_point((-1, 0, 0)) is None


def test_lift_lattice_point_refuses_non_integral_points():
    pres = steinberg_ring_mod_l(101)
    with pytest.raises(ValueError):
        pres.lift_lattice_point((1.5, 0, 1))
    assert pres.lift_lattice_point((1.0, 0, 1)) == pres.lift_lattice_point((1, 0, 1))


def test_lift_lattice_point_refuses_wrong_length_points():
    pres = steinberg_ring_mod_l(101)
    with pytest.raises(ValueError):
        pres.lift_lattice_point((1, 0))
    with pytest.raises(ValueError):
        pres.lift_lattice_point((1, 0, 1, 0))


def test_lift_lattice_point_is_pinned():
    pres = steinberg_ring_mod_l(101)
    expected = {
        (1, 1, 3): (1, 0, 0, 0, 1, 0),
        (2, 2, 2): (2, 0, 0, 0, 0, 2),
        (3, 1, 4): (3, 0, 0, 1, 0, 0),
        (4, 3, 9): (4, 0, 0, 1, 2, 0),
        (5, 5, 5): (5, 0, 0, 0, 0, 5),
        (0, 3, 6): (0, 0, 0, 0, 3, 0),
        (0, 0, 0): (0, 0, 0, 0, 0, 0),
    }
    for point, lift in expected.items():
        assert pres.lift_lattice_point(point) == lift


def test_lift_lattice_point_deep_point():
    pres = steinberg_ring_mod_l(101)
    point = (2000, 2000, 2000)
    lift = pres.lift_lattice_point(point)
    assert lift is not None
    assert pres.map.phi @ lift == point


def test_monomial_for():
    pres = steinberg_ring_mod_l(101)
    assert str(pres.monomial_for((2, 0, 2))) == "A^2"
    # (1,1,3) lifts two ways (A*Y and B*X); any lift must map back to it
    lift = pres.monomial_for((1, 1, 3))
    (exponents, _coeff), = lift.terms.items()
    assert pres.map.phi @ exponents == (1, 1, 3)
    assert pres.ideal.contains(lift - pres.ring.parse("B*X"))
    with pytest.raises(ValueError):
        pres.monomial_for((0, 0, 1))


def test_product_ring_shapes():
    pres = product_ring(2, 1, 101)
    assert pres.ring.variables == (
        "A1", "B1", "C1", "X1", "Y1", "Z1",
        "A2", "B2", "C2", "X2", "Y2", "Z2",
        "x1",
    )
    assert len(pres.ideal.generators) == 12
    assert pres.semigroup.ambient_dim == 7
    assert len(pres.semigroup.hilbert_generators) == 13


def test_product_ring_single_factor_matches_base():
    assert product_ring(1, 0, 101).ring.variables == ("A", "B", "C", "X", "Y", "Z")
    affine = product_ring(0, 2, 101)
    assert affine.ring.variables == ("x1", "x2")
    assert affine.ideal.groebner() == []


def test_product_ring_relations_within_each_factor():
    pres = product_ring(2, 0, 101)
    ring = pres.ring
    for suffix in ("1", "2"):
        a, b, c = (ring.parse(n + suffix) for n in ("A", "B", "C"))
        assert pres.ideal.contains(a * a - b * c)
    # no cross-factor relation: A1*Z2 - C1*X2 is not in the ideal
    cross = ring.parse("A1*Z2 - C1*X2")
    assert not pres.ideal.contains(cross)


def test_product_ring_validates_arguments():
    with pytest.raises(ValueError):
        product_ring(0, 0, 101)
    with pytest.raises(ValueError):
        product_ring(-1, 1, 101)


def _square_maps():
    """One map per orbit of 6-subsets of {0, 1, 2}^2 under the square's symmetries: 16 maps.

    A symmetry moves the columns (1, a, b) by a unimodular change of
    coordinates, which keeps the kernel and so the toric ideal; the least
    member of each orbit stands for it.
    """
    moves = [
        lambda a, b: (a, b), lambda a, b: (2 - a, b), lambda a, b: (a, 2 - b),
        lambda a, b: (2 - a, 2 - b), lambda a, b: (b, a), lambda a, b: (2 - b, a),
        lambda a, b: (b, 2 - a), lambda a, b: (2 - b, 2 - a),
    ]
    grid = [(a, b) for a in range(3) for b in range(3)]
    orbits = {
        min(tuple(sorted(move(a, b) for a, b in subset)) for move in moves)
        for subset in combinations(grid, 6)
    }
    return [
        MonomialMap(IntMatrix.from_columns([(1, a, b) for a, b in s]), [f"v{i}" for i in range(6)])
        for s in sorted(orbits)
    ]


def test_saturation_keeps_its_elimination_basis():
    """The basis `saturate` caches from its elimination equals one computed anew."""
    maps = _square_maps()
    assert len(maps) == 16
    cases = [toric_ideal(m, p) for m in maps for p in (32003, 101, 3)] + [steinberg_ring_mod_l(101)]
    for pres in cases:
        ideal = pres.ideal
        assert ideal._gb is not None  # filled by saturate, not by a later read
        fresh = Ideal(ideal.ring, ideal.generators)
        assert ideal.groebner() == fresh.groebner(), pres
        assert ideal.leading_exponents() == fresh.leading_exponents(), pres


def test_square_maps_reduce_a_pinned_number_of_s_pairs(monkeypatch):
    """The pair criteria leave 891 S-pairs to reduce over the 16 square-orbit maps at F_32003.

    A change to which pairs the criteria keep moves this count.
    """
    formed = []
    s_terms = polyring._s_terms
    monkeypatch.setattr(polyring, "_s_terms", lambda *args: formed.append(1) or s_terms(*args))
    per_map = []
    for m in _square_maps():
        before = len(formed)
        toric_ideal(m, 32003).ideal  # the saturation runs when toric_ideal is called
        per_map.append(len(formed) - before)
    assert per_map == [31, 34, 51, 43, 38, 68, 39, 113, 38, 23, 31, 57, 38, 148, 65, 74]
    assert sum(per_map) == 891


def test_an_over_budget_saturation_raises_from_the_constructor(monkeypatch, capsys):
    """A presentation saturates when it is built, so the constructors themselves refuse.

    The surface's saturation reduces 31 S-pairs; its variety still defers the
    presentation, so building the variety refuses nothing until it is read.
    """
    monkeypatch.setattr(polyring, "_PAIR_BUDGET", 5)
    for build in (
        lambda: toric_ideal(steinberg_monomial_map(), 101),
        lambda: steinberg_ring_mod_l(101),
        lambda: product_ring(2, 1, 101),
    ):
        with pytest.raises(BudgetExceeded) as err:
            build()
        assert err.value.budget == 5
    surface = steinberg_variety(101)
    with pytest.raises(BudgetExceeded):
        surface.presentation
    assert main(["ideal", "toric", "@phi"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["code"], error["budget"]) == ("BUDGET_EXCEEDED", 5)


def _reference_lift(cols, cone, m, memo):
    """The first nonzero column, in index order, whose remainder lifts; recursive, by the rule.

    A point outside the cone has no lift, and every nonzero column of a
    pointed cone lowers a positive grading, so the recursion ends.
    """
    if not any(m):
        return (0,) * len(cols)
    if m not in memo:
        memo[m] = None
        if cone.contains(m):
            for j, col in enumerate(cols):
                if not any(col):
                    continue
                rest = _reference_lift(cols, cone, tuple(a - b for a, b in zip(m, col)), memo)
                if rest is not None:
                    memo[m] = tuple(e + (i == j) for i, e in enumerate(rest))
                    break
    return memo[m]


def test_lifts_agree_with_a_recursive_reference():
    """Seeded semigroup points, box points (some outside the cone) and the origin."""
    rng = random.Random(26)
    cases = [toric_ideal(m, 101) for m in _square_maps()]
    cases += [steinberg_ring_mod_l(101), product_ring(2, 1, 101)]
    lifted = 0
    for pres in cases:
        phi = pres.map.phi
        cols = phi.columns()
        cone, memo = Cone(phi.rows, cols), {}
        points = [(0,) * phi.rows]
        for _ in range(12):
            coeffs = [rng.randint(0, 2) for _ in cols]
            points.append(phi @ tuple(coeffs))
            points.append(tuple(rng.randint(-1, 4) for _ in range(phi.rows)))
        for point in points:
            lift = pres.lift_lattice_point(point)
            assert lift == _reference_lift(cols, cone, point, memo), (pres, point)
            if lift is not None:
                assert min(lift) >= 0 and phi @ lift == point
                lifted += 1
    assert lifted > 200


def test_non_integral_sizes_are_refused():
    for call in (
        lambda: product_ring(1.5, 0, 101),
        lambda: product_ring(1, 0.5, 101),
        lambda: toric_ideal(steinberg_monomial_map(), 3.5),
    ):
        with pytest.raises(ValueError, match="not an integer"):
            call()
    assert product_ring(1.0, 1.0, 101).ring.variables == ("A", "B", "C", "X", "Y", "Z", "x1")


def test_saturation_in_lex_computes_its_basis():
    ring = PolyRing(101, ("A", "B", "C", "X", "Y", "Z"))
    partial = Ideal(ring, ["A*Z - C*X", "A*X - C*Y", "A*X - B*Z"], order="lex")
    sat = saturate(partial, ring.parse("A*B*C*X*Y*Z"))
    assert sat._gb is None
    assert ideal_equal(sat, steinberg_minors_ideal(ring))
