"""Monomial maps, toric ideals, lattice point lifting, product rings."""

import json
import random
import time
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
    rank,
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
    """The basis `saturate` caches from its elimination equals one computed anew.

    The cached records are the elimination records shifted down by the t
    field, so each packed int must be the grevlex packing of its exponents.
    The last map's exponents of 40 and more need fields wider than 8 bits.
    """
    maps = _square_maps()
    assert len(maps) == 16
    wide = MonomialMap(IntMatrix.from_columns([(1, 0), (1, 1), (1, 39), (1, 40)]), ["a", "b", "c", "d"])
    cases = [toric_ideal(m, p) for m in maps + [wide] for p in (32003, 101, 3)] + [steinberg_ring_mod_l(101)]
    assert cases[-2].ideal._basis()[0].bits > 8
    for pres in cases:
        ideal = pres.ideal
        assert ideal._gb is not None  # filled by saturate, not by a later read
        packing, records = ideal._basis()
        for lt, tail in records:
            assert all(m == packing.pack(packing.unpack(m)) for m in (lt,) + tuple(m for m, _ in tail))
        fresh = Ideal(ideal.ring, ideal.generators)
        assert ideal.groebner() == fresh.groebner(), pres
        assert ideal.leading_exponents() == fresh.leading_exponents(), pres


def test_square_maps_reduce_a_pinned_number_of_s_pairs(monkeypatch):
    """The pair criteria leave 576 S-pairs to reduce over the 16 square-orbit maps at F_32003.

    A change to which pairs the criteria keep, or to the lattice basis the
    saturation starts from, moves this count.
    """
    formed = []
    s_terms = polyring._s_terms
    monkeypatch.setattr(polyring, "_s_terms", lambda *args: formed.append(1) or s_terms(*args))
    per_map = []
    for m in _square_maps():
        before = len(formed)
        toric_ideal(m, 32003).ideal  # the saturation runs when toric_ideal is called
        per_map.append(len(formed) - before)
    assert per_map == [24, 38, 48, 21, 29, 52, 17, 44, 32, 17, 24, 41, 34, 70, 38, 47]
    assert sum(per_map) == 576


def _seeded_maps(ncols):
    """The first six full-rank 3 x `ncols` maps with columns (1, a, b), 0 <= a, b <= 5.

    Drawn with random.Random(1), a rank-deficient draw skipped.
    """
    rng = random.Random(1)
    names = [f"v{i}" for i in range(ncols)]
    maps = []
    while len(maps) < 6:
        phi = IntMatrix.from_columns(
            [(1, rng.randint(0, 5), rng.randint(0, 5)) for _ in range(ncols)]
        )
        if rank(phi) == 3:
            maps.append(MonomialMap(phi, names))
    return maps


def _eliminated(map, char):
    """The toric ideal's reduced grevlex basis by eliminating the ring map.

    The ideal of x_j - t^(a_j) in F[t, x], t-variables first, meets F[x] in
    the toric ideal of the nonnegative columns a_j (Sturmfels, Groebner Bases
    and Convex Polytopes, ch. 4); the t-free elements of its basis in the
    order ("elim", d) generate that intersection.
    """
    phi, d = map.phi, map.phi.rows
    n = len(map.variable_names)
    ring = PolyRing(char, [f"t{i}_" for i in range(d)] + list(map.variable_names))
    gens = [
        ring.monomial((0,) * d + tuple(int(i == j) for i in range(n)))
        - ring.monomial(col + (0,) * n)
        for j, col in enumerate(phi.columns())
    ]
    target = PolyRing(char, map.variable_names)
    kept = [
        target.polynomial({e[d:]: c for e, c in g.terms.items()})
        for g in Ideal(ring, gens, order=("elim", d)).groebner()
        if all(e[:d] == (0,) * d for e in g.terms)
    ]
    return Ideal(target, kept).groebner()


def test_toric_ideals_agree_with_the_elimination_of_the_ring_map():
    """The saturated lattice route and the elimination route give one reduced basis.

    The 16 square-orbit maps at three fields, the surface and six seeded 3x8 maps.
    """
    cases = [(m, p) for m in _square_maps() for p in (32003, 101, 3)]
    cases += [(steinberg_monomial_map(), 101)] + [(m, 32003) for m in _seeded_maps(8)]
    for m, p in cases:
        assert toric_ideal(m, p).ideal.groebner() == _eliminated(m, p), (m, p)


def test_seeded_3x10_maps_answer_within_the_default_budgets():
    """All six seeded 3x10 maps answer within the 5,000-pair and 1,000-element budgets."""
    for m in _seeded_maps(10):
        basis = toric_ideal(m, 32003).ideal.groebner()
        assert basis
        for g in basis:  # every element is a binomial of the kernel
            (a, _), (b, _) = g.terms.items()
            assert m.phi @ a == m.phi @ b


def test_an_over_budget_saturation_raises_from_the_constructor(monkeypatch, capsys):
    """A presentation saturates when it is built, so the constructors themselves refuse.

    The surface's saturation reduces 25 S-pairs; its variety still defers the
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


def test_a_huge_lattice_entry_stops_on_the_reduction_budget(tmp_path, capsys):
    """The saturation of a map with an entry -10^8 stops on its reduction steps within 10 s.

    Before reduction steps were counted it ran on inside `polyring._reduce`,
    unfinished after 40 s, with its S-pairs and basis within their budgets.
    """
    phi = [[-(10**8), 2, 1, 0], [0, 1, 2, 3]]
    message = "reduction ran 1000001 steps, over its budget of 1000000"
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as err:
        toric_ideal(MonomialMap(IntMatrix(phi), ("a", "b", "c", "d")), 101)
    assert (str(err.value), err.value.budget) == (message, 10**6)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"phi": phi}))
    assert main(["ideal", "toric", str(path)]) == 1
    assert time.perf_counter() - start < 10
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"budget": 10**6, "code": "BUDGET_EXCEEDED", "message": message}


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
