"""Divisor class groups, divisorial modules, multiplicity, the MCM scan."""

import copy
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, product as iproduct
from math import ceil, floor
from operator import mul

import pytest

from torica import (
    BudgetExceeded,
    Cone,
    DivisorClass,
    NonUnique,
    NoSolution,
    ToricVariety,
    TorusDivisor,
    VarietyMismatch,
    a1_variety,
    affine_line_variety,
    affine_space_variety,
    canonical_class,
    canonical_divisor,
    class_arithmetic,
    class_group,
    div_of_character,
    divisor_from_ray_coeffs,
    enumerate_mcm_rank_one_candidates,
    half_canonical,
    module_generators,
    module_is_maximal_cohen_macaulay,
    multiplicity,
    run_checks,
    steinberg_multiplicity,
    steinberg_product_variety,
    steinberg_variety,
    trace_surjectivity_witness,
)
import torica.divisor
from torica import cone as cone_module
from torica.cone import _dot, _grading, _pulling, _region_cone
from torica.divisor import product as variety_product
from torica.zlinalg import IntMatrix, det, solve_rational

from suites import class_representative_suite


@pytest.fixture(scope="module")
def surface():
    return steinberg_variety()


def test_variety_requires_pointed_full_dimensional_cone():
    with pytest.raises(ValueError):
        ToricVariety(Cone(2, [(1, 0), (-1, 0), (0, 1)]))
    with pytest.raises(ValueError):
        ToricVariety(Cone(2, [(1, 0)]))


def test_surface_rays_in_lex_order(surface):
    assert surface.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, -1))


def test_class_group_of_surface(surface):
    cg = class_group(surface)
    assert cg.free_rank == 1
    assert cg.torsion == ()


def test_ray_divisor_classes(surface):
    classes = [
        divisor_from_ray_coeffs(surface, {u: 1}).divisor_class().free[0]
        for u in surface.rays
    ]
    # stored order D3, D2, D1, D0
    assert classes == [1, -2, -2, 1]


@pytest.mark.parametrize(
    "generators, presentation, coords, representatives",
    [
        (  # torsion: Z + Z/3
            [(-2, -1, -2), (-2, 2, -1), (-1, 2, 1), (0, 1, -1), (1, 2, 1)],
            (1, (3,)),
            [((-2,), (1,)), ((1,), (0,)), ((2,), (0,)), ((-3,), (2,))],
            [(4, -1, -1, -3), (-2, 0, 0, 1), (-4, 0, 0, 2), (6, -2, -2, -5)],
        ),
        (  # free rank 2
            [(-2, -1, -1), (-2, 1, 2), (-1, -2, 0), (-1, 1, 2), (1, 0, 1)],
            (2, ()),
            [((-7, -9), ()), ((0, 1), ()), ((4, 5), ()), ((1, 0), ()), ((-9, -11), ())],
            [
                (0, -9, 0, -7, 0), (0, 1, 0, 0, 0), (0, 5, 0, 4, 0),
                (0, 0, 0, 1, 0), (0, -11, 0, -9, 0),
            ],
        ),
    ],
)
def test_class_coordinates_where_they_are_not_canonical(
    generators, presentation, coords, representatives
):
    """Pinned: these coordinates are read off the Smith U, so a new Smith form shows up here."""
    v = ToricVariety(Cone(3, generators))
    cg = class_group(v)
    assert cg.presentation() == presentation
    n = len(v.rays)
    classes = [v.divisor([int(i == j) for j in range(n)]).divisor_class() for i in range(n)]
    assert [(c.free, c.torsion) for c in classes] == coords
    reps = [cg.representative(c) for c in classes]
    assert [r.coeffs for r in reps] == representatives
    assert [r.divisor_class() for r in reps] == classes


def test_principal_divisors_are_trivial(surface):
    assert div_of_character(surface, (1, 0, 0)).coeffs == (0, 0, 1, 2)
    assert div_of_character(surface, (0, 0, 1)).coeffs == (1, 0, 0, -1)
    rng = random.Random(47)
    for _ in range(200):
        m = tuple(rng.randint(-5, 5) for _ in range(3))
        assert div_of_character(surface, m).divisor_class().is_zero()


def test_divisor_arithmetic(surface):
    d = divisor_from_ray_coeffs(surface, {(0, 0, 1): 2})
    e = divisor_from_ray_coeffs(surface, {(1, 0, 0): 1})
    assert (d + e).coeffs == (2, 0, 1, 0)
    assert (d - e).coeffs == (2, 0, -1, 0)
    assert (-d).coeffs == (-2, 0, 0, 0)
    assert (3 * e).coeffs == (0, 0, 3, 0)
    assert d.divisor_class() + e.divisor_class() == (d + e).divisor_class()


def test_divisor_from_ray_coeff_pairs(surface):
    """The JSON pair-list form gives the same divisor as a mapping; unknown rays are refused."""
    pairs = divisor_from_ray_coeffs(surface, [[[1, 0, 0], -1], [[0, 0, 1], -1]])
    mapping = divisor_from_ray_coeffs(surface, {(1, 0, 0): -1, (0, 0, 1): -1})
    assert pairs.coeffs == mapping.coeffs == (-1, 0, -1, 0)
    with pytest.raises(ValueError):
        divisor_from_ray_coeffs(surface, [[[1, 1, 1], 1]])


def test_non_integral_coefficients_are_refused(surface):
    with pytest.raises(ValueError):
        TorusDivisor(surface, (-1.5, 0, -1, 0))
    with pytest.raises(ValueError):
        surface.divisor((0, 0.5, 0, 0))
    with pytest.raises(ValueError):
        divisor_from_ray_coeffs(surface, [[[1.5, 0, 0], -1]])
    with pytest.raises(ValueError):
        divisor_from_ray_coeffs(surface, [[[1, 0, 0], -1.5]])
    assert divisor_from_ray_coeffs(surface, [[[1.0, 0, 0], -1.0]]).coeffs == (0, 0, -1, 0)


def test_div_of_character_refuses_non_integral_points(surface):
    with pytest.raises(ValueError):
        div_of_character(surface, (0.5, 0, 0))
    assert div_of_character(surface, (1.0, 0, 0)) == div_of_character(surface, (1, 0, 0))


def test_divisor_times_non_integer_is_refused(surface):
    d = surface.divisor((-1, 0, -1, 0))
    with pytest.raises(ValueError):
        d * 1.5
    assert (d * 2.0).coeffs == (-2, 0, -2, 0)


def test_divisor_class_refuses_non_integral_coordinates(surface):
    with pytest.raises(ValueError):
        DivisorClass(surface, (1.5,))
    assert DivisorClass(surface, (1.0,)) == DivisorClass(surface, (1,))


def test_semigroup_contains_refuses_wrong_length_points(surface):
    with pytest.raises(ValueError):
        surface.semigroup_contains((1, 0))
    assert surface.semigroup_contains((1, 0, 2))


def test_module_contains_refuses_malformed_points(surface):
    module = module_generators(surface, surface.divisor((-1, 0, -1, 0)))
    with pytest.raises(ValueError):
        module.contains((1, 0, 1, 7))
    with pytest.raises(ValueError):
        module.contains((0.5, 0, 1))
    assert all(module.contains(g) for g in module.generators)


def test_variety_mismatch_is_rejected(surface):
    other = steinberg_variety()
    d = surface.zero_divisor()
    e = other.zero_divisor()
    with pytest.raises(VarietyMismatch):
        d + e
    with pytest.raises(VarietyMismatch):
        d.divisor_class() + e.divisor_class()


def test_canonical_class_and_half(surface):
    assert canonical_class(surface).free == (2,)
    assert half_canonical(surface).free == (1,)


def test_class_arithmetic_operations(surface):
    one = DivisorClass(surface, (1,))
    two = DivisorClass(surface, (2,))
    assert class_arithmetic(one, one, "add") == two
    assert class_arithmetic(one, None, "negate_then_add_canonical") == one
    assert class_arithmetic(two, None, "negate_then_add_canonical").free == (0,)
    with pytest.raises(ValueError):
        class_arithmetic(one, one, "multiply")


def test_class_duality_involution(surface):
    rng = random.Random(53)
    for _ in range(50):
        cls = DivisorClass(surface, (rng.randint(-10, 10),))
        assert cls.dual().dual() == cls
        assert cls + cls.dual() == canonical_class(surface)


def test_self_dual_class_is_half_canonical(surface):
    half = half_canonical(surface)
    assert half.dual() == half


def test_module_generators_ray_divisor(surface):
    d = divisor_from_ray_coeffs(surface, {(2, 2, -1): 1})
    module = module_generators(surface, d)
    assert module.generators == ((0, 0, 0), (0, 0, 1))
    assert module.contains((0, 0, 1))
    assert module.contains((1, 0, 3))
    assert not module.contains((0, 0, 2))


def test_module_generators_degree_one_model(surface):
    d = divisor_from_ray_coeffs(surface, {(1, 0, 0): -1, (0, 0, 1): -1})
    assert d.divisor_class().free == (1,)
    assert module_generators(surface, d).generators == ((1, 0, 1), (1, 0, 2))


def test_module_generators_canonical_models(surface):
    model = divisor_from_ray_coeffs(surface, {(1, 0, 0): -1})
    assert model.divisor_class() == canonical_class(surface)
    assert module_generators(surface, model).generators == (
        (1, 0, 0), (1, 0, 1), (1, 0, 2),
    )
    literal = canonical_divisor(surface)
    assert literal.divisor_class() == canonical_class(surface)
    assert module_generators(surface, literal).generators == (
        (1, 1, 1), (1, 1, 2), (1, 1, 3),
    )


def test_module_generators_generate_the_region(surface):
    """Spot-check: every region point below a grade cap is gen + semigroup."""
    d = divisor_from_ray_coeffs(surface, {(1, 0, 0): -1, (0, 0, 1): -1})
    module = module_generators(surface, d)
    gens = module.generators
    hb = surface.semigroup.hilbert_generators
    from itertools import product as iproduct

    for p in iproduct(range(-1, 5), range(-1, 5), range(-1, 7)):
        if not module.contains(p):
            continue
        reachable = any(
            surface.semigroup_contains(tuple(x - y for x, y in zip(p, g)))
            for g in gens
        )
        assert reachable, f"{p} not generated"


def test_module_generators_brute_force_oracle():
    """O(D) generators equal the minimal region points of a fixed wide cube.

    The cube [-16, 16]^d is fixed, not derived from the region's vertices
    or any zonotope, and is wider than every generator of these small
    cones. Region points are sieved in order of a grading that is positive
    on the dual cone, so each point is compared with the minimal points
    below it.
    """

    def pair(a, b):
        return sum(x * y for x, y in zip(a, b))

    rng = random.Random(41)
    half = 16
    cases = 0
    while cases < 16:
        dim = 2 + cases % 2
        ngens = dim + rng.randint(0, 2)
        drawn = [tuple(rng.randint(-1, 2) for _ in range(dim)) for _ in range(ngens)]
        cone = Cone(dim, drawn)
        if cone.dim() != dim or not cone.is_strongly_convex():
            continue
        v = ToricVariety(cone)
        coeffs = [rng.randint(-2, 2) for _ in v.rays]
        weight = [sum(g[i] for g in cone.generators) for i in range(dim)]
        region = sorted(
            (pair(weight, m), m)
            for m in iproduct(range(-half, half + 1), repeat=dim)
            if all(pair(m, u) >= -a for u, a in zip(v.rays, coeffs))
        )
        minimal = []
        for _, m in region:
            if not any(
                all(pair([x - y for x, y in zip(m, g)], u) >= 0 for u in cone.generators)
                for g in minimal
            ):
                minimal.append(m)
        got = module_generators(v, v.divisor(coeffs)).generators
        assert list(got) == sorted(minimal), (drawn, coeffs)
        cases += 1


def _pair(a, b):
    return sum(map(mul, a, b))


def _region_vertices(rays, coeffs):
    """Vertices of {m : <m, u> >= -a}, as m/t over the rays (m, t), t > 0, of the cone over it."""
    hom = _region_cone(rays, coeffs)[1]
    return [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in hom if r[-1] > 0]


def _reference_box_points(vertices, rays, weight):
    """(grade, point) over the zonotope box, as the box stood before slack coordinates."""
    d = len(weight)
    lo = [floor(min(v[i] for v in vertices)) + sum(min(0, r[i]) for r in rays) for i in range(d)]
    hi = [ceil(max(v[i] for v in vertices)) + sum(max(0, r[i]) for r in rays) for i in range(d)]
    bound = ceil(max(_pair(weight, v) for v in vertices)) + sum(_pair(weight, r) for r in rays)
    box = iproduct(*(range(l, h + 1) for l, h in zip(lo, hi)))
    return [(g, p) for g, p in ((_pair(weight, p), p) for p in box) if g <= bound]


def _reference_hilbert_basis(cone):
    """Box points sieved by Cone.contains on each difference with an accepted element."""
    d = cone.ambient_dim
    candidates = sorted(
        (g, p)
        for g, p in _reference_box_points([(0,) * d], cone.rays(), _grading(cone))
        if g > 0 and cone.contains(p)
    )
    basis = []
    for _, p in candidates:
        if not any(cone.contains(tuple(x - y for x, y in zip(p, b))) for b in basis):
            basis.append(p)
    return sorted(basis)


def _reference_module_generators(v, coeffs):
    """Region points of the box from which no Hilbert basis element can be taken."""

    def member(m):
        return all(_pair(m, u) >= -a for u, a in zip(v.rays, coeffs))

    box = _reference_box_points(
        _region_vertices(v.rays, coeffs), v.dual_cone.rays(), _grading(v.dual_cone)
    )
    return sorted(
        p
        for _, p in box
        if member(p)
        and not any(
            member(tuple(x - y for x, y in zip(p, h))) for h in v.semigroup.hilbert_generators
        )
    )


def _reference_trace_witness(v, gens_a, gens_b, target_gens):
    """Witness of O(a) O(b) = chi^m O(target), sieving products by semigroup_contains."""
    pts = sorted({tuple(x + y for x, y in zip(a, b)) for a in gens_a for b in gens_b})
    product_gens = [
        p
        for p in pts
        if not any(
            q != p and v.semigroup_contains(tuple(x - y for x, y in zip(p, q))) for q in pts
        )
    ]
    if len(product_gens) != len(target_gens):
        return False, None
    shift = tuple(x - y for x, y in zip(product_gens[0], target_gens[0]))
    if all(tuple(x + y for x, y in zip(t, shift)) == p for t, p in zip(target_gens, product_gens)):
        return True, shift
    return False, None


def _lattice_shaped_cones(rng, count):
    """Pointed full-dimensional cones in the lattice workload's shapes, plus the plane.

    Dimension 2 with 2 or 3 generators, entries in [-2, 3]; dimension 3 with
    4 or 5 generators, entries in [-1, 2]; dimension 4 simplicial, entries in
    [-1, 1], index 1 to 4.
    """
    strata = ((2, 2, -2, 3), (2, 3, -2, 3), (3, 4, -1, 2), (3, 5, -1, 2), (4, 4, -1, 1))
    cones = []
    while len(cones) < count:
        dim, ngens, lo, hi = strata[len(cones) % len(strata)]
        cone = Cone(dim, [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(ngens)])
        if len(cone.generators) < ngens or cone.dim() != dim or not cone.is_strongly_convex():
            continue
        if dim == 4 and abs(det(IntMatrix(cone.generators))) > 4:
            continue
        cones.append(cone)
    return cones


def test_slack_sieve_matches_reference_sieves():
    """Hilbert bases, module generators and trace witnesses equal the containment sieves'.

    The references are the sieves that slack coordinates replaced: Hilbert
    bases by `Cone.contains` on differences, module generators by region
    membership after subtracting each Hilbert basis element, and the trace
    witness's products by `semigroup_contains` on every pair.
    """
    rng = random.Random(47)
    witnessed = 0
    for cone in _lattice_shaped_cones(rng, 300):
        v = ToricVariety(cone)
        assert list(v.semigroup.hilbert_generators) == _reference_hilbert_basis(v.dual_cone)
        assert list(cone.hilbert_basis().hilbert_generators) == _reference_hilbert_basis(cone)
        d = v.divisor([rng.randint(-3, 3) for _ in v.rays])
        gens = module_generators(v, d).generators
        assert list(gens) == _reference_module_generators(v, d.coeffs), (cone, d)
        canonical_gens = module_generators(v, canonical_divisor(v)).generators
        expected = _reference_trace_witness(v, gens, gens, canonical_gens)
        assert trace_surjectivity_witness(v, d) == expected, (cone, d)
        witnessed += expected[0]
    assert witnessed > 0


def _box_size(vertices, rays):
    """Points of the zonotope box around conv(vertices) + [0, 1]·rays."""
    size = 1
    for i in range(len(vertices[0])):
        lo = floor(min(v[i] for v in vertices)) + sum(min(0, r[i]) for r in rays)
        hi = ceil(max(v[i] for v in vertices)) + sum(max(0, r[i]) for r in rays)
        size *= hi - lo + 1
    return size


def _parallelepiped_total(rays, normals, dim):
    """Sum of |det| over the simplices of the pulling triangulation of the cone on `rays`."""
    masks = [sum(1 << i for i, r in enumerate(rays) if _dot(u, r) == 0) for u in normals]
    simplices = _pulling((1 << len(rays)) - 1, masks, dim)
    return sum(
        abs(det(IntMatrix([r for i, r in enumerate(rays) if s >> i & 1]))) for s in simplices
    )


def test_parallelepipeds_match_box_oracles():
    """Hilbert bases and module generators equal the box scans', on non-simplicial cones too.

    300 seeded pointed cones: dimension 2 with 3 generators in [-3, 3],
    dimension 3 with 4 to 6 generators in [-2, 2], dimension 4 with 5 or 6
    generators in [0, 1], divisors in [-3, 3]; and 60 cones of lower
    dimension. The parallelepipeds of every Hilbert basis hold no more
    points than its zonotope box.
    """
    rng = random.Random(53)
    strata = (
        (2, 3, -3, 3), (3, 4, -1, 2), (3, 5, -1, 2), (3, 6, -2, 2), (4, 5, 0, 1), (4, 6, 0, 1)
    )
    cones = []
    while len(cones) < 300:
        dim, ngens, lo, hi = strata[len(cones) % len(strata)]
        cone = Cone(dim, [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(ngens)])
        if len(cone.generators) == ngens and cone.dim() == dim and cone.is_strongly_convex():
            cones.append(cone)
    non_simplicial = [c.ambient_dim for c in cones if len(c.rays()) > c.ambient_dim]
    assert len(non_simplicial) > 100 and non_simplicial.count(4) > 40
    for cone in cones:
        v = ToricVariety(cone)
        for c, basis in ((cone, cone.hilbert_basis()), (v.dual_cone, v.semigroup)):
            assert list(basis.hilbert_generators) == _reference_hilbert_basis(c), c
            total = _parallelepiped_total(c.rays(), c.dual_generators(), c.dim())
            assert total <= _box_size([(0,) * c.ambient_dim], c.rays()), c
        d = v.divisor([rng.randint(-3, 3) for _ in v.rays])
        assert list(module_generators(v, d).generators) == _reference_module_generators(v, d.coeffs)
    # cones of lower dimension, whose parallelepipeds lie in the lattice of their span
    lower = 0
    while lower < 60:
        dim = 2 + lower % 3
        basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim - 1)]
        drawn = [
            [sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(dim)] for _ in range(3)
        ]
        cone = Cone(dim, drawn)
        if cone.generators and cone.dim() < dim and cone.is_strongly_convex():
            assert list(cone.hilbert_basis().hilbert_generators) == _reference_hilbert_basis(cone)
            lower += 1


def test_modules_answer_by_the_work_they_do(monkeypatch):
    """Modules whose parallelepipeds hold more points than the budget answer all the same.

    The budget counts simplices and the parallelepiped nodes the height cut
    keeps, not the points a parallelepiped holds. The first region has
    vertices with denominators 9 and 19, and its parallelepipeds hold 2,663
    points against 2,184 in the zonotope box; it answers at a budget of
    2,500 and stops, naming the counter, at 200. The second region's
    parallelepipeds hold 4,671,375 points against a 34,400-point box; it
    gives its 20 generators within the default budget.
    """
    v = ToricVariety(Cone(3, [(-1, 2, 2), (1, 2, -1), (2, 1, -1), (2, 1, 2)]))
    d = v.divisor((-1, 0, 1, -1))
    rows, hom = _region_cone(v.rays, d.coeffs)
    assert _parallelepiped_total(hom, rows, len(rows[0])) == 2663
    assert _box_size(_region_vertices(v.rays, d.coeffs), v.dual_cone.rays()) == 2184
    monkeypatch.setattr(cone_module, "_LATTICE_BUDGET", 2500)
    assert list(module_generators(v, d).generators) == _reference_module_generators(v, d.coeffs)
    monkeypatch.setattr(cone_module, "_LATTICE_BUDGET", 200)
    with pytest.raises(BudgetExceeded) as info:
        module_generators(v, d)
    assert info.value.budget == 200
    assert str(info.value).startswith("triangulation counted ")
    assert str(info.value).endswith(" simplices and parallelepiped nodes, over its budget of 200")
    monkeypatch.undo()
    v = ToricVariety(Cone(3, [(-3, -3, 5), (-3, -1, -3), (-1, 0, -2), (4, -1, -4), (5, -1, 5)]))
    d = v.divisor((-1, 3, -1, -2))
    rows, hom = _region_cone(v.rays, d.coeffs)
    assert _parallelepiped_total(hom, rows, len(rows[0])) == 4671375
    gens = module_generators(v, d).generators
    assert len(gens) == 20
    assert list(gens) == _reference_module_generators(v, d.coeffs)


def test_module_generators_stop_on_the_sieve_count(surface):
    """Class 10000 on the surface gives about 10^4 candidates; the sieve's tests pass the budget."""
    rep = class_group(surface).representative(DivisorClass(surface, (10000,)))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        module_generators(surface, rep)
    assert time.perf_counter() - start < 5
    assert info.value.budget == 10**6
    assert str(info.value).startswith("minimal sieve ran ")
    assert str(info.value).endswith(" dominance tests, over its budget of 1000000")


def test_region_vertices_match_subset_enumeration():
    """Region vertices equal the feasible solutions of d-subsets of <m, u> = -a."""
    rng = random.Random(43)
    cases = 0
    while cases < 60:
        dim = 2 + cases % 3
        ngens = dim + rng.randint(0, 5)
        drawn = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(ngens)]
        cone = Cone(dim, drawn)
        if cone.dim() != dim or not cone.is_strongly_convex():
            continue
        rays = cone.rays()
        spread = rng.choice((1, 3))  # small coefficients put many ray hyperplanes through a vertex
        coeffs = [rng.randint(-spread, spread) for _ in rays]
        expected = set()
        for subset in combinations(range(len(rays)), dim):
            system = IntMatrix([rays[i] for i in subset])
            sol = solve_rational(system, [-coeffs[i] for i in subset])
            if sol is not None and all(
                sum(x * y for x, y in zip(sol, u)) >= -a for u, a in zip(rays, coeffs)
            ):
                expected.add(tuple(sol))
        assert set(_region_vertices(rays, coeffs)) == expected, (drawn, coeffs)
        cases += 1


def test_trace_witness_to_canonical_model(surface):
    d = divisor_from_ray_coeffs(surface, {(1, 0, 0): -1, (0, 0, 1): -1})
    target = divisor_from_ray_coeffs(surface, {(1, 0, 0): -1})
    ok, witness = trace_surjectivity_witness(surface, d, target=target)
    assert ok and witness == (1, 0, 2)


def test_trace_witness_to_literal_canonical(surface):
    d = divisor_from_ray_coeffs(surface, {(1, 0, 0): -1, (0, 0, 1): -1})
    ok, witness = trace_surjectivity_witness(surface, d)
    assert ok and witness == (1, -1, 1)


def test_default_trace_witness_enumerates_each_module_once(surface, monkeypatch):
    """With `other` defaulting to d, only O(d) and the canonical module are enumerated."""
    calls = []

    def counted(v, d):
        calls.append(d.coeffs)
        return module_generators(v, d)

    monkeypatch.setattr(torica.divisor, "module_generators", counted)
    d = surface.divisor((1, 0, 0, 0))
    assert trace_surjectivity_witness(surface, d) == trace_surjectivity_witness(surface, d, d)
    assert calls == [(1, 0, 0, 0), (-1, -1, -1, -1)] * 2


def test_trace_witness_failure_case(surface):
    d = surface.zero_divisor()  # O(0) . O(0) has 1 generator, omega has 3
    ok, witness = trace_surjectivity_witness(surface, d)
    assert not ok and witness is None


def test_half_canonical_quadric_cone():
    v = a1_variety()
    cg = class_group(v)
    assert (cg.free_rank, cg.torsion) == (0, (2,))
    with pytest.raises(NonUnique) as err:
        half_canonical(v)
    assert err.value.count == 2


def test_half_canonical_odd_free_coordinate():
    v = ToricVariety(Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -1)]))
    assert canonical_class(v).free == (1,)
    with pytest.raises(NoSolution):
        half_canonical(v)


def test_half_canonical_odd_torsion():
    # cone (1,0),(1,3): class group Z/3, canonical has a unique half
    v = ToricVariety(Cone(2, [(1, 0), (1, 3)]))
    cg = class_group(v)
    assert (cg.free_rank, cg.torsion) == (0, (3,))
    half = half_canonical(v)
    assert (half + half) == canonical_class(v)


def test_canonical_class_is_non_negative_on_seeded_cones():
    """Each free generator is oriented so that the canonical class has a coordinate >= 0 on it."""
    rng = random.Random(23)
    checked = 0
    while checked < 500:
        d = rng.choice((2, 3, 4))
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d, d + 2))]
        try:
            v = ToricVariety(Cone(d, gens))
        except ValueError:
            continue  # not pointed or not full-dimensional
        checked += 1
        assert all(x >= 0 for x in canonical_class(v).free), gens


def test_class_orientation_tie_break_is_pinned():
    """The canonical class is 0 on this cone's free generator, so its leading sign orients it."""
    v = ToricVariety(Cone(3, [(-1, -3, -1), (-1, -3, 2), (1, 0, -1), (1, 0, 0)]))
    assert v.rays == ((-1, -3, -1), (-1, -3, 2), (1, 0, -1), (1, 0, 0))
    assert (class_group(v).free_rank, class_group(v).torsion) == (1, (3,))
    assert canonical_class(v) == DivisorClass(v, (0,), (1,))
    classes = [divisor_from_ray_coeffs(v, {u: 1}).divisor_class() for u in v.rays]
    assert [(c.free, c.torsion) for c in classes] == [
        ((1,), (1,)), ((-1,), (0,)), ((-3,), (2,)), ((3,), (2,))
    ]


def test_smooth_varieties_have_trivial_class_group():
    for v in (affine_line_variety(), affine_space_variety(3)):
        cg = class_group(v)
        assert (cg.free_rank, cg.torsion) == (0, ())
        assert half_canonical(v).is_zero()
        rep = cg.representative(half_canonical(v))
        assert module_generators(v, rep).generators == ((0,) * v.cone.ambient_dim,)


def test_product_variety_structure():
    v = steinberg_product_variety(2, 1)
    assert v.cone.ambient_dim == 7
    assert len(v.rays) == 9
    assert len(v.factors) == 3
    cg = class_group(v)
    assert (cg.free_rank, cg.torsion) == (2, ())
    assert canonical_class(v).free == (2, 2)
    assert half_canonical(v).free == (1, 1)


def test_product_module_generators_are_boxes():
    v = steinberg_product_variety(2, 1)
    rep = class_group(v).representative(half_canonical(v))
    gens = module_generators(v, rep).generators
    assert len(gens) == 4
    # generators form a cartesian product across the two surface factors
    firsts = {g[:3] for g in gens}
    seconds = {g[3:6] for g in gens}
    assert len(firsts) == 2 and len(seconds) == 2
    assert {(a + b) for a in firsts for b in seconds} == {g[:6] for g in gens}


def test_multiplicity_table():
    table = {(0, 0): 1, (1, 0): 2, (1, 2): 2, (2, 0): 4, (3, 1): 8}
    for (k, s), expected in table.items():
        assert steinberg_multiplicity(k, s) == expected


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_product_law_beyond_four_surface_factors(k):
    assert steinberg_multiplicity(k, 0) == 2**k


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_flat_product_cone_gives_the_product_law(k):
    """S^k as one cone with no factors: 2^k generators, the factorwise ones."""
    factorwise = steinberg_product_variety(k, 0)
    flat = ToricVariety(Cone(3 * k, factorwise.cone.generators))
    assert not flat.is_product() and flat.rays == factorwise.rays
    assert multiplicity(flat) == 2**k
    rep = class_group(factorwise).representative(half_canonical(factorwise))
    flat_gens = module_generators(flat, flat.divisor(rep.coeffs)).generators
    assert flat_gens == module_generators(factorwise, rep).generators


def test_large_product_variety_is_assembled_from_factors():
    k = 6
    v = steinberg_product_variety(k, 1)
    assert len(v.rays) == 4 * k + 1
    cg = class_group(v)
    assert (cg.free_rank, cg.torsion) == (k, ())
    assert all(f is v.factors[0] for f in v.factors[:k])
    surface_dual_rays = ((0, 1, 0), (0, 1, 2), (1, 0, 0), (1, 0, 2))
    dim = 3 * k + 1
    embedded = [
        (0,) * (3 * i) + r + (0,) * (dim - 3 * i - 3) for i in range(k) for r in surface_dual_rays
    ]
    embedded.append((0,) * (dim - 1) + (1,))
    assert v.dual_cone.rays() == tuple(sorted(embedded))


def test_product_constructor_rejects_missing_factor_rays():
    surface = steinberg_variety()
    line = affine_line_variety()
    rays = [r + (0,) for r in surface.rays[1:]] + [(0, 0, 0, 1)]
    cone = Cone(4, rays)
    with pytest.raises(ValueError):
        ToricVariety(cone, factors=(surface, line))


def _pairwise_product(c1, c2):
    """The product of two cones by the pairwise route: both factors embedded and sorted."""
    d1, d2 = c1.ambient_dim, c2.ambient_dim

    def embed(first, second):
        return [g + (0,) * d2 for g in first] + [(0,) * d1 + h for h in second]

    cone = Cone._trusted(d1 + d2, tuple(sorted(embed(c1.generators, c2.generators))))
    cone._dual_gens = tuple(sorted(embed(c1.dual_generators(), c2.dual_generators())))
    cone._dim = c1.dim() + c2.dim()
    cone._pointed = True
    cone._rays = tuple(sorted(embed(c1.rays(), c2.rays())))
    return cone


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("k", range(1, 7))
def test_composed_product_matches_the_pairwise_folds(k, s):
    """Every part built from the factors equals the pairwise fold over them."""
    v = steinberg_product_variety(k, s)
    factors = v.factors
    for fold in (_pairwise_product, Cone.product):
        cone = reduce(fold, (f.cone for f in factors))
        dual = reduce(fold, (f.dual_cone for f in factors))
        assert v.rays == cone.rays()
        assert v.cone.generators == cone.generators
        assert v.cone.dual_generators() == cone.dual_generators()
        assert v.dual_cone.generators == dual.generators
        assert v.dual_cone.rays() == dual.rays()
        assert v.dual_cone.dual_generators() == dual.dual_generators()
    dim, gens = 0, []
    for f in factors:
        pad = v.cone.ambient_dim - dim - f.cone.ambient_dim
        gens += [(0,) * dim + h + (0,) * pad for h in f.semigroup.hilbert_generators]
        dim += f.cone.ambient_dim
    assert v.semigroup.hilbert_generators == tuple(sorted(gens))
    d = v.divisor(range(len(v.rays)))
    parts = v.split_divisor(d)
    dim = 0
    for f, part in zip(factors, parts):
        for u, c in zip(f.rays, part.coeffs):
            embedded = (0,) * dim + u + (0,) * (v.cone.ambient_dim - dim - len(u))
            assert d.coeffs[v.rays.index(embedded)] == c
        dim += f.cone.ambient_dim
    assert v.join_coeffs([p.coeffs for p in parts]) == d.coeffs


def _two_sided_cones(rng, count):
    """`count` seeded pointed full cones of dimension 2 or 3 with rays on both sides of 0 in lex.

    A ray below 0, whose first nonzero entry is negative, sorts before every
    ray of a later factor in a product, and a ray above 0 after them.
    """
    found = []
    while len(found) < count:
        dim = rng.randint(2, 3)
        c = Cone(dim, [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim + 1)])
        if c.is_strongly_convex() and c.dim() == dim and min(c.rays()) < (0,) * dim < max(c.rays()):
            found.append(c)
    return found


def test_interleaved_product_rays_follow_the_sorted_embedded_order():
    """A factor ray of negative lead sorts before a later factor's rays, so the factors interleave.

    On seeded products of 2 and 3 such cones, the first factor's rays come
    first and last, `rays` and `_ray_split` match every factor ray embedded
    and sorted, split and join are inverse, principal divisors have class 0,
    and `project` undoes `representative`.
    """
    corner = ToricVariety(Cone(2, [(1, 0), (-1, 2)]))
    assert variety_product(corner, corner)._ray_split == ((0, 0), (1, 0), (1, 1), (0, 1))
    rng = random.Random(33)
    for _ in range(12):
        factors = [ToricVariety(c) for c in _two_sided_cones(rng, rng.randint(2, 3))]
        v = ToricVariety(factors=factors)
        total, at, reference = v.cone.ambient_dim, 0, []
        for pos, f in enumerate(factors):
            pad = total - at - f.cone.ambient_dim
            reference += [((0,) * at + u + (0,) * pad, (pos, i)) for i, u in enumerate(f.rays)]
            at += f.cone.ambient_dim
        reference.sort()
        assert v.rays == tuple(u for u, _ in reference)
        assert v._ray_split == tuple(where for _, where in reference)
        positions = [pos for pos, _ in v._ray_split]
        assert positions[0] == positions[-1] == 0 < max(positions)
        d = v.divisor([rng.randint(-5, 5) for _ in v.rays])
        parts = v.split_divisor(d)
        assert v.join_coeffs([p.coeffs for p in parts]) == d.coeffs
        assert [p.coeffs for p in parts] == [
            tuple(d.coeffs[v._ray_split.index((pos, i))] for i in range(len(f.rays)))
            for pos, f in enumerate(factors)
        ]
        principal = div_of_character(v, [rng.randint(-4, 4) for _ in range(total)])
        assert principal.divisor_class().is_zero()
        cg = class_group(v)
        for _ in range(5):
            cls = DivisorClass(
                v,
                [rng.randint(-6, 6) for _ in range(cg.free_rank)],
                [rng.randint(0, m - 1) for m in cg.torsion],
            )
            assert cg.project(cg.representative(cls)) == cls


def test_multiplicity_composes_no_product(monkeypatch):
    """What reads only rays and classes builds no semigroup, product cone or presentation."""

    def refuse(*args):
        raise AssertionError("built a part that was not read")

    monkeypatch.setattr(Cone, "product", refuse)
    monkeypatch.setattr(Cone, "hilbert_basis", refuse)
    monkeypatch.setattr(torica.divisor, "_product", refuse)
    monkeypatch.setattr(torica.divisor, "steinberg_ring_mod_l", refuse)
    monkeypatch.setattr(torica.divisor, "_power_presentation", refuse)
    assert steinberg_multiplicity(6, 1) == 64
    v = steinberg_product_variety(6, 1)
    assert multiplicity(v) == 64
    cg = v.class_group()
    assert (cg.free_rank, cg.torsion) == (6, ())
    rep = cg.representative(half_canonical(v))
    assert len(module_generators(v, rep).generators) == 64
    assert half_canonical(steinberg_product_variety(200, 0)).free == (1,) * 200
    flat = ToricVariety(Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, -1)]))
    assert class_group(flat).presentation() == (1, ())
    reads = (
        lambda: v.cone,
        lambda: v.dual_cone,
        lambda: v.semigroup,
        lambda: v.presentation,
        lambda: v.factors[0].semigroup,
        lambda: v.factors[0].presentation,
        lambda: flat.semigroup,
    )
    for read in reads:
        with pytest.raises(AssertionError):
            read()


def test_copying_a_variety_builds_no_part(monkeypatch):
    """A copy shares the parts built so far and builds none of the others."""

    def refuse(*args):
        raise AssertionError("built a part that was not read")

    monkeypatch.setattr(Cone, "hilbert_basis", refuse)
    monkeypatch.setattr(Cone, "dual", refuse)
    v = ToricVariety(Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, -1)]))
    w = copy.copy(v)
    assert w.cone is v.cone
    assert class_group(w).presentation() == (1, ())


def test_flat_s8_class_group_without_its_semigroup():
    """Flat S^8 answers its class group; only reading its semigroup runs the sieve over budget."""
    flat = ToricVariety(Cone(24, steinberg_product_variety(8, 0).cone.generators))
    assert class_group(flat).presentation() == (8, ())
    with pytest.raises(BudgetExceeded):
        flat.semigroup


def test_product_law_of_two_hundred_surfaces_in_under_a_second():
    start = time.perf_counter()
    assert steinberg_multiplicity(200, 0) == 2**200
    assert time.perf_counter() - start < 1


def test_product_constructor_accepts_a_matching_cone():
    surface, line = steinberg_variety(), affine_line_variety()
    composed = variety_product(surface, line)
    for gens in (composed.rays, composed.rays + (tuple(map(sum, zip(*composed.rays))),)):
        cone = Cone(4, gens)
        v = ToricVariety(cone, factors=(surface, line))
        assert v.cone is cone
        assert v.rays == composed.rays
        assert v._ray_split == composed._ray_split


def test_surface_constructors_refuse_a_bad_field_when_built():
    """The presentations are built on first read, but their field is refused at once."""
    with pytest.raises(ValueError, match="odd primes"):
        steinberg_variety(2)
    for k, s in ((1, 1), (0, 2), (0, 1)):
        with pytest.raises(ValueError, match="must be prime"):
            steinberg_product_variety(k, s, field=4)


def test_non_integral_sizes_and_fields_are_refused():
    for call in (
        lambda: steinberg_product_variety(1.5, 0),
        lambda: steinberg_product_variety(1, 0.5),
        lambda: steinberg_product_variety(0, 1, 3.5),
        lambda: steinberg_multiplicity(1.5, 0),
        lambda: affine_space_variety(2.5),
        lambda: steinberg_variety(3.5),
        lambda: run_checks(3.5),
    ):
        with pytest.raises(ValueError, match="not an integer"):
            call()
    assert steinberg_multiplicity(2.0, 1.0) == 4
    assert affine_space_variety(3.0).rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_multiplicity_matches_variety_route():
    v = steinberg_product_variety(2, 1)
    assert multiplicity(v) == steinberg_multiplicity(2, 1) == 4


def test_mcm_scan_exact_result(surface):
    results = enumerate_mcm_rank_one_candidates(surface)
    assert [(cls.free[0], n) for cls, n in results] == [
        (-1, 4), (0, 1), (1, 2), (2, 3), (3, 4),
    ]


def test_mcm_scan_computes_no_hilbert_basis(monkeypatch):
    """The scan reads no semigroup: its witnesses and module generators come from the rays."""

    def refuse(*args):
        raise AssertionError("computed a Hilbert basis")

    monkeypatch.setattr(Cone, "hilbert_basis", refuse)
    results = enumerate_mcm_rank_one_candidates(steinberg_variety())
    assert [(cls.free[0], n) for cls, n in results] == [
        (-1, 4), (0, 1), (1, 2), (2, 3), (3, 4),
    ]


def test_mcm_certificate_rejects_even_negative_classes(surface):
    """Classes -2, -4, -6 pass the size filter but fail depth."""
    cg = class_group(surface)
    for k, expected_gens in ((-2, 2), (-4, 3), (-6, 4)):
        rep = cg.representative(DivisorClass(surface, (k,)))
        gens = module_generators(surface, rep).generators
        assert len(gens) == expected_gens <= 4
        assert not module_is_maximal_cohen_macaulay(surface, gens)


def test_mcm_certificate_accepts_ring_and_canonical(surface):
    cg = class_group(surface)
    for k in (0, 2):
        rep = cg.representative(DivisorClass(surface, (k,)))
        gens = module_generators(surface, rep).generators
        assert module_is_maximal_cohen_macaulay(surface, gens)


def test_mcm_certificate_needs_the_surface_presentation(surface):
    """The surface's parameter sequence is the only one; other varieties are refused before it."""
    with pytest.raises(ValueError, match="no default parameter sequence for this presentation"):
        module_is_maximal_cohen_macaulay(steinberg_product_variety(1, 1), [(0, 0, 0, 0)])
    with pytest.raises(ValueError, match="variety has no ring presentation"):
        module_is_maximal_cohen_macaulay(ToricVariety(surface.cone), [(0, 0, 0)])


def _gamma_disconnected(v, d, m):
    """Whether m's satisfied rays form a nonempty proper set that the facets leave disconnected.

    The facets are read off the cone's dual generators, and connectivity
    is found by a walk along them, not by counting.
    """
    rays = v.rays
    sat = {i for i, (u, a) in enumerate(zip(rays, d.coeffs)) if _dot(m, u) + a >= 0}
    if not sat or len(sat) == len(rays):
        return False
    edges = [
        {i for i, u in enumerate(rays) if _dot(n, u) == 0} for n in v.cone.dual_generators()
    ]
    seen, todo = set(), [min(sat)]
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo.extend(j for e in edges if i in e and e <= sat for j in e)
    return seen != sat


def _witness_disagreements(v, certified):
    """Classes k where witness and certificate disagree, or the witness fails its direct check."""
    cg = class_group(v)
    wrong = []
    for k, is_mcm in certified.items():
        rep = cg.representative(DivisorClass(v, (k,)))
        m = torica.divisor._local_cohomology_witness(v, rep)
        if (m is None) != is_mcm or m is not None and not _gamma_disconnected(v, rep, m):
            wrong.append(k)
    return wrong


def test_local_cohomology_witness_matches_certificate(surface, monkeypatch):
    """On every class -15..15, gen_bound aside: a witness exists exactly when the certificate fails.

    Each witness m is checked directly: its satisfied rays are a nonempty
    proper set that is not one arc of the facet cycle. A criterion that
    takes every Γ for acyclic finds no witness and must fail the comparison.
    """
    cg = class_group(surface)
    certified = {}
    for k in range(-15, 16):
        rep = cg.representative(DivisorClass(surface, (k,)))
        certified[k] = module_is_maximal_cohen_macaulay(
            surface, module_generators(surface, rep).generators
        )
    assert [k for k, ok in certified.items() if ok] == [-1, 0, 1, 2, 3]
    assert _witness_disagreements(surface, certified) == []
    # a variety lists its non-arc subsets once, so the broken criterion needs a fresh one
    monkeypatch.setattr(torica.divisor, "_is_arc", lambda subset, facets: True)
    assert _witness_disagreements(steinberg_variety(), certified) == [
        k for k, ok in certified.items() if not ok
    ]


def test_local_cohomology_witness_against_box_scan(monkeypatch):
    """On seeded 3-dimensional cones, a box degree whose Γ is disconnected implies a witness.

    A search over the lattice budget raises BudgetExceeded; none of these
    40 cones reaches it.
    """
    over_budget = []
    real = torica.divisor._region_points

    def recorded(*args):
        try:
            yield from real(*args)
        except BudgetExceeded:
            over_budget.append(args)
            raise

    monkeypatch.setattr(torica.divisor, "_region_points", recorded)
    rng = random.Random(13)
    tried = found = 0
    while tried < 40:
        c = Cone(3, [tuple(rng.randint(-3, 4) for _ in range(3)) for _ in range(rng.randint(3, 5))])
        if not c.is_strongly_convex() or c.dim() != 3:
            continue
        v = ToricVariety(c)
        d = v.divisor([rng.randint(-3, 3) for _ in v.rays])
        tried += 1
        over_budget.clear()
        m = torica.divisor._local_cohomology_witness(v, d)
        if m is not None:
            found += 1
            assert _gamma_disconnected(v, d, m), (c, d, m)
        elif not over_budget:
            assert not any(
                _gamma_disconnected(v, d, p) for p in iproduct(range(-6, 7), repeat=3)
            ), (c, d)
    assert found >= 3


def test_local_cohomology_witness_in_a_region_of_many_parallelepiped_points():
    """The non-arc region of rays 0 and 2 holds 5,087,327 parallelepiped points; a witness is found.

    The point is not pinned: its satisfied rays, read off the inequalities,
    must form a nonempty proper set that the facets leave disconnected.
    """
    v = ToricVariety(Cone(3, [(1, 3, -2), (2, 4, 3), (-1, 4, 0), (-1, -3, 4)]))
    d = v.divisor((2, -2, 3, -3))
    signed = [u if i in (0, 2) else tuple(-x for x in u) for i, u in enumerate(v.rays)]
    coeffs = [a if i in (0, 2) else -a - 1 for i, a in enumerate(d.coeffs)]
    rows, hom = _region_cone(signed, coeffs)
    assert _parallelepiped_total(hom, rows, len(rows[0])) == 5087327
    m = torica.divisor._local_cohomology_witness(v, d)
    assert m is not None
    assert _gamma_disconnected(v, d, m), m


def test_local_cohomology_witness_over_the_lattice_budget_raises(monkeypatch):
    """A search that would pass the budget raises; it does not report the absence of a witness."""
    v = ToricVariety(Cone(3, [(1, 3, -2), (2, 4, 3), (-1, 4, 0), (-1, -3, 4)]))
    d = v.divisor((2, -2, 3, -3))
    monkeypatch.setattr(cone_module, "_LATTICE_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        torica.divisor._local_cohomology_witness(v, d)


def test_local_cohomology_witness_only_in_dimension_3(surface):
    """Class -2 of the surface has a witness; off dimension 3 the search is refused, not None.

    An answer of None would read as MCM, so the quadric cone (dimension 2)
    and surface x line (dimension 4) raise the scan's dimension error.
    """
    witness = torica.divisor._local_cohomology_witness
    assert witness(surface, class_group(surface).representative(DivisorClass(surface, (-2,))))
    for v, dim in ((a1_variety(), 2), (steinberg_product_variety(1, 1), 4)):
        message = f"the MCM scan needs a 3-dimensional cone, got dimension {dim}"
        with pytest.raises(ValueError, match=message):
            witness(v, v.zero_divisor())


def test_mcm_scan_makes_no_certificate_call(monkeypatch):
    """The witness alone decides the scan: a certificate that refuses to run is never reached."""

    def refuse(*args, **kwargs):
        raise AssertionError("ran a regular-sequence certificate")

    monkeypatch.setattr(torica.divisor, "module_is_maximal_cohen_macaulay", refuse)
    monkeypatch.setattr(torica.divisor, "module_regular_sequence", refuse)
    results = enumerate_mcm_rank_one_candidates(steinberg_variety())
    assert [(cls.free[0], n) for cls, n in results] == [
        (-1, 4), (0, 1), (1, 2), (2, 3), (3, 4),
    ]


def test_mcm_scan_represents_class_k_by_k_times_one_generator(monkeypatch):
    """The scan asks the class group for class 1's representative r alone, and k·r has class k."""
    asked = []
    representative = torica.divisor.ClassGroup.representative

    def counted(cg, cls):
        asked.append(cls.free)
        return representative(cg, cls)

    monkeypatch.setattr(torica.divisor.ClassGroup, "representative", counted)
    v = steinberg_variety()
    assert len(enumerate_mcm_rank_one_candidates(v)) == 5
    assert asked == [(1,)]
    cg = class_group(v)
    for k in range(-6, 9):
        assert cg.project(k * v._class_generator) == DivisorClass(v, (k,))


def test_mcm_scan_matches_the_certificate_over_its_range(surface):
    """On every class -6..8, generator count aside, the certificate accepts exactly the scanned classes."""
    cg = class_group(surface)
    lo, hi = surface._scan_bounds
    certified = [
        k
        for k in range(lo + 1, hi)
        if module_is_maximal_cohen_macaulay(
            surface,
            module_generators(surface, cg.representative(DivisorClass(surface, (k,)))).generators,
        )
    ]
    scanned = [cls.free[0] for cls, _ in enumerate_mcm_rank_one_candidates(surface)]
    assert (lo + 1, hi - 1) == (-6, 8)
    assert certified == scanned == [-1, 0, 1, 2, 3]


def test_mcm_scan_enumerates_generators_only_for_classes_without_witness(monkeypatch):
    """The scan asks the 15 classes -6..8 for a witness and enumerates the generators of 5."""
    calls = {"witness": 0, "generators": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(
        torica.divisor,
        "_local_cohomology_witness",
        counted("witness", torica.divisor._local_cohomology_witness),
    )
    monkeypatch.setattr(
        torica.divisor, "module_generators", counted("generators", module_generators)
    )
    results = enumerate_mcm_rank_one_candidates(steinberg_variety())
    assert [(cls.free[0], n) for cls, n in results] == [
        (-1, 4), (0, 1), (1, 2), (2, 3), (3, 4),
    ]
    assert calls == {"witness": 15, "generators": 5}


def test_mcm_scan_charges_its_class_count_before_the_first_class(surface, monkeypatch):
    """The 15 classes of the proved range are charged at once: within a budget of 15, over 14."""

    def refuse(*args):
        raise AssertionError("scanned a class")

    monkeypatch.setattr(torica.divisor, "_SCAN_BUDGET", 15)
    assert len(enumerate_mcm_rank_one_candidates(surface)) == 5
    monkeypatch.setattr(torica.divisor, "_SCAN_BUDGET", 14)
    monkeypatch.setattr(torica.divisor, "_local_cohomology_witness", refuse)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_mcm_rank_one_candidates(surface)
    assert (str(info.value), info.value.budget) == (
        "mcm scan spans 15 classes, over its budget of 14", 14
    )


def test_mcm_scan_bounds_of_the_surface(surface):
    """Every class <= -7 and >= 9 of the surface has a witness, so -6..8 decide every MCM class."""
    assert surface._scan_bounds == (-7, 9)
    witness = torica.divisor._local_cohomology_witness
    cg = class_group(surface)
    for k in (-8, -7, 9, 10):
        assert witness(surface, cg.representative(DivisorClass(surface, (k,)))) is not None


def test_mcm_scan_refuses_a_dimension_other_than_3():
    """S x A^1 has Cl = Z but dimension 4, where the proved range does not hold; it is refused."""
    v = steinberg_product_variety(1, 1)
    assert class_group(v).presentation() == (1, ())
    with pytest.raises(ValueError, match="needs a 3-dimensional cone, got dimension 4"):
        enumerate_mcm_rank_one_candidates(v)


def _seeded_scan_cones(count, seed=7):
    """`count` varieties of seeded 3-dimensional cones with 4 rays, entries in [-2, 3], Cl = Z."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        c = Cone(3, [tuple(rng.randint(-2, 3) for _ in range(3)) for _ in range(4)])
        if not c.is_strongly_convex() or c.dim() != 3 or len(c.rays()) != 4:
            continue
        v = ToricVariety(c)
        if class_group(v).presentation() == (1, ()):
            found.append(v)
    return found


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _conic_classes(v):
    """The classes of the conic divisors (floor <y, u_rho>)_rho, y in R^3, from their arrangement.

    The arrangement {<y, u_rho> in Z} is Z^3-periodic and its cells are
    bounded, so each open cell has, up to a translation in Z^3, a vertex p
    in [0, 1)^3 where three of the planes meet. Near p, y = p + e w has the floor vector of p less 1
    at each tight ray with <w, u> < 0. Every sign pattern of <w, u> on the
    tight rays is realized, except, when all four are tight, the two that
    agree or disagree everywhere with the ray classes c_rho: by Gordan,
    sum c_rho u_rho = 0 is then the only relation in the way.
    """
    rays, cg = v.rays, class_group(v)
    c = [cg.project(v.divisor([int(i == j) for j in range(4)])).free[0] for i in range(4)]
    classes = set()
    for triple in combinations(range(4), 3):
        m = [rays[i] for i in triple]
        # the columns of det * m^-1 are the cross products of the other two rows
        cols = [_cross(m[(i + 1) % 3], m[(i + 2) % 3]) for i in range(3)]
        det = _dot(m[0], cols[0])
        box = [range(sum(min(x, 0) for x in u), sum(max(x, 0) for x in u) + 1) for u in m]
        for n in iproduct(*box):
            p = [sum(k * col[j] for k, col in zip(n, cols)) for j in range(3)]  # det * the vertex
            if not all(0 <= x * det < det * det for x in p):
                continue
            pairing = [_dot(p, u) for u in rays]
            base = [x // det for x in pairing]
            tight = [i for i, x in enumerate(pairing) if x % det == 0]
            for signs in iproduct((1, -1), repeat=len(tight)):
                if len(tight) == 4 and len({s * c[i] > 0 for s, i in zip(signs, tight)}) == 1:
                    continue
                floor = list(base)
                for s, i in zip(signs, tight):
                    floor[i] -= s < 0
                classes.add(_dot(c, floor))
    return sorted(classes)


def test_conic_classes_of_the_surface_are_its_mcm_classes(surface):
    assert _conic_classes(surface) == [-1, 0, 1, 2, 3]


def test_mcm_scan_bounds_and_conic_classes_on_seeded_cones():
    """On 40 seeded cones every class in [lo - 25, lo] and [hi, hi + 25] has a witness.

    The conic classes, MCM by Bruns & Gubeladze (2003), lie strictly
    between the bounds and have none.
    """
    witness = torica.divisor._local_cohomology_witness
    for v in _seeded_scan_cones(40):
        lo, hi = v._scan_bounds
        cg = class_group(v)

        def refuted(k):
            return witness(v, cg.representative(DivisorClass(v, (k,)))) is not None

        beyond = [*range(lo - 25, lo + 1), *range(hi, hi + 26)]
        assert all(refuted(k) for k in beyond), (v.rays, lo, hi)
        conic = _conic_classes(v)
        assert all(lo < k < hi and not refuted(k) for k in conic), (v.rays, lo, hi, conic)


def test_mcm_scan_answers_seeded_cone_documents():
    """The first 12 seeded cones scan with no presentation; their conic classes are in the answer.

    Each generator count is that of the class's module.
    """
    for v in _seeded_scan_cones(12):
        results = enumerate_mcm_rank_one_candidates(v)
        lo, hi = v._scan_bounds
        cg = class_group(v)
        found = [cls.free[0] for cls, _ in results]
        assert all(lo < k < hi for k in found), (v.rays, lo, hi, found)
        assert set(_conic_classes(v)) <= set(found), (v.rays, found)
        for cls, n in results:
            assert n == len(module_generators(v, cg.representative(cls)).generators), (v.rays, cls)


def test_an_oversized_product_stops_on_its_factor_budget():
    """S^(10^9) is refused before a factor list is built, within a second."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        steinberg_multiplicity(10**9, 0)
    assert time.perf_counter() - start < 1
    assert (str(info.value), info.value.budget) == (
        "S^k x A^s has 1000000000 factors, over its budget of 100000", 10**5
    )


def test_mcm_scan_requires_cyclic_class_group():
    with pytest.raises(ValueError):
        enumerate_mcm_rank_one_candidates(a1_variety())


def test_explicit_product_constructor():
    v = variety_product(steinberg_variety(), affine_line_variety())
    assert v.cone.ambient_dim == 4
    assert class_group(v).free_rank == 1
    # divisors split and rejoin losslessly
    d = TorusDivisor(v, tuple(range(len(v.rays))))
    parts = v.split_divisor(d)
    assert v.join_coeffs([list(p.coeffs) for p in parts]) == d.coeffs


def test_class_representative_property_suite():
    class_representative_suite(cases=200)
