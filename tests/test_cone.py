"""Cones, duals, rays, Hilbert bases: frozen geometry plus random checks."""

import random
import time
from itertools import combinations, product as iproduct
from math import gcd
from operator import le

import pytest

from torica import BudgetExceeded, Cone, NotPointed, NotStronglyConvex, Semigroup
import torica.cone as cone_module
from torica.cone import (
    _keyed, _lattice_points, _minimal, _point, dual_cone, hilbert_basis, is_strongly_convex, rays,
)
from torica.zlinalg import IntMatrix, hermite_normal_form, kernel_basis, lattice_member, rank

from suites import biduality_suite

SIGMA_GENS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, -1)]
DUAL_GENS = [(1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2)]
PHI_COLUMNS = [(1, 0, 1), (1, 0, 2), (1, 0, 0), (0, 1, 1), (0, 1, 2), (0, 1, 0)]


def test_generators_are_primitivized_deduped_sorted():
    cone = Cone(2, [(2, 0), (4, 0), (1, 3), (0, 0)])
    assert cone.generators == ((1, 0), (1, 3))


def test_non_integral_generators_are_refused():
    with pytest.raises(ValueError):
        Cone(2, [(1.9, 0), (0.5, 1)])
    assert Cone(2, [(2.0, 0), (0, 1)]).generators == ((0, 1), (1, 0))


def test_contains_refuses_non_integral_vectors():
    cone = Cone(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        cone.contains((-0.5, 0))
    assert cone.contains((1.0, 2)) and not cone.contains((-1, 0))


def test_contains_refuses_wrong_length_vectors():
    cone = Cone(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        cone.contains((1,))
    with pytest.raises(ValueError):
        cone.contains((1, 0, -5))


def test_semigroup_refuses_non_integral_generators():
    with pytest.raises(ValueError):
        Semigroup(2, [(0.5, 1)])
    assert Semigroup(2, [(1.0, 1)]).hilbert_generators == ((1, 1),)


def test_non_integral_dimensions_are_refused():
    for build in (Cone, Semigroup):
        for dim in (3.5, "3"):
            with pytest.raises(ValueError):
                build(dim, [(1, 0, 0)])
    assert Cone(2.0, [(1, 0), (0, 1)]).ambient_dim == 2
    assert Semigroup(2.0, [(1, 0)]).to_json() == {"dim": 2, "hilbert_basis": [[1, 0]]}


def test_dual_of_semigroup_cone_is_surface_cone():
    cone = Cone(3, DUAL_GENS)
    assert cone.dual().rays() == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, -1))


def test_dual_of_surface_cone():
    cone = Cone(3, SIGMA_GENS)
    assert cone.dual().rays() == ((0, 1, 0), (0, 1, 2), (1, 0, 0), (1, 0, 2))


def test_orthant_is_self_dual():
    cone = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert cone.dual() == cone


def test_dual_of_halfplane_has_lineality():
    # dual of a half-plane in Z^2 is a ray; dual of a line is trivial rank
    half = Cone(2, [(1, 0), (0, 1), (0, -1)])
    dual = half.dual()
    assert dual.contains((1, 0))
    assert not dual.contains((0, 1)) or not dual.contains((0, -1))
    assert not half.is_strongly_convex()


def test_membership():
    cone = Cone(3, SIGMA_GENS)
    assert cone.contains((3, 3, 0))
    assert cone.contains((2, 2, -1))
    assert not cone.contains((0, 0, -1))
    assert not cone.contains((1, 0, -1))


def test_rays_of_surface_cone():
    cone = Cone(3, SIGMA_GENS)
    assert cone.rays() == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, -1))
    assert rays(cone) == [
        (0, (0, 0, 1)),
        (1, (0, 1, 0)),
        (2, (1, 0, 0)),
        (3, (2, 2, -1)),
    ]


def test_rays_primitivize():
    cone = Cone(2, [(2, 0), (1, 3)])
    assert cone.rays() == ((1, 0), (1, 3))


def test_rays_drop_non_extremal_generators():
    cone = Cone(2, [(1, 0), (1, 1), (0, 1)])
    assert cone.rays() == ((0, 1), (1, 0))


def test_rays_require_strong_convexity():
    with pytest.raises(NotStronglyConvex):
        Cone(2, [(1, 0), (-1, 0)]).rays()


def test_strong_convexity():
    assert is_strongly_convex(Cone(3, SIGMA_GENS))
    assert not is_strongly_convex(Cone(1, [(1,), (-1,)]))
    assert not is_strongly_convex(Cone(2, [(1, 0), (0, 1), (0, -1)]))
    assert is_strongly_convex(Cone(2, []))  # the origin


def test_product_rays_are_disjoint_union():
    s = Cone(3, SIGMA_GENS)
    prod = s.product(s)
    assert prod.ambient_dim == 6
    assert len(prod.rays()) == 8
    embedded = {r[:3] for r in prod.rays() if any(r[:3])}
    assert embedded == set(s.rays())


def test_product_with_orthants():
    c2 = Cone(2, [(1, 0), (0, 1)])
    c1 = Cone(1, [(1,)])
    assert c2.product(c1) == Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _random_small_cone(rng):
    d = rng.randint(1, 3)
    gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, 4))]
    return Cone(d, gens)


def _rays_or_error(cone):
    try:
        return cone.rays()
    except NotStronglyConvex:
        return NotStronglyConvex


def _kinds(cone):
    if not cone.generators:
        return {"empty"}
    kinds = {"pointed" if cone.is_strongly_convex() else "not pointed"}
    if cone.dim() < cone.ambient_dim:
        kinds.add("lower-dimensional")
    return kinds


def test_product_duals_and_rays_match_recomputation():
    """A product's composed dual and rays equal a from-scratch computation."""
    rng = random.Random(59)
    seen = set()
    for _ in range(300):
        c1, c2 = _random_small_cone(rng), _random_small_cone(rng)
        composed = c1.product(c2)
        fresh = Cone(c1.ambient_dim + c2.ambient_dim, composed.generators)
        assert composed.dual_generators() == fresh.dual_generators(), (c1, c2)
        assert _rays_or_error(composed) == _rays_or_error(fresh), (c1, c2)
        seen |= _kinds(c1) | _kinds(c2)
    assert seen == {"empty", "pointed", "not pointed", "lower-dimensional"}


def test_composed_double_dual_matches_recomputation():
    """A dual's composed dual generators equal double description run on it afresh."""
    rng = random.Random(83)
    seen = []
    for _ in range(400):
        cone = _random_small_cone(rng)
        fresh = Cone(cone.ambient_dim, cone.dual_generators()).dual_generators()
        assert cone.dual().dual_generators() == fresh, cone
        seen.append(_kinds(cone))
    composed = [k for k in seen if "pointed" in k or "empty" in k]
    assert len(composed) >= 300
    assert any({"pointed", "lower-dimensional"} <= k for k in composed)
    assert {"empty"} in seen


def _pair(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_cached_cone_facts_equal_fresh_ones():
    """dim, pointedness and a dual's rays, as cached, equal a computation from the generators.

    Seeded cones of every kind, the zero cone and products; `dim()` is
    compared with the rank of the generators and `is_strongly_convex()`
    with the generator-by-dual test on a fresh cone. The dual of a
    full-dimensional cone is pointed, with its generators as rays.
    """
    rng = random.Random(89)
    cones = [Cone(d, []) for d in (1, 2, 3)]
    for _ in range(300):
        c1 = _random_small_cone(rng)
        cones += [c1, c1.product(_random_small_cone(rng)), c1.dual()]
    seen = set()
    for cone in cones:
        d, gens = cone.ambient_dim, cone.generators
        fresh = Cone(d, gens)
        duals = fresh.dual_generators()
        assert cone.dim() == rank(IntMatrix(gens, cols=d)), cone
        assert cone.is_strongly_convex() == all(any(_pair(n, g) for n in duals) for g in gens)
        if cone.dim() == d:
            dual = cone.dual()
            assert dual.generators == Cone(d, duals).generators, cone
            assert dual.is_strongly_convex() and dual.rays() == dual.generators, cone
            assert dual.dim() == rank(IntMatrix(dual.generators, cols=d)), cone
            seen.add("full-dimensional")
        seen |= _kinds(cone)
    assert seen == {"empty", "pointed", "not pointed", "lower-dimensional", "full-dimensional"}


def _subset_dual(cone):
    """Reference dual: a facet candidate from the kernel of every (rank - 1)-subset of generators.

    The orthogonal complement of the span gives the dual's lineality; a
    subset kernel one larger than it gives a candidate normal (its first
    column outside the lineality lattice), kept when every generator lies
    on one side of it.
    """
    d, gens = cone.ambient_dim, cone.generators
    if not gens:
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        return tuple(sorted(units + [tuple(-x for x in e) for e in units]))
    lin = kernel_basis(IntMatrix(gens)).columns()
    lin_hnf = hermite_normal_form(IntMatrix(lin, cols=d))
    out = {v for col in lin for v in (col, tuple(-x for x in col))}
    r = d - len(lin)
    for subset in combinations(gens, r - 1):
        ker = kernel_basis(IntMatrix(subset, cols=d))
        if ker.cols != d - r + 1:
            continue
        outside = [c for c in ker.columns() if not (lin and lattice_member(lin_hnf, c))]
        if not outside:
            continue
        content = gcd(*outside[0])
        candidate = tuple(x // content for x in outside[0])
        pairings = [_pair(candidate, g) for g in gens]
        if all(x >= 0 for x in pairings):
            out.add(candidate)
        elif all(x <= 0 for x in pairings):
            out.add(tuple(-x for x in candidate))
    return tuple(sorted(out))


def _rank_rays(cone, duals):
    """Reference rays: generators whose orthogonal duals have rank d - 1, or NotStronglyConvex."""
    d = cone.ambient_dim
    if not (rank(IntMatrix(duals)) == d if duals else d == 0):
        return NotStronglyConvex
    found = []
    for g in cone.generators:
        orth = [n for n in duals if _pair(n, g) == 0]
        if d == 1 or orth and rank(IntMatrix(orth)) == d - 1:
            found.append(g)
    return tuple(sorted(found))


# Cones on which the rank prefilter alone would pass a pair of rays that are
# not adjacent, so only the combinatorial test keeps their combination out.
PREFILTER_IS_NOT_ENOUGH = [
    [(-1, 0, 0, -1), (-1, 1, 0, -1), (-1, 1, 1, 0), (0, -1, 1, 1), (0, 0, 0, -1), (0, 0, 0, 1),
     (0, 1, 1, 0)],
    [(-1, -1, 1, 1, 0), (-1, 0, 1, 1, 0), (-1, 1, 0, 1, 0), (0, -1, -1, 1, 0), (0, 0, 1, 1, 0),
     (1, -1, 0, -1, 0), (1, 0, -1, 0, -1), (1, 0, -1, 0, 0), (1, 1, 1, -1, -1)],
]


def test_double_description_matches_subset_enumeration():
    """Duals and rays from double description equal the subset-enumeration reference."""
    rng = random.Random(71)
    cones = [Cone(len(gens[0]), gens) for gens in PREFILTER_IS_NOT_ENOUGH]
    for _ in range(1000):
        d, e = rng.randint(1, 5), rng.choice((1, 3))
        gens = [tuple(rng.randint(-e, e) for _ in range(d)) for _ in range(rng.randint(0, 10))]
        cones.append(Cone(d, gens))
    seen = set()
    for cone in cones:
        reference = _subset_dual(cone)
        assert cone.dual_generators() == reference, cone
        assert _rays_or_error(cone) == _rank_rays(cone, reference), cone
        seen |= _kinds(cone)
    assert seen == {"empty", "pointed", "not pointed", "lower-dimensional"}


def test_dual_and_rays_of_twenty_generators_in_dim_eight_are_fast():
    """Subset enumeration computes C(20, 7) = 77,520 kernels on this cone."""
    rng = random.Random(8)
    cone = Cone(8, [(1,) + tuple(rng.randint(-3, 3) for _ in range(7)) for _ in range(20)])
    start = time.perf_counter()
    duals, edges = cone.dual_generators(), cone.rays()
    assert time.perf_counter() - start < 10
    assert (len(duals), len(edges)) == (604, 20)
    assert all(_pair(n, g) >= 0 for n in duals for g in cone.generators)


def test_hilbert_basis_of_semigroup_cone_is_phi_columns():
    semigroup = hilbert_basis(Cone(3, DUAL_GENS))
    assert len(semigroup.hilbert_generators) == 6
    assert set(semigroup.hilbert_generators) == set(PHI_COLUMNS)
    assert semigroup == Semigroup(3, PHI_COLUMNS)


def test_hilbert_basis_orthant():
    semigroup = hilbert_basis(Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert set(semigroup.hilbert_generators) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_hilbert_basis_quadric_cone():
    semigroup = hilbert_basis(Cone(2, [(1, 0), (1, 2)]))
    assert semigroup.hilbert_generators == ((1, 0), (1, 1), (1, 2))


def test_hilbert_basis_rejects_lines():
    with pytest.raises(NotPointed):
        hilbert_basis(Cone(2, [(1, 0), (-1, 0), (0, 1)]))


def test_hilbert_basis_brute_force_oracle():
    """Irreducible lattice points in a box must match, for random 2d and 3d cones."""
    rng = random.Random(23)
    for _ in range(60):
        a = (1, rng.randint(0, 4))
        b = (rng.randint(1, 4), -1)
        cone = Cone(2, [a, b])
        if not (cone.dim() == 2 and cone.is_strongly_convex()):
            continue
        semigroup = cone.hilbert_basis()
        box = 8
        members = [
            p
            for p in iproduct(range(-box, box + 1), repeat=2)
            if p != (0, 0) and cone.contains(p) and max(abs(p[0]), abs(p[1])) <= 5
        ]
        irreducible = [
            p
            for p in members
            if not any(
                q != p and cone.contains((p[0] - q[0], p[1] - q[1])) and any((p[0] - q[0], p[1] - q[1]))
                for q in members
            )
        ]
        small_basis = {
            g for g in semigroup.hilbert_generators if max(abs(g[0]), abs(g[1])) <= 5
        }
        assert small_basis == set(irreducible)
    # 3-d cones in the nonnegative orthant: both parts of a sum p = q + r
    # are at most p coordinatewise, so the cube [0, 5]^3 holds every split.
    tested = 0
    while tested < 4:
        cone = Cone(3, [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(4)])
        if cone.dim() != 3:
            continue
        semigroup = cone.hilbert_basis()
        members = [p for p in iproduct(range(6), repeat=3) if any(p) and cone.contains(p)]
        irreducible = [
            p
            for p in members
            if not any(
                q != p and cone.contains(tuple(x - y for x, y in zip(p, q)))
                for q in members
            )
        ]
        assert {g for g in semigroup.hilbert_generators if max(g) <= 5} == set(irreducible)
        tested += 1


def test_hilbert_basis_over_budget_raises_before_scanning():
    """One parallelepiped level of 10^6 or 10^12 nodes is refused before any node is built.

    The simplex on (1, 0) and (1, t) holds t parallelepiped points, all on
    its first level, and the count adds 1 for the simplex.
    """
    for t in (10**6, 10**12):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            Cone(2, [(1, 0), (1, t)]).hilbert_basis()
        assert time.perf_counter() - start < 5
        assert info.value.code == "BUDGET_EXCEEDED"
        assert info.value.budget == 10**6
        assert str(info.value) == (
            f"triangulation counted {t + 1} simplices and parallelepiped nodes, "
            "over its budget of 1000000"
        )


def _fields(key, shift, count):
    """The `count` fields and the degree of a packed key whose fields share `shift` evenly."""
    w = shift // count
    return [key >> j * w & (1 << w) - 1 for j in range(count)], key >> shift


def test_slack_keys_decode_to_the_slacks_of_their_points():
    """Every packed key of a simplex's points is its point's slack vector, guard bits clear.

    Seeded simplices in dimensions 2 to 4, with and without heights (the
    last coordinate, as over a region). Besides the facet normals, one
    normal is a seeded multiple of a facet normal, so its column dominates
    the width bound, the sum of all ray slacks, and the points' fields
    reach the bit below each guard bit; in half the cases another facet
    normal is added to it, so its column is nonzero on two rays and a
    point's field can pass every single ray slack. A narrower field, or a
    guard bit elsewhere, fails here.
    """
    rng = random.Random(37)
    reached = {False: 0, True: 0}
    for case in range(400):
        with_heights = case % 2 == 1
        dim = rng.randint(2, 4)
        drawn = [
            tuple(rng.randint(-3, 3) for _ in range(dim - 1))
            + (rng.randint(0, 3) if with_heights else rng.randint(-3, 3),)
            for _ in range(dim)
        ]
        cone = Cone(dim, drawn)
        if len(cone.generators) != dim or cone.dim() != dim or not cone.is_strongly_convex():
            continue
        simplex, duals = list(cone.rays()), list(cone.dual_generators())
        factor, (a, b) = rng.randint(1, 9), rng.sample(duals, 2)
        b = b if case % 4 > 1 else (0,) * dim
        normals = duals + [tuple(factor * x + y for x, y in zip(a, b))]
        heights = [r[-1] for r in simplex] if with_heights else None
        if with_heights and not any(heights):
            continue
        items, shift, guard = _lattice_points(simplex, normals, heights)
        w = shift // len(normals)
        assert shift == w * len(normals)
        assert guard == sum(1 << j * w + w - 1 for j in range(len(normals)))
        top = 0
        for key, c, basis in items:
            p = _point(c, basis)
            slack = [sum(x * y for x, y in zip(n, p)) for n in normals]
            assert key & guard == 0, (simplex, normals, p)
            assert _fields(key, shift, len(normals)) == (slack, sum(slack)), (simplex, normals, p)
            assert not with_heights or p[-1] == 1
            top = max(top, *slack)
        reached[with_heights] += top.bit_length() == w - 1
    assert reached[False] >= 40 and reached[True] >= 20, reached


def _reference_minimal(pairs):
    """(kept values, dominance tests): the sieve on tuple keys, by key sum, one test per kept key."""
    kept, tests = [], 0
    for key, value in sorted(pairs, key=lambda kv: sum(kv[0])):
        tests += len(kept)
        if not any(all(map(le, k, key)) for k, _ in kept):
            kept.append((key, value))
    return [value for _, value in kept], tests


def test_packed_sieve_matches_the_tuple_key_sieve(monkeypatch):
    """`_minimal` on `_keyed` keys keeps the values, in order, and charges the tests of a tuple sieve.

    Seeded keys of 0 to 5 fields with negative entries, repeats and, in one
    case of four, entries up to 10^6 in size, so fields of many widths meet.
    """
    charged = []

    class Recorded:
        def charge(self, count):
            charged.append(count)
            return count

    monkeypatch.setattr(cone_module, "SIEVE", Recorded())
    rng = random.Random(61)
    for case in range(400):
        nfields = rng.randint(0, 5)
        span = 10**6 if case % 4 == 0 else rng.randint(1, 6)
        pool = [tuple(rng.randint(-span, span) for _ in range(nfields)) for _ in range(rng.randint(1, 12))]
        pairs = [(rng.choice(pool), i) for i in range(rng.randint(0, 40))]
        charged.clear()
        got = [value for _, value in _minimal(*_keyed(pairs))]
        values, tests = _reference_minimal(pairs)
        assert got == values, pairs
        assert (charged[-1] if charged else 0) == tests, pairs


def test_semigroup_json():
    s = hilbert_basis(Cone(2, [(1, 0), (1, 2)]))
    assert s.to_json() == {"dim": 2, "hilbert_basis": [[1, 0], [1, 1], [1, 2]]}


def test_cone_json_round_trip():
    cone = Cone(3, SIGMA_GENS)
    assert Cone.from_json(cone.to_json()) == cone


def test_biduality_property_suite():
    biduality_suite(cases=200)
