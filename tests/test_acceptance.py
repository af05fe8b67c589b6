"""Acceptance gate: one test per numbered claim, all arithmetic exact.

Each test is self-contained and recomputes its claim from scratch through
the public API, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion.
"""

import subprocess
import sys

import pytest

from torica import (
    Cone,
    DivisorClass,
    Ideal,
    NonUnique,
    PolyRing,
    a1_variety,
    canonical_class,
    danilov_violations,
    divisor_from_ray_coeffs,
    enumerate_mcm_rank_one_candidates,
    groebner_basis,
    h_dim_product,
    half_canonical,
    ideal_equal,
    ideal_sum,
    is_regular_sequence,
    module_generators,
    module_is_maximal_cohen_macaulay,
    multiplicity,
    quotient_dimension,
    run_checks,
    saturate,
    standard_monomials,
    steinberg_minors_ideal,
    steinberg_multiplicity,
    steinberg_product_variety,
    steinberg_ring_mod_l,
    steinberg_variety,
    trace_surjectivity_witness,
)
from suites import (
    biduality_suite,
    buchberger_suite,
    class_representative_suite,
    cohomology_suite,
    snf_suite,
    saturation_suite,
)

# Ambient lattice points are (x, y, z) exponents: (1, 0, 2) is the
# monomial x*z^2.  Rays of the surface cone in stored (lex) order:
D3, D2, D1, D0 = (0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, -1)


def surface_class_one_divisor(v):
    """-D1 - D3, an explicit divisor of class 1."""
    return divisor_from_ray_coeffs(v, {D1: -1, D3: -1})


def surface_omega_divisor(v):
    """-D1, an explicit divisor in the canonical class."""
    return divisor_from_ray_coeffs(v, {D1: -1})


def test_criterion_01_toric_ideal_is_minors_ideal():
    pres = steinberg_ring_mod_l(101)
    ring = pres.ring
    start = ring.ideal(["A*Z - C*X", "A*X - C*Y", "A*X - B*Z"])
    saturated = saturate(start, ring.parse("A*B*C*X*Y*Z"))
    minors = steinberg_minors_ideal(ring)
    assert ideal_equal(saturated, minors)
    assert ideal_equal(pres.ideal, minors)
    reduced = groebner_basis(saturated)
    assert len(reduced.generators) == 6
    for g in reduced.generators:
        assert len(g.terms) == 2, f"{g} is not a binomial"
    # the saturation genuinely added relations
    assert not ideal_equal(start, minors)


def test_criterion_02_cone_duality():
    dual_cone = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2)])
    sigma = dual_cone.dual()
    assert set(sigma.rays()) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, -1)}
    assert set(sigma.dual().rays()) == set(dual_cone.rays())


def test_criterion_03_hilbert_basis_is_phi():
    dual_cone = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2)])
    basis = dual_cone.hilbert_basis().hilbert_generators
    assert len(basis) == 6
    assert set(basis) == {
        (1, 0, 1), (1, 0, 2), (1, 0, 0), (0, 1, 1), (0, 1, 2), (0, 1, 0),
    }


def test_criterion_04_class_group_and_ray_classes():
    v = steinberg_variety()
    cg = v.class_group()
    assert cg.free_rank == 1
    assert cg.torsion == ()
    ray_class = lambda ray: cg.project(divisor_from_ray_coeffs(v, {ray: 1})).free[0]
    assert ray_class(D0) == 1
    assert ray_class(D1) == -2
    assert ray_class(D2) == -2
    assert ray_class(D3) == 1


def test_criterion_05_canonical_half_and_module_generators():
    v = steinberg_variety()
    assert canonical_class(v).free == (2,)
    assert half_canonical(v).free == (1,)
    degree_one = surface_class_one_divisor(v)
    assert degree_one.divisor_class().free == (1,)
    # {xz, xz^2}
    assert module_generators(v, degree_one).generators == ((1, 0, 1), (1, 0, 2))
    omega = surface_omega_divisor(v)
    assert omega.divisor_class() == canonical_class(v)
    # {x, xz, xz^2}
    assert module_generators(v, omega).generators == (
        (1, 0, 0), (1, 0, 1), (1, 0, 2),
    )


def test_criterion_06_multiplicity_table():
    table = {(0, 0): 1, (1, 0): 2, (1, 2): 2, (2, 0): 4, (3, 1): 8}
    for (k, s), expected in table.items():
        assert steinberg_multiplicity(k, s) == expected == 2 ** k


def test_criterion_07_trace_witness():
    v = steinberg_variety()
    degree_one = surface_class_one_divisor(v)
    surjective, witness = trace_surjectivity_witness(
        v, degree_one, target=surface_omega_divisor(v)
    )
    assert surjective is True
    assert witness == (1, 0, 2)


def test_criterion_08_mcm_candidate_scan():
    v = steinberg_variety()
    found = enumerate_mcm_rank_one_candidates(v)
    assert {cls.free[0]: n for cls, n in found} == {-1: 4, 0: 1, 1: 2, 2: 3, 3: 4}
    cg = v.class_group()
    for cls, n in found:
        gens = module_generators(v, cg.representative(cls)).generators
        assert len(gens) == n
        assert module_is_maximal_cohen_macaulay(v, gens)
    # class -2 has few enough generators but fails the freeness certificate
    rep = cg.representative(DivisorClass(v, (-2,)))
    rejected = module_generators(v, rep).generators
    assert len(rejected) <= 4
    assert not module_is_maximal_cohen_macaulay(v, rejected)


def test_criterion_09_quotient_dimensions_across_fields():
    for p in (3, 5, 101):
        ring = PolyRing(p, ("C", "Y", "Z", "A", "B", "X"))
        cut = ideal_sum(steinberg_minors_ideal(ring), ring.ideal(["C", "Y", "B-Z"]))
        assert quotient_dimension(cut) == 4
        names = sorted(str(ring.monomial(e)) for e in standard_monomials(cut))
        assert names == ["1", "A", "B", "X"]
        # same cut expressed through the semigroup ring: (x, y*z^2, y - x*z^2)
        pres = steinberg_ring_mod_l(p)
        images = [
            pres.monomial_for((1, 0, 0)),
            pres.monomial_for((0, 1, 2)),
            pres.monomial_for((0, 1, 0)) - pres.monomial_for((1, 0, 2)),
        ]
        cut2 = ideal_sum(pres.ideal, Ideal(pres.ring, images))
        assert quotient_dimension(cut2) == 4


def test_criterion_10_regular_sequence_certificate():
    pres = steinberg_ring_mod_l(101)
    elements = [pres.ring.parse(s) for s in ("C", "Y", "B-Z")]
    assert is_regular_sequence(elements, pres.ideal) is True


def test_criterion_11_danilov_vanishing():
    assert danilov_violations([(2, 1)], i_max=50) == []
    assert h_dim_product(0, (2, 1)) == 6
    for i in range(51):
        for d in (1, 2):
            assert h_dim_product(d, (2 * i, i)) == 0


def test_criterion_12_product_law():
    w = steinberg_product_variety(2, 1)
    cg = w.class_group()
    assert cg.free_rank == 2
    assert cg.torsion == ()
    assert canonical_class(w).free == (2, 2)
    half = half_canonical(w)
    assert half.free == (1, 1)
    gens = module_generators(w, cg.representative(half)).generators
    assert len(gens) == 4
    assert multiplicity(w) == 4


def test_criterion_13_property_suites():
    snf_suite(500)
    biduality_suite(200)
    buchberger_suite(200)
    saturation_suite(200)
    class_representative_suite(200)
    cohomology_suite(200)


def test_criterion_14_negative_paths():
    with pytest.raises(NonUnique) as excinfo:
        half_canonical(a1_variety())
    assert excinfo.value.count == 2
    with pytest.raises(ValueError):
        steinberg_ring_mod_l(2)
    with pytest.raises(ValueError):
        run_checks(field=2)
    result = subprocess.run(
        [sys.executable, "-m", "torica.cli", "verify", "--field", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
