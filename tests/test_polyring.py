"""Polynomials, Groebner bases, saturation, Hilbert data over prime fields."""

import random
from heapq import heappop, heappush
from itertools import product as iproduct

import pytest

from torica import (
    INFINITE,
    Ideal,
    InconclusiveAtBound,
    NotHomogeneous,
    PolyRing,
    groebner_basis,
    hilbert_function,
    hilbert_numerator,
    ideal_equal,
    ideal_sum,
    is_regular_sequence,
    module_regular_sequence,
    normal_form,
    quotient_dimension,
    saturate,
    standard_monomials,
)
from torica.polyring import _add, _divides, _lcm, _sub

from suites import _random_polynomial, buchberger_suite, saturation_suite


def test_ring_requires_prime_characteristic():
    with pytest.raises(ValueError):
        PolyRing(6, ("x",))
    with pytest.raises(ValueError):
        PolyRing(1, ("x",))
    PolyRing(2, ("x",))  # 2 is a legal field for generic ideal work


def test_parser_round_trip():
    ring = PolyRing(101, ("x", "y", "z"))
    for text in ("x^2*y - 3*z + 1", "x*y*z", "-x + y", "(x + y)^2 - x^2 - y^2"):
        f = ring.parse(text)
        assert ring.parse(str(f)) == f


def test_parser_rejects_unknown_variables():
    ring = PolyRing(101, ("x", "y"))
    with pytest.raises(ValueError):
        ring.parse("x + w")


def test_arithmetic_mod_p():
    ring = PolyRing(5, ("x", "y"))
    f = ring.parse("3*x + 4*x")  # 7 = 2 mod 5
    assert f == ring.parse("2*x")
    assert (ring.parse("x + y") * ring.parse("x - y")) == ring.parse("x^2 - y^2")
    assert ring.parse("x") ** 3 == ring.parse("x^3")
    assert (ring.parse("2*x") - ring.parse("2*x")).is_zero()


def test_leading_terms_by_order():
    ring = PolyRing(101, ("x", "y", "z"))
    f = ring.parse("x*z^2 + y^3 + x^2")
    grevlex_key = Ideal(ring, [], order="grevlex").key()
    lex_key = Ideal(ring, [], order="lex").key()
    assert f.leading_term(grevlex_key)[0] == (0, 3, 0)  # y^3 beats x*z^2 in grevlex
    assert f.leading_term(lex_key)[0] == (2, 0, 0)  # any x power beats y, z in lex


def test_groebner_twisted_cubic():
    """Frozen reduced basis, cross-checked by binomial enumeration below."""
    ring = PolyRing(101, ("z0", "z1", "z2", "z3"))
    ideal = ring.ideal(["z1^2 - z0*z2", "z1*z2 - z0*z3", "z2^2 - z1*z3"])
    basis = {str(g) for g in ideal.groebner()}
    assert basis == {"z2^2 - z1*z3", "z1*z2 - z0*z3", "z1^2 - z0*z2"}


def test_groebner_of_zero_and_unit_ideals():
    ring = PolyRing(101, ("x", "y"))
    assert ring.ideal([]).groebner() == []
    assert [str(g) for g in ring.ideal(["2"]).groebner()] == ["1"]


def test_normal_form_and_containment():
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal(["x^2 - y", "y^2 - 1"])
    assert normal_form(ring.parse("x^4"), ideal) == ring.parse("1")
    assert ideal.contains(ring.parse("x^4 - 1"))
    assert not ideal.contains(ring.parse("x"))


def test_groebner_basis_returns_ideal_with_cache():
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal(["x^2 - y", "y^2 - 1"])
    gb = groebner_basis(ideal)
    assert ideal_equal(gb, ideal)
    assert gb.groebner() == ideal.groebner()


def test_ideal_equal_across_orders():
    ring = PolyRing(101, ("x", "y"))
    a = Ideal(ring, ["x^2 - y"], order="grevlex")
    b = Ideal(ring, ["x^2 - y"], order="lex")
    assert ideal_equal(a, b)
    assert not ideal_equal(a, Ideal(ring, ["x^2 + y"], order="lex"))


def test_elimination_order_projects():
    ring = PolyRing(101, ("t", "x", "y"))
    # t is eliminated first by the block order
    ideal = Ideal(ring, ["t^2 - x", "t^3 - y"], order=("elim", 1))
    basis = ideal.groebner()
    eliminated = [g for g in basis if all(e[0] == 0 for e in g.terms)]
    assert any(str(g) == "x^3 - y^2" for g in eliminated)


def test_saturation_strips_monomial_factors():
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal(["x^2*y - x^2"])
    sat = saturate(ideal, ring.parse("x*y"))
    assert ideal_equal(sat, ring.ideal(["y - 1"]))


def test_saturation_of_toric_relations():
    ring = PolyRing(101, ("A", "B", "C", "X", "Y", "Z"))
    partial = ring.ideal(["A*Z - C*X", "A*X - C*Y", "A*X - B*Z"])
    sat = saturate(partial, ring.parse("A*B*C*X*Y*Z"))
    assert len(sat.groebner()) == 6
    assert sat.contains(ring.parse("A^2 - B*C"))
    assert not partial.contains(ring.parse("A^2 - B*C"))


def test_quotient_dimension_box_ideal():
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal(["x^2", "y^3"])
    assert quotient_dimension(ideal) == 6
    monomials = standard_monomials(ideal)
    assert set(monomials) == {(a, b) for a in range(2) for b in range(3)}


def test_quotient_dimension_infinite_and_unit():
    ring = PolyRing(101, ("x", "y"))
    assert quotient_dimension(ring.ideal(["x^2"])) == INFINITE
    assert standard_monomials(ring.ideal(["x^2"])) is None
    assert quotient_dimension(ring.ideal(["1"])) == 0
    assert standard_monomials(ring.ideal(["1"])) == []


def test_quotient_dimension_of_cut_surface():
    ring = PolyRing(101, ("C", "Y", "Z", "A", "B", "X"))
    minors = ring.ideal(
        ["A^2 - B*C", "A*X - B*Z", "A*Y - B*X", "A*Z - C*X", "A*X - C*Y", "X^2 - Y*Z"]
    )
    cut = ideal_sum(minors, ring.ideal(["C", "Y", "B-Z"]))
    assert quotient_dimension(cut) == 4
    names = sorted(str(ring.monomial(e)) for e in standard_monomials(cut))
    assert names == ["1", "A", "B", "X"]


def test_hilbert_numerator_complete_intersection():
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal(["x^2", "y^3"])
    # (1 - t^2)(1 - t^3) = 1 - t^2 - t^3 + t^5
    assert hilbert_numerator(ideal) == [1, 0, -1, -1, 0, 1]


def test_hilbert_numerator_requires_homogeneous_input():
    ring = PolyRing(101, ("x", "y"))
    with pytest.raises(NotHomogeneous):
        hilbert_numerator(ring.ideal(["x^2 - y"]))


def test_hilbert_function_against_standard_monomial_count():
    rng = random.Random(31)
    for _ in range(40):
        char = 101
        nvars = rng.choice((2, 3))
        ring = PolyRing(char, tuple("xyz"[:nvars]))
        gens = []
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, 3) for _ in range(nvars))
            if any(exp):
                gens.append(ring.monomial(exp))
        ideal = ring.ideal(gens)
        values = hilbert_function(hilbert_numerator(ideal), nvars, upto=6)
        lead = {g.leading_term(ideal.key())[0] for g in ideal.groebner()}
        for degree in range(7):
            count = 0
            for exp in iproduct(range(degree + 1), repeat=nvars):
                if sum(exp) != degree:
                    continue
                if not any(all(e >= l for e, l in zip(exp, le)) for le in lead):
                    count += 1
            assert values[degree] == count


def test_is_regular_sequence_positive_and_negative():
    ring = PolyRing(101, ("x", "y", "z"))
    zero = ring.ideal([])
    assert is_regular_sequence([ring.parse("x"), ring.parse("y"), ring.parse("z")], zero)
    # repeating a parameter kills regularity
    assert not is_regular_sequence([ring.parse("x"), ring.parse("x")], zero)
    # the zero polynomial is never regular
    assert not is_regular_sequence([ring.zero()], zero)
    # x + y then x - y is still regular
    assert is_regular_sequence([ring.parse("x + y"), ring.parse("x - y")], zero)


def test_is_regular_sequence_on_quotient():
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal(["x*y"])
    # x is a zerodivisor on F[x,y]/(xy)
    assert not is_regular_sequence([ring.parse("x")], ideal)
    assert is_regular_sequence([ring.parse("x + y")], ideal)


def test_is_regular_sequence_degree_bound():
    ring = PolyRing(101, ("x", "y"))
    cut = ring.parse("x^4 + y^4")
    # the first step numerator already reaches degree 4, beyond a bound of 3
    with pytest.raises(InconclusiveAtBound) as excinfo:
        is_regular_sequence([cut, ring.parse("y")], ring.ideal([]), degree_bound=3)
    assert excinfo.value.bound == 3
    assert is_regular_sequence([cut, ring.parse("y")], ring.ideal([]), degree_bound=5)
    # a mismatch inside the bound is a definite no even if support goes past it
    assert not is_regular_sequence([cut, cut], ring.ideal([]), degree_bound=4)


def test_module_regular_sequence_free_module():
    ring = PolyRing(101, ("x",))
    zero = ring.ideal([])
    assert module_regular_sequence(zero, [ring.one()], [ring.parse("x")])
    # x annihilates F[x]/(x), so x is not regular on it
    killed = ring.ideal(["x"])
    assert not module_regular_sequence(killed, [ring.one()], [ring.parse("x")])


def test_module_regular_sequence_ideal_module():
    ring = PolyRing(101, ("x", "y"))
    zero = ring.ideal([])
    module = [ring.parse("x"), ring.parse("y")]  # the maximal ideal as a module
    assert module_regular_sequence(zero, module, [ring.parse("x + y")])
    assert not module_regular_sequence(zero, module, [ring.parse("x + y"), ring.parse("x - y")])


def test_polynomial_str_is_stable():
    ring = PolyRing(101, ("x", "y"))
    f = ring.parse("100*x + 1")
    assert str(f) == "-x + 1"  # symmetric lift of 100 mod 101
    assert str(ring.parse("51*y")) == "-50*y"


def test_buchberger_property_suite():
    buchberger_suite(cases=200)


def test_saturation_property_suite():
    saturation_suite(cases=200)


def test_polynomial_from_another_ring_is_refused():
    ring = PolyRing(101, ("x", "y", "z"))
    ideal = ring.ideal(["x^2 - y", "y*z"])
    for other in (PolyRing(101, ("x", "y")), PolyRing(103, ("x", "y", "z"))):
        for call in (ideal.normal_form, ideal.contains):
            with pytest.raises(ValueError):
                call(other.parse("x^3"))


# -- the earlier engine, kept as a reference --------------------------------
#
# Buchberger on plain polynomials, followed by a separate minimalise and
# inter-reduce pass; every normal form rebuilds (lt, inv_lc, poly) reducers.


def _ref_prepare_reducers(polys, key):
    reducers = []
    for g in polys:
        if g.is_zero():
            continue
        lt, lc = g.leading_term(key)
        reducers.append((lt, pow(lc, -1, g.ring.char), g))
    return reducers


def _ref_normal_form(f, polys, key):
    p = f.ring.char
    reducers = _ref_prepare_reducers(polys, key)
    work = dict(f.terms)
    remainder = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        hit = next((r for r in reducers if _divides(r[0], e)), None)
        if hit is None:
            remainder[e] = c
            continue
        lt, inv_lc, g = hit
        shift = _sub(e, lt)
        factor = (c * inv_lc) % p
        for ge, gc in g.terms.items():
            te = _add(ge, shift)
            s = (work.get(te, 0) - factor * gc) % p
            if te == e:
                continue
            if s:
                work[te] = s
            elif te in work:
                del work[te]
    return f.ring.polynomial(remainder)


def _ref_s_poly(f, g, key):
    p = f.ring.char
    lt_f, lc_f = f.leading_term(key)
    lt_g, lc_g = g.leading_term(key)
    lcm = _lcm(lt_f, lt_g)
    mf = f.ring.monomial(_sub(lcm, lt_f), pow(lc_f, -1, p))
    mg = f.ring.monomial(_sub(lcm, lt_g), pow(lc_g, -1, p))
    return mf * f - mg * g


def _ref_buchberger(generators, key):
    basis = [g.monic(key) for g in generators if not g.is_zero()]
    basis.sort(key=lambda g: key(g.leading_term(key)[0]))
    lts = [g.leading_term(key)[0] for g in basis]
    heap = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            heappush(heap, (key(_lcm(lts[i], lts[j])), i, j))
    while heap:
        _, i, j = heappop(heap)
        if _lcm(lts[i], lts[j]) == _add(lts[i], lts[j]):
            continue
        r = _ref_normal_form(_ref_s_poly(basis[i], basis[j], key), basis, key)
        if not r.is_zero():
            r = r.monic(key)
            basis.append(r)
            lts.append(r.leading_term(key)[0])
            new = len(basis) - 1
            for k in range(new):
                heappush(heap, (key(_lcm(lts[k], lts[new])), k, new))
    return basis


def _ref_reduce_basis(basis, key):
    polys = [g for g in basis if not g.is_zero()]
    polys.sort(key=lambda g: key(g.leading_term(key)[0]))
    minimal = []
    for g in polys:
        lt = g.leading_term(key)[0]
        if any(_divides(m.leading_term(key)[0], lt) for m in minimal):
            continue
        minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = _ref_normal_form(g, others, key) if others else g
        reduced.append(r.monic(key))
    reduced.sort(key=lambda g: key(g.leading_term(key)[0]))
    return reduced


def test_groebner_records_match_reference_engine():
    """Bases, leading exponents and normal forms equal the earlier engine's on seeded ideals."""
    rng = random.Random(20405)
    seen = set()
    for case in range(300):
        char = rng.choice((5, 7, 101, 32003))
        nvars = rng.randint(2, 4)
        order = rng.choice(("grevlex", "lex", ("elim", 1)))
        seen.add(order)
        ring = PolyRing(char, tuple("wxyz"[:nvars]))
        max_exp = 5 - nvars  # keeps lex bases in 4 variables small
        gens = [_random_polynomial(rng, ring, 3, max_exp) for _ in range(rng.randint(2, 4))]
        ideal = Ideal(ring, gens, order=order)
        key = ideal.key()
        reference = _ref_reduce_basis(_ref_buchberger(list(ideal.generators), key), key)
        assert ideal.groebner() == reference, (case, gens, order)
        assert ideal.leading_exponents() == [g.leading_term(key)[0] for g in reference], case
        for _ in range(3):
            f = _random_polynomial(rng, ring, 5, 4)
            assert ideal.normal_form(f) == _ref_normal_form(f, reference, key), (case, f)
    assert seen == {"grevlex", "lex", ("elim", 1)}
