"""Polynomials, Groebner bases, saturation, Hilbert data over prime fields."""

import random
import time
from heapq import heapify, heappop, heappush
from itertools import product as iproduct, zip_longest

import pytest

from torica import (
    INFINITE,
    BudgetExceeded,
    Cone,
    Ideal,
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
    steinberg_multiplicity,
)
from torica import divisor, polyring
from torica.cone import _keyed, _minimal
from torica.errors import BUDGETS
from torica.polyring import Polynomial, _divides
from torica.zlinalg import _add, _sub

from suites import _random_polynomial, buchberger_suite, saturation_suite


def test_ring_requires_prime_characteristic():
    with pytest.raises(ValueError):
        PolyRing(6, ("x",))
    with pytest.raises(ValueError):
        PolyRing(1, ("x",))
    PolyRing(2, ("x",))  # 2 is a legal field for generic ideal work


def test_primality_is_exact_below_its_bound_and_refused_above():
    """Miller-Rabin on the primes to 41 agrees with a sieve and rejects strong pseudoprimes."""
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for p in range(2, 142):
        sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [n for n in range(20000) if polyring._is_prime(n)] == [n for n, p in enumerate(sieve) if p]
    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not polyring._is_prime(n)
    assert polyring._is_prime(10**18 + 3) and polyring._is_prime(2**61 - 1)
    bound = polyring._PRIME_BOUND
    assert bound == 3317044064679887385961981
    assert PolyRing(bound - 168, ("x",)).char == bound - 168  # the largest prime below the bound
    for char in (bound, 10**30 + 57):
        with pytest.raises(ValueError, match=f"characteristic must be below {bound}, got {char}"):
            PolyRing(char, ("x",))


def test_parser_round_trip():
    ring = PolyRing(101, ("x", "y", "z"))
    for text in ("x^2*y - 3*z + 1", "x*y*z", "-x + y", "(x + y)^2 - x^2 - y^2"):
        f = ring.parse(text)
        assert ring.parse(str(f)) == f


def test_parser_rejects_unknown_variables():
    ring = PolyRing(101, ("x", "y"))
    with pytest.raises(ValueError):
        ring.parse("x + w")


def test_parser_refuses_nesting_beyond_one_hundred_levels():
    ring = PolyRing(101, ("x",))
    assert ring.parse("(" * 100 + "x" + ")" * 100) == ring.parse("x")
    with pytest.raises(ValueError, match="nested deeper than 100 levels"):
        ring.parse("(" * 101 + "x" + ")" * 101)


def test_parser_powers_match_polynomial_powers_and_stop_on_the_budget():
    ring = PolyRing(101, ("x", "y", "z"))
    f = ring.parse("x + 2*y - z")
    for n in (0, 1, 2, 5, 12):
        assert ring.parse(f"(x + 2*y - z)^{n}") == f**n, n
    with pytest.raises(BudgetExceeded, match="parsing multiplied"):
        ring.parse("(x + y + z)^1000000")


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


def _box_standard_monomials(ideal):
    """Reference: scan the box below the pure-power bounds for exponents no leading one divides."""
    n = ideal.ring.nvars
    lead = ideal.leading_exponents()
    if any(sum(e) == 0 for e in lead):
        return []
    bounds = []
    for v in range(n):
        pure = [e[v] for e in lead if sum(e) == e[v]]
        if not pure:
            return None
        bounds.append(min(pure))
    box = iproduct(*(range(b) for b in bounds))
    out = [e for e in box if not any(_divides(le, e) for le in lead)]
    return sorted(out, key=polyring.order_key("grevlex", n))


def test_staircase_walk_matches_box_scan():
    rng = random.Random(20410)
    finite = 0
    for _ in range(150):
        nvars = rng.randint(1, 3)
        ring = PolyRing(101, tuple("xyz"[:nvars]))
        gens = [_random_polynomial(rng, ring, 3, 3) for _ in range(rng.randint(0, 3))]
        for v in range(nvars):
            if rng.random() < 0.9:
                power = tuple(rng.randint(4, 7) if w == v else 0 for w in range(nvars))
                gens.append(ring.monomial(power) + _random_polynomial(rng, ring, 2, 1))
        ideal = ring.ideal(gens)
        expected = _box_standard_monomials(ideal)
        assert standard_monomials(ideal) == expected
        assert quotient_dimension(ideal) == (INFINITE if expected is None else len(expected))
        finite += expected is not None and len(expected) > 1
    assert finite >= 60


def test_staircase_of_a_thin_ideal_is_fast():
    # the box scan takes seconds already at n = 100; the staircase holds 3n - 2 monomials
    ring = PolyRing(101, ("x", "y", "z"))
    n = 2000
    ideal = ring.ideal([f"x^{n}", f"y^{n}", f"z^{n}", "x*y", "y*z", "x*z"])
    start = time.perf_counter()
    monomials = standard_monomials(ideal)
    assert time.perf_counter() - start < 5.0
    assert len(monomials) == quotient_dimension(ideal) == 3 * n - 2
    assert monomials[:4] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_standard_monomials_over_budget_are_counted_not_listed(monkeypatch):
    ring = PolyRing(101, ("x", "y", "z"))
    ideal = ring.ideal(["x^1000", "y^1000", "z^1000"])
    start = time.perf_counter()
    assert quotient_dimension(ideal) == 10**9
    assert time.perf_counter() - start < 1.0
    with pytest.raises(BudgetExceeded) as info:
        standard_monomials(ideal)
    assert info.value.budget == 10**6
    assert "quotient has 1000000000 standard monomials" in str(info.value)
    # the budget is inclusive: (x^2, y^3) has 6 standard monomials
    box = PolyRing(101, ("x", "y")).ideal(["x^2", "y^3"])
    for site in ("polyring.parse", "polyring.standard_monomials", "polyring.degree"):
        monkeypatch.setattr(BUDGETS[site], "limit", 6)
    assert len(standard_monomials(box)) == 6
    for site in ("polyring.parse", "polyring.standard_monomials", "polyring.degree"):
        monkeypatch.setattr(BUDGETS[site], "limit", 5)
    with pytest.raises(BudgetExceeded):
        standard_monomials(box)


def test_hilbert_numerator_complete_intersection():
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal(["x^2", "y^3"])
    # (1 - t^2)(1 - t^3) = 1 - t^2 - t^3 + t^5
    assert hilbert_numerator(ideal) == [1, 0, -1, -1, 0, 1]


def test_hilbert_numerator_requires_homogeneous_input():
    ring = PolyRing(101, ("x", "y"))
    with pytest.raises(NotHomogeneous):
        hilbert_numerator(ring.ideal(["x^2 - y"]))


def test_minimal_monomials_match_divisibility_sieve():
    """`cone._minimal` on exponent keys keeps the monomials no other one divides."""
    rng = random.Random(37)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(0, 8))]
        minimal = [g for g in set(gens) if not any(h != g and _divides(h, g) for h in gens)]
        got = [g for _, g in _minimal(*_keyed((g, g) for g in gens))]
        assert sorted(got) == sorted(minimal)
        assert [sum(g) for g in got] == sorted(sum(g) for g in got)


# -- the tuple numerator, kept as a reference ------------------------------
#
# The Hilbert-numerator recursion on exponent tuples, each colon ideal sieved
# by `cone._minimal`.


def _tuple_monomial_numerator(gens, memo):
    gens = tuple(sorted(gens))
    if any(sum(g) == 0 for g in gens):
        return []
    start = len(gens)
    while start and gens[:start] not in memo:
        start -= 1
    result = memo[gens[:start]] if start else [1]
    for j in range(start, len(gens)):
        m = gens[j]
        colon = [tuple(max(x - y, 0) for x, y in zip(g, m)) for g in gens[:j]]
        kept = [c for _, c in _minimal(*_keyed((c, c) for c in colon))]
        shifted = [0] * sum(m) + _tuple_monomial_numerator(kept, memo)
        result = [x - y for x, y in zip_longest(result, shifted, fillvalue=0)]
        while result and result[-1] == 0:
            result.pop()
        memo[gens[: j + 1]] = result
    return result


def test_packed_numerator_matches_tuple_numerator():
    """The recursion on exponent blocks equals the one on tuples, also with a memo kept across calls."""
    rng = random.Random(20408)
    for case in range(300):
        nvars = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 6) for _ in range(nvars)) for _ in range(rng.randint(0, 9))]
        assert polyring._numerator(nvars, gens, {}) == _tuple_monomial_numerator(gens, {}), (case, gens)
    for n in (1, 2, 3, 10, 60):
        staircase = [(i, n - 1 - i) for i in range(n)]  # x^i * y^(n-1-i)
        assert polyring._numerator(2, staircase, {}) == _tuple_monomial_numerator(staircase, {}), n
    # one memos dict along a growing chain, as in a certificate, across a wider field from step 10 on
    memos = {}
    chain = []
    for step in range(14):
        chain.append((300, 0, 1) if step == 10 else tuple(rng.randint(0, 5) for _ in range(3)))
        assert polyring._numerator(3, chain, memos) == _tuple_monomial_numerator(chain, {}), step
    assert len(memos) == 2  # one memo per field width


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


def test_hilbert_function_below_degree_zero_is_empty():
    """Every upto below 0 lists no values; none is read from the end of the numerator."""
    numerator = [1, 0, -6, 8, -3]
    for upto in (-1, -2, -3, -5, -9):
        assert hilbert_function(numerator, 6, upto) == [], upto


def test_hilbert_function_refuses_a_negative_variable_count():
    """A series over (1-t)^-1 is not the bare numerator; a negative nvars is refused."""
    for nvars in (-1, -2):
        with pytest.raises(ValueError, match=f"nvars must be nonnegative, got {nvars}"):
            hilbert_function([1, -2, 1], nvars, 3)
    assert hilbert_function([1, -2, 1], 0, 3) == [1, -2, 1, 0]


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


def test_is_regular_sequence_compares_whole_numerators():
    ring = PolyRing(101, ("x", "y"))
    cut = ring.parse("x^4 + y^4")
    # numerators 1 - t^4 and (1 - t^4)(1 - t) reach past degree 3
    assert is_regular_sequence([cut, ring.parse("y")], ring.ideal([]))
    # (1 - t^4)^2 and 1 - t^4 first differ in degree 4
    assert not is_regular_sequence([cut, cut], ring.ideal([]))


def test_zero_ring_has_no_regular_sequence():
    """A sequence is regular only on a nonzero module (Bruns & Herzog, Def. 1.1.1)."""
    ring = PolyRing(101, ("x", "y"))
    unit = ring.ideal(["1"])
    for elements in ([ring.parse("x")], [ring.zero()], []):
        assert not is_regular_sequence(elements, unit)
        assert not module_regular_sequence(unit, [ring.one()], elements)
        assert not module_regular_sequence(ring.ideal([]), [], elements)


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
    """Every intake of a ring element refuses a polynomial with other variables or over another field."""
    ring = PolyRing(101, ("x", "y", "z"))
    ideal = ring.ideal(["x^2 - y", "y*z"])
    calls = (
        ideal.normal_form,
        ideal.contains,
        lambda f: saturate(ideal, f),
        lambda f: Ideal(ring, ["x", f]),
        lambda f: module_regular_sequence(ideal, [f], ["x"]),
        lambda f: module_regular_sequence(ideal, ["x"], [f]),
    )
    for other in (PolyRing(101, ("x", "y")), PolyRing(101, ("a", "b")), PolyRing(103, ("x", "y", "z"))):
        f = other.parse(f"{other.variables[0]}*{other.variables[1]}")
        for call in calls:
            with pytest.raises(ValueError, match="polynomial from a different ring"):
                call(f)


def test_a_value_that_is_no_ring_element_is_refused():
    """Every intake of a ring element refuses a value that is neither a string nor a Polynomial."""
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal(["x^2 - y"])
    calls = (
        lambda f: Ideal(ring, [f]),
        lambda f: saturate(ideal, f),
        ideal.normal_form,
        ideal.contains,
        lambda f: module_regular_sequence(ideal, [f], ["x"]),
        lambda f: module_regular_sequence(ideal, ["x"], [f]),
    )
    for value, kind in ((3, "int"), (None, "NoneType"), (1.5, "float"), ([1], "list")):
        for call in calls:
            with pytest.raises(ValueError, match=f"string or a Polynomial, got {kind}$"):
                call(value)


HOSTILE = [
    "-45*x*y^2*z^3 + 50*x^2*z^3 - 24*y",
    "-11*x^3*y*z^3 - 33*x*y^3*z^3 + 47*x^2*y^2*z + 25*y^3",
    "-4*x^3*y^3*z - 48*y^2*z",
]


def test_hostile_lex_basis_ends_within_ten_seconds():
    """A lex basis that ran past a minute under the tuple engine ends with a basis or the typed error."""
    ring = PolyRing(101, ("x", "y", "z"))
    start = time.perf_counter()
    try:
        basis = Ideal(ring, HOSTILE, order="lex").groebner()
    except BudgetExceeded:
        basis = None
    assert time.perf_counter() - start <= 10.0
    if basis is not None:  # the same ideal: each side reduces to zero modulo the other's basis
        lex, grevlex = Ideal(ring, basis, order="lex"), Ideal(ring, HOSTILE)
        assert all(lex.contains(g) for g in grevlex.generators)
        assert all(grevlex.contains(g) for g in basis)


def test_groebner_budget_quotes_the_counter_that_tripped(monkeypatch):
    ring = PolyRing(101, ("x", "y", "z"))
    monkeypatch.setattr(BUDGETS["polyring.pairs"], "limit", 100)
    with pytest.raises(BudgetExceeded) as info:
        Ideal(ring, HOSTILE, order="lex").groebner()
    assert info.value.budget == 100 and "100 S-pairs" in str(info.value)
    monkeypatch.setattr(BUDGETS["polyring.basis"], "limit", 5)
    with pytest.raises(BudgetExceeded) as info:
        Ideal(ring, HOSTILE, order="grevlex").groebner()
    assert info.value.budget == 5 and "5 elements" in str(info.value)


def test_budget_messages_are_pinned_byte_for_byte(monkeypatch):
    """Each budget's message and `budget`, byte for byte: docs/formats.md quotes them.

    One case per entry of `BUDGETS`, so a budget added without a pinned
    message fails here.
    """
    ring = PolyRing(101, ("x", "y", "z"))
    huge = PolyRing(101, ("x", "y")).ideal(["x^" + str(10**400) + " - y", "y^2"])
    cases = [
        (
            "polyring.parse",
            None,
            lambda: ring.parse("(x+y+z)^200"),
            "parsing multiplied 5038020 pairs of terms, over its budget of 1000000",
            10**6,
        ),
        (
            "polyring.degree",
            None,
            lambda: quotient_dimension(huge),
            "a generator has degree over 1000000, the Hilbert numerator budget",
            10**6,
        ),
        (
            "polyring.standard_monomials",
            None,
            lambda: standard_monomials(ring.ideal(["x^1000", "y^1000", "z^1000"])),
            "quotient has 1000000000 standard monomials, over its budget of 1000000",
            10**6,
        ),
        (
            "polyring.pairs",
            100,
            lambda: Ideal(ring, HOSTILE, order="lex").groebner(),
            "Groebner basis reduced 100 S-pairs with 15 left, over its budget",
            100,
        ),
        (
            "polyring.basis",
            5,
            lambda: Ideal(ring, HOSTILE).groebner(),
            "Groebner basis grew past 5 elements, over its budget",
            5,
        ),
        (
            "polyring.reduction",
            10,
            lambda: Ideal(ring, HOSTILE).groebner(),
            "reduction ran 11 steps, over its budget of 10",
            10,
        ),
        (
            # keys of sums 2, 2, 2, 6 are charged 0, 1, 2 and 3 dominance tests
            "cone.sieve",
            3,
            lambda: _minimal(*_keyed([((0, 2), 1), ((1, 1), 2), ((2, 0), 3), ((3, 3), 4)])),
            "minimal sieve ran 6 dominance tests, over its budget of 3",
            3,
        ),
        (
            # one level of 10^29 nodes, counted before it is built
            "cone.triangulation",
            None,
            lambda: Cone(2, [(1, 0), (1, 10**29)]).hilbert_basis(),
            "triangulation counted 100000000000000000000000000001 simplices and parallelepiped nodes,"
            " over its budget of 1000000",
            10**6,
        ),
        (
            "divisor.scan",
            14,
            lambda: divisor.enumerate_mcm_rank_one_candidates(divisor.steinberg_variety()),
            "mcm scan spans 15 classes, over its budget of 14",
            14,
        ),
        (
            "toric.factors",
            None,
            lambda: divisor.steinberg_multiplicity(10**9, 0),
            "S^k x A^s has 1000000000 factors, over its budget of 100000",
            10**5,
        ),
    ]
    for site, limit, run, message, budget in cases:
        if limit is not None:
            monkeypatch.setattr(BUDGETS[site], "limit", limit)
        with pytest.raises(BudgetExceeded) as info:
            run()
        assert (str(info.value), info.value.budget) == (message, budget), site
        monkeypatch.undo()
    assert {site for site, *_ in cases} == set(BUDGETS)


def test_reduction_steps_are_counted_per_basis_and_per_normal_form(monkeypatch):
    """Each basis and each normal form counts its own reduction steps, from zero.

    The leaders of x - y and y - z are coprime, so no S-pair is reduced,
    and the basis takes its one step in the final interreduction (x - y to
    x - z). x^3 then reduces to z^3 in 3 steps, and z in none.
    """
    ring = PolyRing(101, ("x", "y", "z"))
    monkeypatch.setattr(BUDGETS["polyring.reduction"], "limit", 0)
    with pytest.raises(BudgetExceeded, match="^reduction ran 1 steps, over its budget of 0$"):
        Ideal(ring, ["x - y", "y - z"]).groebner()
    monkeypatch.setattr(BUDGETS["polyring.reduction"], "limit", 3)
    ideal = Ideal(ring, ["x - y", "y - z"])
    for _ in range(3):
        assert ideal.normal_form("x^3") == ring.parse("z^3")
    monkeypatch.setattr(BUDGETS["polyring.reduction"], "limit", 2)
    with pytest.raises(BudgetExceeded, match="^reduction ran 3 steps, over its budget of 2$"):
        ideal.normal_form("x^3")
    monkeypatch.setattr(BUDGETS["polyring.reduction"], "limit", 0)
    assert ideal.normal_form("z") == ring.parse("z")


def test_exponents_at_the_field_limit(monkeypatch):
    """Packed fields that fill up are widened, never carried, in every order.

    With the narrowest legal fields the largest input field (x^7: exponent
    and degree 7) sits exactly at the field limit 7, so nearly every
    product overflows and the engine must repack; bases and normal forms
    still equal the tuple engine's.
    """
    monkeypatch.setattr(polyring, "_field_bits", lambda top: top.bit_length() + 1)
    ring = PolyRing(101, ("x", "y", "z"))
    gens = [ring.parse("x^7 - y*z^2 + 3"), ring.parse("y^2*z - x*y + z"), ring.parse("x*z^3 - y")]
    for order in ("grevlex", "lex", ("elim", 1)):
        ideal = Ideal(ring, gens, order=order)
        key = _ref_order_key(order, ring.nvars)
        reference = _ref_groebner(ring, ideal.generators, key)
        assert ideal.groebner() == [g for _, g in reference], order
        assert ideal._basis()[0].limit > 7  # the fields were widened at least once
        for text in ("x^7*z^7", "y^15 + x^9*y*z^3", "x^20 - z^13"):
            f = ring.parse(text)
            want = _ref_normal_form(f, [g for _, g in reference], key)
            assert ideal.normal_form(f) == want, (order, text)
    # at the default width, a lex remainder that outgrows the fields is widened too
    ideal = Ideal(ring, ["x - y^2", "y - z^3"], order="lex")
    limit = ideal._basis()[0].limit
    gb = ideal._gb
    assert ideal.normal_form(ring.monomial((limit, 0, 0))) == ring.monomial((0, 0, 6 * limit))
    assert ideal._gb is gb  # the widened records are not cached


def _fitting_exponents(rng, spans, nvars, limit):
    """Random exponents whose packed fields fit, often with a field exactly at `limit`."""
    if not spans:
        return tuple(rng.choice((0, limit, rng.randint(0, limit))) for _ in range(nvars))
    e = []
    for lo, hi in spans:
        total = rng.choice((limit, rng.randint(0, limit)))
        if rng.random() < 0.3:
            part = [0] * (hi - lo)
            part[rng.randrange(hi - lo)] = total
        else:
            cuts = sorted(rng.randint(0, total) for _ in range(hi - lo - 1))
            part = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        e += part
    return tuple(e)


def test_block_max_matches_tuple_max():
    """The block max of two fitting monomials is their packed lcm's block, in every order.

    The weighted lcm built from it equals the packed lcm, or raises
    _Overflow when a weight of the lcm outgrows its field.
    """
    rng = random.Random(20409)
    for order in ("grevlex", "lex", ("elim", 2)):
        for nvars, bits in ((3, 4), (4, 8), (5, 12)):
            spans = polyring._spans(order, nvars)
            packing = polyring._Packing(spans, nvars, bits)
            limit, low = packing.limit, packing.low
            at_limit = overflows = 0
            for _ in range(200):
                a, b = (packing.pack(_fitting_exponents(rng, spans, nvars, limit)) for _ in range(2))
                assert not (a | b) & packing.guard
                lcm = _lcm(packing.unpack(a), packing.unpack(b))
                block = packing.block_max(a & low, b & low)
                assert block == packing.pack(lcm) & low, (order, lcm)
                at_limit += limit in lcm
                if sum(lcm) <= limit:
                    assert packing.degree(block) == sum(lcm)
                if polyring._field_max(spans, [lcm]) <= limit:
                    assert packing.weighted(block) == packing.pack(lcm), (order, lcm)
                else:
                    overflows += 1
                    with pytest.raises(polyring._Overflow):
                        packing.weighted(block)
            assert at_limit and (overflows > 0) == bool(spans), (order, nvars)


def test_packed_fields_weigh_by_one_multiply():
    """In grevlex, lex and every ("elim", k) on 4 to 7 variables the packed fields read the order.

    Packed ints compare as `order_key` does; the weights of a block, put
    on by one multiply per span, give back its packed monomial; a block's
    degree is one multiply and shift; and a weight one past the field limit
    raises _Overflow instead of carrying.
    """
    rng = random.Random(20411)
    for nvars in range(4, 8):
        for order in ("grevlex", "lex") + tuple(("elim", k) for k in range(1, nvars)):
            spans = polyring._spans(order, nvars)
            key = polyring.order_key(order, nvars)
            packing = polyring._Packing(spans, nvars, rng.choice((5, 8, 11)))
            limit, low = packing.limit, packing.low
            exps = [_fitting_exponents(rng, spans, nvars, limit) for _ in range(40)]
            packed = [packing.pack(e) for e in exps]
            for a, m in zip(exps, packed):
                assert not m & packing.guard and packing.unpack(m) == a
                assert packing.weighted(m & low) == m, (order, a)
                if sum(a) <= limit:
                    assert packing.degree(m & low) == sum(a), (order, a)
                for b, n in zip(exps, packed):
                    assert (m < n) == (key(a) < key(b)), (order, a, b)
            wide = [(lo, hi) for lo, hi in spans if hi - lo > 1]
            assert bool(wide) == (order != "lex")
            for lo, hi in wide:
                e = list(_fitting_exponents(rng, spans, nvars, limit))
                e[lo:hi] = [limit, 0] + [0] * (hi - lo - 2)
                e[rng.randrange(lo + 1, hi)] = 1  # the span's degree is limit + 1
                block = sum(x << s for x, s in zip(e, packing.shifts))
                with pytest.raises(polyring._Overflow):
                    packing.weighted(block)


def test_field_max_reads_span_degrees():
    """The widest field, read off the degrees of the spans, equals the max over every row and exponent."""
    rng = random.Random(20410)
    for order in ("grevlex", "lex", ("elim", 1), ("elim", 2)):
        for nvars in (3, 4):
            spans = polyring._spans(order, nvars)
            rows = polyring._weight_rows(spans, nvars)
            for _ in range(100):
                exps = [tuple(rng.randint(0, 9) for _ in range(nvars)) for _ in range(rng.randint(0, 4))]
                every = [max(e + tuple(sum(w * x for w, x in zip(row, e)) for row in rows)) for e in exps]
                assert polyring._field_max(spans, exps) == max(every, default=0), (order, exps)


# -- the earlier engine, kept as a reference --------------------------------
#
# Buchberger on exponent tuples: a key function for the order, the least-lcm
# pair first with only the coprime criterion, and `max(work, key=key)` to
# pick each term of a reduction.


def _lcm(a, b):
    return tuple(map(max, a, b))


def _ref_order_key(order, nvars):
    def grevlex(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    if order == "grevlex":
        return grevlex
    if order == "lex":
        return lambda e: tuple(e)
    k = order[1]
    return lambda e: (grevlex(e[:k]), grevlex(e[k:]))


def _ref_reduce_terms(ring, terms, records, key):
    p = ring.char
    work = dict(terms)
    remainder = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for lt, g in records:
            if _divides(lt, e):
                break
        else:
            remainder[e] = c
            continue
        shift = _sub(e, lt)
        for ge, gc in g.terms.items():
            if ge == lt:
                continue
            te = _add(ge, shift)
            s = (work.get(te, 0) - c * gc) % p
            if s:
                work[te] = s
            elif te in work:
                del work[te]
    return remainder


def _ref_record(g, key):
    lt, lc = g.leading_term(key)
    return lt, g * pow(lc, -1, g.ring.char)


def _ref_s_terms(a, b, p):
    (lt_a, f), (lt_b, g) = a, b
    lcm = _lcm(lt_a, lt_b)
    shift_a, shift_b = _sub(lcm, lt_a), _sub(lcm, lt_b)
    out = {_add(e, shift_a): c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        te = _add(e, shift_b)
        s = (out.get(te, 0) - c) % p
        if s:
            out[te] = s
        elif te in out:
            del out[te]
    return out


def _ref_groebner(ring, generators, key):
    p = ring.char
    basis = sorted((_ref_record(g, key) for g in generators if g.terms), key=lambda r: key(r[0]))
    heap = [
        (key(_lcm(basis[i][0], basis[j][0])), i, j)
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    ]
    heapify(heap)
    while heap:
        _, i, j = heappop(heap)
        lt_i, lt_j = basis[i][0], basis[j][0]
        if _lcm(lt_i, lt_j) == _add(lt_i, lt_j):
            continue
        r = _ref_reduce_terms(ring, _ref_s_terms(basis[i], basis[j], p), basis, key)
        if r:
            new = _ref_record(ring.polynomial(r), key)
            for k, (lt, _) in enumerate(basis):
                heappush(heap, (key(_lcm(lt, new[0])), k, len(basis)))
            basis.append(new)
    basis.sort(key=lambda r: key(r[0]))
    minimal = []
    for lt, g in basis:
        if not any(_divides(m, lt) for m, _ in minimal):
            minimal.append((lt, g))
    return [
        (lt, ring.polynomial(_ref_reduce_terms(ring, g.terms, minimal[:i] + minimal[i + 1 :], key)))
        for i, (lt, g) in enumerate(minimal)
    ]


def _ref_normal_form(f, polys, key):
    records = [_ref_record(g, key) for g in polys if g.terms]
    return f.ring.polynomial(_ref_reduce_terms(f.ring, f.terms, records, key))


def _dense_shapes(rng, field=32003):
    """The five dense 4-variable systems of the benchmark's groebner workload."""
    ring = PolyRing(field, ("w", "x", "y", "z"))
    shapes = []
    for cubics in range(5):
        gens = []
        for d in [2] * (4 - cubics) + [3] * cubics:
            terms = {e: rng.randrange(1, field) for e in iproduct(range(d + 1), repeat=4) if sum(e) == d}
            gens.append(ring.polynomial(terms))
        shapes.append((ring, gens, "grevlex"))
    return shapes


def _saturation_inputs(rng, cases):
    """Elimination ideals (I + (t*f - 1)) that `saturate` builds, over F_5 .. F_32003."""
    out = []
    for _ in range(cases):
        char = rng.choice((5, 7, 101, 32003))
        base = PolyRing(char, ("x", "y", "z"))
        ext = PolyRing(char, ("t", "x", "y", "z"))
        gens = [_random_polynomial(rng, base, 3, 2) for _ in range(2)]
        f = base.monomial((rng.randint(0, 1), rng.randint(0, 1), 1))
        lifted = [ext.polynomial({(0,) + e: c for e, c in g.terms.items()}) for g in gens + [f]]
        out.append((ext, lifted[:-1] + [ext.variable("t") * lifted[-1] - ext.one()], ("elim", 1)))
    return out


def _reference_suite(rng):
    """345 seeded ideals: 300 random ones in every order, the dense shapes, 40 saturations."""
    cases = []
    for _ in range(300):
        char = rng.choice((5, 7, 101, 32003))
        nvars = rng.randint(2, 4)
        ring = PolyRing(char, tuple("wxyz"[:nvars]))
        max_exp = 5 - nvars  # keeps lex bases in 4 variables small
        gens = [_random_polynomial(rng, ring, 3, max_exp) for _ in range(rng.randint(2, 4))]
        cases.append((ring, gens, rng.choice(("grevlex", "lex", ("elim", 1)))))
    return cases + _dense_shapes(rng) + _saturation_inputs(rng, 40)


def test_groebner_records_match_reference_engine():
    """Bases, leading exponents and normal forms equal the tuple engine's on seeded ideals."""
    rng = random.Random(20405)
    cases = _reference_suite(rng)
    seen = set()
    for case, (ring, gens, order) in enumerate(cases):
        seen.add(order)
        ideal = Ideal(ring, gens, order=order)
        key = _ref_order_key(order, ring.nvars)
        reference = _ref_groebner(ring, ideal.generators, key)
        assert ideal.groebner() == [g for _, g in reference], (case, gens, order)
        assert ideal.leading_exponents() == [lt for lt, _ in reference], case
        basis = [g for _, g in reference]
        for _ in range(3):
            f = _random_polynomial(rng, ring, 5, 4)
            assert ideal.normal_form(f) == _ref_normal_form(f, basis, key), (case, f)
    assert seen == {"grevlex", "lex", ("elim", 1)}


def _basis_terms(ring, order, gb):
    """Each element of a `_groebner` basis as its (exponents, coefficient) items, in stored order."""
    ideal = Ideal(ring, [], order=order)
    ideal._gb = gb
    return [list(g.terms.items()) for g in ideal.groebner()]


def test_groebner_grown_from_a_known_basis_matches_from_scratch():
    """Seeding with the basis of a prefix of the generators gives the same reduced basis."""
    rng = random.Random(20406)
    cases = _reference_suite(random.Random(20405))
    seen = set()
    for case, (ring, gens, order) in enumerate(cases):
        seen.add(order)
        gens = Ideal(ring, gens, order=order).generators
        split = rng.randint(1, len(gens) - 1)
        known = Ideal(ring, gens[:split], order=order)._basis()
        grown = polyring._groebner(ring, gens[split:], order, known)
        fresh = polyring._groebner(ring, gens, order)
        assert _basis_terms(ring, order, grown) == _basis_terms(ring, order, fresh), (case, split, order)
    assert seen == {"grevlex", "lex", ("elim", 1)}


def test_known_basis_counts_toward_the_basis_budget(monkeypatch):
    ring = PolyRing(101, ("x", "y", "z"))
    known = Ideal(ring, ["x^2", "y^2", "z^2"])._basis()
    monkeypatch.setattr(BUDGETS["polyring.basis"], "limit", 3)
    with pytest.raises(BudgetExceeded) as info:
        polyring._groebner(ring, [ring.parse("x*y")], "grevlex", known)
    assert info.value.budget == 3


def test_known_basis_in_narrower_fields_is_repacked():
    """A new generator that outgrows the known basis's fields gets the known elements repacked."""
    ring = PolyRing(101, ("x", "y", "z"))
    ideal = Ideal(ring, ["x^2 - y*z", "y^3 - z^3"])
    known = ideal._basis()
    big = ring.parse("x^200*z - y^201")
    grown = polyring._groebner(ring, [big], "grevlex", known)
    assert grown[0].bits > known[0].bits
    fresh = polyring._groebner(ring, list(ideal.generators) + [big], "grevlex")
    assert _basis_terms(ring, "grevlex", grown) == _basis_terms(ring, "grevlex", fresh)


# -- regular sequences from scratch, kept as a reference ----------------------
#
# Each step's basis computed from the raw generators of the step's ideal.


def _series_times_one_minus_t_to(a, e):
    """The coefficient list of a(t) * (1 - t^e), multiplied term by term, trailing zeros trimmed."""
    factor = [1] + [0] * e
    factor[e] -= 1
    out = [0] * (len(a) + len(factor) - 1) if a else []
    for i, x in enumerate(a):
        for j, y in enumerate(factor):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _scratch_is_regular_sequence(elements, i):
    ring = i.ring
    current = list(i.generators)
    n_prev = hilbert_numerator(i)
    if not n_prev:
        return False
    for f in elements:
        if f.is_zero():
            return False
        current.append(f)
        n_next = hilbert_numerator(Ideal(ring, current, order=i.order))
        expected = _series_times_one_minus_t_to(n_prev, f.degree())
        if n_next != expected:
            return False
        n_prev = n_next
    return True


def _scratch_module_regular_sequence(i, module_gens, elements):
    ring = i.ring
    if not module_gens:
        return False
    base = list(i.generators)
    n_top = hilbert_numerator(Ideal(ring, base + list(module_gens), order=i.order))
    n_prev = polyring._minus(hilbert_numerator(i), n_top)
    if not n_prev:
        return False
    cut = []
    for f in elements:
        if f.is_zero():
            return False
        cut.extend(f * g for g in module_gens)
        n_k = hilbert_numerator(Ideal(ring, base + cut, order=i.order))
        n_mod = polyring._minus(n_k, n_top)
        expected = _series_times_one_minus_t_to(n_prev, f.degree())
        if n_mod != expected:
            return False
        n_prev = n_mod
    return True


def test_regular_sequences_on_the_scan_classes_match_from_scratch(monkeypatch):
    """On all 31 classes of the surface's MCM scan, both certificates agree with the scratch route."""
    v = divisor.steinberg_variety()
    cg = v.class_group()
    calls = []  # (presentation ideal, lifted module generators, parameter sequence) per class
    monkeypatch.setattr(divisor, "module_regular_sequence", lambda *args: calls.append(args))
    for k in range(-15, 16):
        rep = cg.representative(divisor.DivisorClass(v, (k,)))
        divisor.module_is_maximal_cohen_macaulay(v, divisor.module_generators(v, rep).generators)
    monkeypatch.undo()
    assert len(calls) == 31
    certified = []
    for k, (i, module, sequence) in zip(range(-15, 16), calls):
        got = module_regular_sequence(i, module, sequence)
        assert got == _scratch_module_regular_sequence(i, module, sequence), k
        top = ideal_sum(i, Ideal(i.ring, module))
        assert is_regular_sequence(sequence, top) == _scratch_is_regular_sequence(sequence, top), k
        if got:
            certified.append(k)
    assert certified == [-1, 0, 1, 2, 3]


def _random_form(rng, ring, degree, terms=3):
    """A homogeneous polynomial of the given degree with up to `terms` terms."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        cuts = sorted(rng.randint(0, degree) for _ in range(ring.nvars - 1))
        out[tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))] = rng.randint(1, ring.char - 1)
    return ring.polynomial(out)


def test_regular_sequences_on_seeded_forms_match_from_scratch():
    rng = random.Random(20407)
    outcomes = set()
    for case in range(120):
        ring = PolyRing(rng.choice((5, 101, 32003)), tuple("wxyz"[: rng.randint(2, 4)]))
        i = Ideal(ring, [_random_form(rng, ring, rng.randint(2, 3)) for _ in range(rng.randint(0, 2))])
        elements = [_random_form(rng, ring, rng.randint(1, 2), 2) for _ in range(rng.randint(1, 3))]
        got = is_regular_sequence(elements, i)
        assert got == _scratch_is_regular_sequence(elements, i), (case, i, elements)
        module = [_random_form(rng, ring, rng.randint(0, 1), 2) for _ in range(rng.randint(1, 2))]
        got_module = module_regular_sequence(i, module, elements)
        assert got_module == _scratch_module_regular_sequence(i, module, elements), (case, i, module)
        outcomes |= {repr(got), repr(got_module)}
    assert {"True", "False"} <= outcomes


def test_surface_multiplicities_compute_no_groebner_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was computed")

    monkeypatch.setattr(polyring, "_groebner", refuse)
    assert [steinberg_multiplicity(k, 0) for k in range(1, 6)] == [2, 4, 8, 16, 32]


def test_hilbert_numerator_of_a_thousand_monomials_is_the_closed_form():
    """The chain of 1,000 generators is walked without a RecursionError."""
    ring = PolyRing(101, ("x", "y"))
    ideal = ring.ideal([ring.monomial((i, 999 - i)) for i in range(1000)])
    start = time.perf_counter()
    numerator = hilbert_numerator(ideal)
    assert time.perf_counter() - start <= 20.0
    assert numerator == [1] + [0] * 998 + [-1000, 999]


def test_non_integral_scalars_are_refused():
    """A field, coefficient or exponent that is not an integer is refused, never truncated."""
    for char in (3.5, "7"):
        with pytest.raises(ValueError):
            PolyRing(char, ("x", "y"))
    ring = PolyRing(7.0, ("x", "y"))
    assert ring == PolyRing(7, ("x", "y")) and type(ring.char) is int
    for call in (
        lambda: ring.monomial((1.5, 0)),
        lambda: ring.monomial((1, 0), coeff=0.5),
        lambda: Polynomial(ring, {(1, 0): 1.5}),
        lambda: Polynomial(ring, {(0.5, 1): 1}),
    ):
        with pytest.raises(ValueError):
            call()
    assert ring.monomial((2.0, 1), coeff=3.0) == ring.parse("3*x^2*y")
