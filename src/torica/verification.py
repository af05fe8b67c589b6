"""End-to-end named checks for every headline computation in the package.

Each check recomputes one published quantity from scratch and compares it
against its frozen expected value (or against an independent second route,
where one exists). `run_checks` drives them all and returns a versioned
JSON-ready report; the command line `verify` subcommand and the acceptance
test suite both consume it.
"""

from .cohomology import LineBundleOnP1Product, check_danilov_hypothesis, danilov_violations, h_dim_product
from .cone import Cone
from .divisor import (
    a1_variety,
    canonical_class,
    divisor_from_ray_coeffs,
    div_of_character,
    enumerate_mcm_rank_one_candidates,
    half_canonical,
    module_generators,
    steinberg_multiplicity,
    steinberg_product_variety,
    steinberg_variety,
    trace_surjectivity_witness,
)
from .errors import NonUnique
from .polyring import (
    PolyRing,
    hilbert_function,
    hilbert_numerator,
    ideal_equal,
    ideal_sum,
    is_regular_sequence,
    quotient_dimension,
    saturate,
    standard_monomials,
)
from .toric import (
    PHI_COLUMNS,
    STEINBERG_VARIABLES,
    steinberg_minors_ideal,
    steinberg_monomial_map,
    steinberg_ring_mod_l,
)
from .zlinalg import _int_tuple, kernel_basis

REPORT_VERSION = 2

_CHECKS = []


def _check(fn):
    _CHECKS.append((fn.__name__.replace("check_", "", 1), fn))
    return fn


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    return str(value)


class _Context:
    """The field and the surface every check shares; the surface builds its parts when first read."""

    def __init__(self, field):
        self.field = field
        self.surface = steinberg_variety(field)  # refuses field 2 and a non-prime field


@_check
def check_toric_ideal_is_minors(ctx):
    pres = ctx.surface.presentation
    minors = steinberg_minors_ideal(pres.ring)
    got = {
        "equal": ideal_equal(pres.ideal, minors),
        "binomials": len(pres.ideal.groebner()),
    }
    return {"equal": True, "binomials": 6}, got


@_check
def check_saturation_recovers_relations(ctx):
    ring = PolyRing(ctx.field, STEINBERG_VARIABLES)
    partial = ring.ideal(["A*Z-C*X", "A*X-C*Y", "A*X-B*Z"])
    sat = saturate(partial, ring.parse("A*B*C*X*Y*Z"))
    minors = steinberg_minors_ideal(ring)
    got = {"equal": ideal_equal(sat, minors), "binomials": len(sat.groebner())}
    return {"equal": True, "binomials": 6}, got


@_check
def check_dual_of_semigroup_cone(ctx):
    phi_cone = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2)])
    got = list(phi_cone.dual().rays())
    return [(0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, -1)], got


@_check
def check_dual_of_surface_cone(ctx):
    got = list(ctx.surface.dual_cone.rays())
    return [(0, 1, 0), (0, 1, 2), (1, 0, 0), (1, 0, 2)], got


@_check
def check_hilbert_basis_is_phi_columns(ctx):
    got = list(ctx.surface.semigroup.hilbert_generators)
    return sorted(PHI_COLUMNS), got


@_check
def check_kernel_lattice_of_phi(ctx):
    kb = kernel_basis(steinberg_monomial_map().phi)
    got = [kb.column(j) for j in range(kb.cols)]
    return [(1, 0, -1, 1, -1, 0), (0, 1, -1, 0, -1, 1), (0, 0, 0, 2, -1, -1)], got


@_check
def check_class_group_of_surface(ctx):
    cg = ctx.surface.class_group()
    return {"free": 1, "torsion": []}, {"free": cg.free_rank, "torsion": list(cg.torsion)}


@_check
def check_ray_divisor_classes(ctx):
    S = ctx.surface
    got = []
    for u in S.rays:
        cls = divisor_from_ray_coeffs(S, {u: 1}).divisor_class()
        got.append([list(u), cls.free[0]])
    return [[[0, 0, 1], 1], [[0, 1, 0], -2], [[1, 0, 0], -2], [[2, 2, -1], 1]], got


@_check
def check_principal_divisors_vanish(ctx):
    S = ctx.surface
    x_div = div_of_character(S, (1, 0, 0))
    z_div = div_of_character(S, (0, 0, 1))
    got = {
        "div_x": list(x_div.coeffs),
        "div_z": list(z_div.coeffs),
        "class_x_zero": x_div.divisor_class().is_zero(),
        "class_z_zero": z_div.divisor_class().is_zero(),
    }
    return {
        "div_x": [0, 0, 1, 2],
        "div_z": [1, 0, 0, -1],
        "class_x_zero": True,
        "class_z_zero": True,
    }, got


@_check
def check_canonical_and_half(ctx):
    S = ctx.surface
    got = {
        "canonical": list(canonical_class(S).free),
        "half": list(half_canonical(S).free),
    }
    return {"canonical": [2], "half": [1]}, got


@_check
def check_degree_one_module_generators(ctx):
    S = ctx.surface
    d = divisor_from_ray_coeffs(S, {(1, 0, 0): -1, (0, 0, 1): -1})
    got = {
        "class": list(d.divisor_class().free),
        "generators": [list(g) for g in module_generators(S, d).generators],
    }
    return {"class": [1], "generators": [[1, 0, 1], [1, 0, 2]]}, got


@_check
def check_canonical_module_generators(ctx):
    S = ctx.surface
    d = divisor_from_ray_coeffs(S, {(1, 0, 0): -1})
    got = {
        "class": list(d.divisor_class().free),
        "generators": [list(g) for g in module_generators(S, d).generators],
    }
    return {"class": [2], "generators": [[1, 0, 0], [1, 0, 1], [1, 0, 2]]}, got


@_check
def check_trace_witness(ctx):
    S = ctx.surface
    degree_one = divisor_from_ray_coeffs(S, {(1, 0, 0): -1, (0, 0, 1): -1})
    canonical_model = divisor_from_ray_coeffs(S, {(1, 0, 0): -1})
    ok, witness = trace_surjectivity_witness(S, degree_one, target=canonical_model)
    got = {"surjective": ok, "witness": list(witness) if witness else None}
    return {"surjective": True, "witness": [1, 0, 2]}, got


@_check
def check_multiplicity_table(ctx):
    table = [(0, 0), (1, 0), (1, 2), (2, 0), (3, 1)]
    got = [[list(ks), steinberg_multiplicity(*ks, field=ctx.field)] for ks in table]
    expected = [[[0, 0], 1], [[1, 0], 2], [[1, 2], 2], [[2, 0], 4], [[3, 1], 8]]
    return expected, got


@_check
def check_product_class_data(ctx):
    v = steinberg_product_variety(2, 1, ctx.field)
    cg = v.class_group()
    half = half_canonical(v)
    rep = cg.representative(half)
    got = {
        "rays": len(v.rays),
        "free": cg.free_rank,
        "torsion": list(cg.torsion),
        "canonical": list(canonical_class(v).free),
        "half": list(half.free),
        "half_module_generators": len(module_generators(v, rep).generators),
    }
    return {
        "rays": 9,
        "free": 2,
        "torsion": [],
        "canonical": [2, 2],
        "half": [1, 1],
        "half_module_generators": 4,
    }, got


@_check
def check_mcm_scan(ctx):
    results = enumerate_mcm_rank_one_candidates(ctx.surface)
    got = [[cls.free[0], count] for cls, count in results]
    return [[-1, 4], [0, 1], [1, 2], [2, 3], [3, 4]], got


@_check
def check_quotient_dimension_and_monomials(ctx):
    ring = PolyRing(ctx.field, ("C", "Y", "Z", "A", "B", "X"))
    cut = ideal_sum(steinberg_minors_ideal(ring), ring.ideal(["C", "Y", "B-Z"]))
    dim = quotient_dimension(cut)
    basis = standard_monomials(cut)
    names = sorted(str(ring.monomial(e)) for e in basis)
    return {"dimension": 4, "monomials": ["1", "A", "B", "X"]}, {
        "dimension": dim,
        "monomials": names,
    }


@_check
def check_quotient_dimension_across_fields(ctx):
    got = {}
    for p in (3, 5, 101):
        pres = steinberg_ring_mod_l(p)
        ring = pres.ring
        cut = ideal_sum(pres.ideal, ring.ideal(["C", "Y", "B-Z"]))
        got[str(p)] = quotient_dimension(cut)
    return {"3": 4, "5": 4, "101": 4}, got


@_check
def check_parameter_sequence_regular(ctx):
    pres = ctx.surface.presentation
    ring = pres.ring
    elems = [ring.parse("C"), ring.parse("Y"), ring.parse("B-Z")]
    got = is_regular_sequence(elems, pres.ideal)
    return True, got


@_check
def check_hilbert_series_matches_cohomology(ctx):
    numerator = hilbert_numerator(ctx.surface.presentation.ideal)
    values = hilbert_function(numerator, 6, upto=8)
    sections = [h_dim_product(0, (2 * i, i)) for i in range(9)]
    # degree: divide the numerator by (1 - t)^3, then evaluate at t = 1.
    # dividing by (1 - t) turns coefficients into prefix sums, and the last
    # prefix sum (the value at t = 1) must vanish for the division to be exact.
    coeffs = numerator
    for _ in range(3):
        prefix = []
        acc = 0
        for c in coeffs:
            acc += c
            prefix.append(acc)
        if prefix and prefix[-1] != 0:
            return {"divisible": True}, {"divisible": False}
        coeffs = prefix[:-1]
    degree = sum(coeffs)
    got = {
        "numerator": list(numerator),
        "values": values,
        "degree": degree,
    }
    return {"numerator": [1, 0, -6, 8, -3], "values": sections, "degree": 4}, got


@_check
def check_danilov_hypothesis_for_surface(ctx):
    bundle = LineBundleOnP1Product((2, 1))
    negative = LineBundleOnP1Product((-1,))
    got = {
        "surface_bundle_ok": check_danilov_hypothesis([bundle], 50),
        "sections": h_dim_product(0, bundle),
        "negative_ok": check_danilov_hypothesis([negative], 3),
        "first_violation": danilov_violations([negative], 3)[:1],
    }
    return {
        "surface_bundle_ok": True,
        "sections": 6,
        "negative_ok": False,
        "first_violation": [{"factor": 0, "d": 1, "i": 2}],
    }, got


@_check
def check_quadric_cone_half_canonical(ctx):
    v = a1_variety()
    cg = v.class_group()
    try:
        half_canonical(v)
        outcome = {"error": None, "count": None}
    except NonUnique as err:
        outcome = {"error": "NON_UNIQUE", "count": err.count}
    got = {"free": cg.free_rank, "torsion": list(cg.torsion)}
    got.update(outcome)
    return {"free": 0, "torsion": [2], "error": "NON_UNIQUE", "count": 2}, got


def run_checks(field=101):
    """Run every named check; returns the versioned report dictionary.

    A field the surface refuses (2, or not prime) raises ValueError before any check runs.
    """
    (field,) = _int_tuple((field,))
    ctx = _Context(field)
    entries = []
    for name, fn in _CHECKS:
        try:
            expected, got = fn(ctx)
            expected = _jsonable(expected)
            got = _jsonable(got)
            entry = {
                "check_id": name,
                "expected": expected,
                "got": got,
                "pass": expected == got,
            }
        except Exception as err:
            entry = {
                "check_id": name,
                "expected": None,
                "got": {"error": type(err).__name__, "message": str(err)},
                "pass": False,
            }
        entries.append(entry)
    return {
        "report_version": REPORT_VERSION,
        "field": field,
        "total": len(entries),
        "passed": sum(1 for e in entries if e["pass"]),
        "all_pass": all(e["pass"] for e in entries),
        "checks": entries,
    }
