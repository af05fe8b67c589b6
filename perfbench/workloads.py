"""The four workloads: seeded inputs, one operation each, and answer checks.

An input is plain JSON data made from the seed alone; `run` turns it into
library calls and returns a plain, canonical answer; `check` verifies the
answer by a route that does not call the routine under test and returns an
error message or None. The library is passed in as `torica`, because the
runner imports it afresh while timing set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations, product
from math import gcd

import check

FIELD = 32003  # groebner workload; verify and product_law use the library default


def _terms(poly):
    return sorted([list(e), c] for e, c in poly.terms.items())


def _basis(ideal):
    return [_terms(g) for g in ideal.groebner()]


def _as_dicts(basis):
    return [{tuple(e): c for e, c in g} for g in basis]


# -- verify -----------------------------------------------------------------


class Verify:
    """`torica verify --json` in-process: the paper's own end-to-end check."""

    name = "verify"
    budget_s = 30.0

    def inputs(self, rng):
        return [{"argv": ["verify", "--json"]}]

    def run(self, torica, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = torica.cli.main(list(op["argv"]))
        return [code, out.getvalue()]

    def check(self, torica, op, answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if not report["all_pass"]:
            failed = [c["check_id"] for c in report["checks"] if not c["pass"]]
            return f"checks failed: {failed}"
        return None


# -- product_law ------------------------------------------------------------


class ProductLaw:
    """steinberg_multiplicity(k, 0) == 2^k on a fixed ladder, then a max-k probe."""

    name = "product_law"
    budget_s = 30.0
    ladder = (1, 2, 3, 4)
    probe_budget_s = 6.0  # per k; k = 5 takes about 25 s on a 2-core 2.1 GHz Xeon VM
    probe_top = 10

    def inputs(self, rng):
        return [{"k": k} for k in self.ladder]

    def run(self, torica, op):
        return torica.steinberg_multiplicity(op["k"], 0)

    def check(self, torica, op, answer):
        return None if answer == 2 ** op["k"] else f"multiplicity {answer} != 2^{op['k']}"


# -- groebner ---------------------------------------------------------------


# Symmetries of the square {0, 1, 2}^2 as maps of a column (1, a, b). Each is
# an integer unimodular change of coordinates of Z^3, so it moves phi but not
# its kernel, and the toric ideal stays the same.
SQUARE = (
    lambda a, b: (a, b),
    lambda a, b: (2 - a, b),
    lambda a, b: (a, 2 - b),
    lambda a, b: (2 - a, 2 - b),
    lambda a, b: (b, a),
    lambda a, b: (2 - b, a),
    lambda a, b: (b, 2 - a),
    lambda a, b: (2 - b, 2 - a),
)


def _square_orbit_representatives():
    """The lexicographically least member of each orbit of 6-subsets of {0, 1, 2}^2."""
    grid = [(a, b) for a in range(3) for b in range(3)]
    return sorted(
        {min(tuple(sorted(move(a, b) for a, b in subset)) for move in SQUARE)
         for subset in combinations(grid, 6)}
    )


class Groebner:
    """Dense homogeneous systems in 4 variables, and 3x6 toric ideals, over F_32003.

    Dense systems: four generators with every monomial of degree 2 or 3 and
    seeded coefficients, once per count of cubics (0..4). Generic
    coefficients give each degree pattern one Groebner basis shape, so the
    seed moves coefficients but not cost. Toric ideals: one map per orbit
    of six distinct columns (1, a, b), a, b in {0, 1, 2}, under the
    symmetries of the square -- 16 maps, every such ideal up to renaming
    variables -- moved by a seeded symmetry, plus two seeded lattice points
    to lift. The column order is the variable order and is kept, because
    reordering alone moves a map's cost up to tenfold; entries up to 3 give
    a heavy tail (one map in 20 over 2 s). Either would make a pass a draw
    of a few slow inputs.
    """

    name = "groebner"
    budget_s = 20.0
    nvars = 4
    check_degree = 5  # Macaulay-matrix Hilbert function checked up to here
    toric_check_degree = 4

    def inputs(self, rng):
        ops = []
        for cubics in range(5):
            degrees = [2] * (4 - cubics) + [3] * cubics
            gens = [
                [[list(m), rng.randrange(1, FIELD)] for m in check.monomials(self.nvars, d)]
                for d in degrees
            ]
            ops.append({"kind": "dense", "generators": gens})
        for subset in _square_orbit_representatives():
            move = rng.choice(SQUARE)
            cols = [(1,) + move(a, b) for a, b in subset]
            points = [
                [sum(x) for x in zip(*rng.choices(cols, k=rng.randint(2, 4)))] for _ in range(2)
            ]
            ops.append({"kind": "toric", "columns": [list(c) for c in cols], "points": points})
        return ops

    def run(self, torica, op):
        if op["kind"] == "dense":
            ring = torica.PolyRing(FIELD, [f"x{i}" for i in range(self.nvars)])
            gens = [ring.polynomial({tuple(e): c for e, c in g}) for g in op["generators"]]
            ideal = torica.Ideal(ring, gens)
            return [_basis(ideal), torica.hilbert_numerator(ideal)]
        phi = torica.IntMatrix.from_columns(op["columns"])
        names = [f"v{i}" for i in range(len(op["columns"]))]
        pres = torica.toric_ideal(torica.MonomialMap(phi, names), FIELD)
        lifts = [pres.lift_lattice_point(m) for m in op["points"]]
        return [_basis(pres.ideal), torica.hilbert_numerator(pres.ideal), [list(e) for e in lifts]]

    def check(self, torica, op, answer):
        basis, numerator = _as_dicts(answer[0]), answer[1]
        if not check.is_reduced_basis(basis, FIELD):
            return "basis is not reduced and monic"
        n = self.nvars if op["kind"] == "dense" else len(op["columns"])
        upto = self.check_degree if op["kind"] == "dense" else self.toric_check_degree
        leads = [max(g, key=check.grevlex) for g in basis]
        got = check.hf_from_numerator(numerator, n, upto)
        if check.hf_standard_monomials(leads, n, upto) != got:
            return "Hilbert numerator disagrees with the basis' leading terms"
        if op["kind"] == "dense":
            gens = [{tuple(e): c for e, c in g} for g in op["generators"]]
            if not all(check.reduces_to_zero(g, basis, FIELD) for g in gens):
                return "an input generator does not reduce to zero"
            want = check.hf_macaulay(gens, n, FIELD, upto)
        else:
            cols = [tuple(c) for c in op["columns"]]
            for g in basis:  # every element is a binomial x^u - x^v with phi u = phi v
                exps = list(g)
                if len(exps) != 2 or sorted(g.values()) != sorted([1, FIELD - 1]):
                    return "toric basis element is not a pure difference binomial"
                images = [[check.dot(e, [c[r] for c in cols]) for r in range(3)] for e in exps]
                if images[0] != images[1]:
                    return "toric basis element is not homogeneous for phi"
            for m, e in zip(op["points"], answer[2]):
                if [check.dot(e, [c[r] for c in cols]) for r in range(3)] != m or min(e) < 0:
                    return f"lift of {m} is wrong"
            want = check.hf_column_sums(cols, upto)
        if got != want:
            return f"Hilbert function {got} != second route {want}"
        return None


# -- lattice ----------------------------------------------------------------


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _has_positive_grading(gens, dim):
    """Is there a w in [-3, 3]^dim with <w, g> > 0 on every generator (so the cone is pointed)?"""
    return any(all(check.dot(w, g) > 0 for g in gens) for w in product(range(-3, 4), repeat=dim))


class Lattice:
    """Small pointed cones in dimensions 3 and 4: dual Hilbert bases, class groups, O(D).

    The cones are a fixed panel drawn once from PANEL_SEED in fixed strata:
    dimension 3 with 4 and with 5 generators, entries in [-1, 2]; dimension
    4 simplicial with entries in [-1, 1], a fixed count per index |det| in
    1..4. The run's seed moves each cone by a signed permutation of the
    coordinates and draws its divisor, with coefficients in [-1, 1]. That
    changes every input and answer but not the cost: a cone's cost is set
    by its shape (tenfold within one stratum, the divisor barely matters),
    so freshly drawn cones would make a pass a draw of a few slow cones.
    Index 5 costs about ten times index 1 and is left out for the same
    reason.
    """

    name = "lattice"
    budget_s = 20.0
    PANEL_SEED = "lattice-panel-1"
    strata = (  # (dim, generators, entry range, |det| or None, count)
        (3, 4, (-1, 2), None, 40),
        (3, 5, (-1, 2), None, 40),
        (4, 4, (-1, 1), 1, 4),
        (4, 4, (-1, 1), 2, 4),
        (4, 4, (-1, 1), 3, 4),
        (4, 4, (-1, 1), 4, 4),
    )

    def panel(self):
        rng = random.Random(self.PANEL_SEED)
        cones = []
        for dim, ngens, (lo, hi), index, count in self.strata:
            made = 0
            while made < count:
                drawn = [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(ngens)]
                gens = sorted({_primitive(g) for g in drawn if any(g)})
                if len(gens) < ngens:
                    continue
                minors = [abs(check.det_int([list(g) for g in s])) for s in combinations(gens, dim)]
                if not any(minors) or (index is not None and minors[0] != index):
                    continue
                if not _has_positive_grading(gens, dim):
                    continue
                cones.append((dim, gens))
                made += 1
        return cones

    def inputs(self, rng):
        ops = []
        for dim, gens in self.panel():
            perm = rng.sample(range(dim), dim)
            signs = [rng.choice((1, -1)) for _ in range(dim)]
            moved = sorted([s * g[p] for s, p in zip(signs, perm)] for g in gens)
            ops.append({"dim": dim, "generators": moved, "divisor": [rng.randint(-1, 1) for _ in gens]})
        rng.shuffle(ops)
        return ops

    def run(self, torica, op):
        # ToricVariety computes sigma.dual().hilbert_basis() as its semigroup.
        v = torica.ToricVariety(torica.Cone(op["dim"], op["generators"]))
        cg = torica.class_group(v)
        module = torica.module_generators(v, v.divisor(op["divisor"][: len(v.rays)]))
        return [
            [list(r) for r in v.rays],
            [list(h) for h in v.semigroup.hilbert_generators],
            [cg.free_rank, list(cg.torsion)],
            [list(g) for g in module.generators],
        ]

    def check(self, torica, op, answer):
        rays, hilbert, (free_rank, torsion), module = answer
        dim, gens = op["dim"], [tuple(g) for g in op["generators"]]
        if any(tuple(r) not in gens for r in rays) or len(rays) < dim:
            return "rays are not among the primitive generators"
        if free_rank != len(rays) - dim:
            return f"free rank {free_rank} != #rays - dim = {len(rays) - dim}"
        order = 1
        for t in torsion:
            order *= t
        minors = check.gcd_maximal_minors(rays, dim)
        if order != minors:
            return f"torsion order {order} != gcd of maximal minors {minors}"
        in_dual = lambda m: all(check.dot(m, g) >= 0 for g in gens)  # noqa: E731
        if not all(in_dual(h) for h in hilbert):
            return "a Hilbert basis element is outside the dual cone"
        if any(in_dual([a - b for a, b in zip(h, k)]) for h in hilbert for k in hilbert if h != k):
            return "Hilbert basis is not minimal"
        coeffs = op["divisor"][: len(rays)]
        if not module:
            return "module has no generators"
        if not all(check.dot(m, u) >= -a for m in module for u, a in zip(rays, coeffs)):
            return "a module generator lies outside the region of D"
        if any(in_dual([a - b for a, b in zip(m, n)]) for m in module for n in module if m != n):
            return "module generators are not minimal"
        return None


WORKLOADS = {w.name: w for w in (Verify(), ProductLaw(), Groebner(), Lattice())}


def make_inputs(workload, seed):
    return workload.inputs(random.Random(f"{workload.name}:{seed}"))
