"""Torus-invariant divisors and divisor class groups on affine toric varieties.

A variety is a full-dimensional strongly convex cone with its parts: rays,
dual cone and semigroup, class group and (optionally) a ring presentation.
Each part is built on its first read, an atomic variety's from its cone
and a product's only from the same part of its factors. Divisors are
integer coefficient vectors over the lex-ordered rays. Class groups come
from the Smith normal form of the ray-pairing matrix; product varieties
use concatenated per-factor coordinates so that factor classes stay visible.

Divisorial modules O(D) are handled through their lattice regions
{m : <m, u_rho> + a_rho >= 0} = conv(V) + sigma^dual, V the region's
vertices, and the cone {(m, t) : <m, u_rho> + a_rho t >= 0, t >= 0} over
them, whose rays double description finds (`cone._double_description`).
Their minimal generators are the `cone._minimal` points, keyed by the slack
(<m, u_rho> + a_rho), among the integral vertices and the height-1 points in
the parallelepipeds over a triangulation of that cone
(`cone._simplicial_points`), the routine behind Hilbert bases too.

Ring presentations are built when first read, and their ideals when those
are, so class groups, module generators and multiplicities compute no
Groebner basis; only the Cohen-Macaulay certificates, which work in the
presentation ring, do. The MCM scan first refutes what it can without
them: on a 3-dimensional cone a lattice point whose satisfied rays are not
one arc of the facet cycle is a degree where local cohomology below the
top does not vanish (`_local_cohomology_witness`), found in a region of
the same form as a divisor's. Only the classes without such a witness are
certified.
"""

from __future__ import annotations

from itertools import accumulate, product as iproduct

from .cone import (
    Cone,
    Semigroup,
    _dot,
    _double_description,
    _embedded,
    _minimal,
    _placed,
    _product,
    _simplicial_points,
)
from .errors import BudgetExceeded, NonUnique, NoSolution, VarietyMismatch
from .polyring import PolyRing, _add, _sub, module_regular_sequence
from .toric import (
    PHI_COLUMNS,
    _odd_prime,
    _power_presentation,
    _product_sizes,
    steinberg_ring_mod_l,
)
from .zlinalg import IntMatrix, _int_tuple, invert_unimodular, rank, smith_normal_form


class ToricVariety:
    """Normal affine toric variety: a pointed full-dimensional cone and its parts.

    Each part (`cone`, `rays`, `_ray_split`, `dual_cone`, `semigroup`,
    `presentation`, the class group) is built on its first read by its
    builder in `_PARTS` and kept: an atomic variety's from its cone, a
    product's only from the same part of its factors. A callable
    `presentation` is called on its first read.
    """

    __slots__ = (
        "cone",
        "rays",
        "semigroup",
        "presentation",
        "factors",
        "name",
        "dual_cone",
        "_ray_split",
        "_class_group",
        "_build_presentation",
    )

    def __init__(self, cone: Cone | None = None, presentation=None, factors=None, name=None):
        self.factors = tuple(g for f in factors for g in f.factors) if factors else (self,)
        if cone is None and not self.is_product():
            raise ValueError("only a product of two or more factors may omit its cone")
        if cone is not None and not cone.is_strongly_convex():
            raise ValueError("a normal affine toric variety needs a strongly convex cone")
        if cone is not None and cone.dim() != cone.ambient_dim:
            raise ValueError("cone must be full-dimensional")
        dims = [f.cone.ambient_dim for f in self.factors] if factors else [cone.ambient_dim]
        self.name = name or f"X({sum(dims)}d)"
        self._build_presentation = presentation if callable(presentation) else lambda: presentation
        if cone is not None:
            if self.is_product() and cone.rays() != self.rays:
                raise ValueError("the cone's rays are not the embedded factor rays")
            self.cone = cone

    def __getattr__(self, name):
        """Build a part on its first read, by its builder in `_PARTS`, and keep it."""
        builders = _PARTS.get(name)
        if builders is None:
            raise AttributeError(name)
        value = builders[self.is_product()](self)
        setattr(self, name, value)
        return value

    def __repr__(self):
        return f"ToricVariety({self.name}, rays={len(self.rays)})"

    def is_product(self):
        return len(self.factors) > 1

    def divisor(self, coeffs) -> "TorusDivisor":
        return TorusDivisor(self, coeffs)

    def zero_divisor(self) -> "TorusDivisor":
        return TorusDivisor(self, (0,) * len(self.rays))

    def class_group(self) -> "ClassGroup":
        return self._class_group

    def split_divisor(self, d: "TorusDivisor"):
        """Per-factor divisors of a divisor on a product variety."""
        parts = [[0] * len(f.rays) for f in self.factors]
        for stored_idx, (pos, fray) in enumerate(self._ray_split):
            parts[pos][fray] = d.coeffs[stored_idx]
        return [TorusDivisor(f, tuple(c)) for f, c in zip(self.factors, parts)]

    def join_coeffs(self, factor_coeff_lists):
        """Inverse of split_divisor, back to the stored ray order."""
        coeffs = [0] * len(self.rays)
        for stored_idx, (pos, fray) in enumerate(self._ray_split):
            coeffs[stored_idx] = factor_coeff_lists[pos][fray]
        return tuple(coeffs)

    def semigroup_contains(self, v) -> bool:
        return self.dual_cone.contains(v)


def _factor_parts(v: ToricVariety, part):
    """`part` of each factor of the product v, embedded in the factor's block, sorted."""
    return _embedded([f.cone.ambient_dim for f in v.factors], [part(f) for f in v.factors])


def _product_ray_split(v: ToricVariety):
    """(factor position, index among the factor's rays) of each ray of the product v."""
    dims = [f.cone.ambient_dim for f in v.factors]
    where = {
        u: (pos, i)
        for pos, (f, at) in enumerate(zip(v.factors, accumulate(dims, initial=0)))
        for i, u in enumerate(_placed(f.rays, at, sum(dims)))
    }
    return tuple(where[u] for u in v.rays)


# Each part's builders: (for an atomic variety, from its cone; for a product,
# from the same part of its factors). An atomic variety's cone is given.
_PARTS = {
    "cone": (None, lambda v: _product([f.cone for f in v.factors])),
    "rays": (lambda v: v.cone.rays(), lambda v: _factor_parts(v, lambda f: f.rays)),
    "_ray_split": (lambda v: tuple((0, i) for i in range(len(v.rays))), _product_ray_split),
    "dual_cone": (lambda v: v.cone.dual(), lambda v: _product([f.dual_cone for f in v.factors])),
    "semigroup": (
        lambda v: v.dual_cone.hilbert_basis(),
        lambda v: Semigroup(
            sum(f.cone.ambient_dim for f in v.factors),
            _factor_parts(v, lambda f: f.semigroup.hilbert_generators),
        ),
    ),
    "presentation": (lambda v: v._build_presentation(),) * 2,
    "_class_group": (lambda v: ClassGroup(v),) * 2,
}


def product(v1: ToricVariety, v2: ToricVariety, presentation=None, name=None) -> ToricVariety:
    """The product of two varieties over their factors, whose parts are built from theirs."""
    name = name or f"{v1.name} x {v2.name}"
    return ToricVariety(presentation=presentation, factors=(v1, v2), name=name)


def steinberg_variety(field=101) -> ToricVariety:
    """The base surface cone with its six-variable presentation, built when first read.

    The field is refused now if building the presentation would refuse it.
    """
    PolyRing(_odd_prime(field), ())
    cone = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, -1)])
    return ToricVariety(cone, presentation=lambda: steinberg_ring_mod_l(field), name="S")


def a1_variety() -> ToricVariety:
    """The quadric cone surface (one A1 singular point)."""
    return ToricVariety(Cone(2, [(1, 0), (1, 2)]), name="A1")


def affine_line_variety() -> ToricVariety:
    return ToricVariety(Cone(1, [(1,)]), name="A^1")


def affine_space_variety(n) -> ToricVariety:
    (n,) = _int_tuple((n,))
    if n < 1:
        raise ValueError("need dimension >= 1")
    gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return ToricVariety(Cone(n, gens), name=f"A^{n}")


def steinberg_product_variety(k, s, field=101) -> ToricVariety:
    """S^k x A^s with the matching product ring presentation.

    The k surface factors are one shared `ToricVariety` object, and so are
    the s line factors. Each part of the product, its ring presentation
    included, is built from the same part of theirs when first read, so
    nothing is enumerated again, and a caller such as `multiplicity`, which
    reads only the factors, builds no part of the product.
    """
    k, s = _product_sizes(k, s)
    surface = steinberg_variety(field) if k else None
    line = affine_line_variety() if s else None
    factors = [surface] * k + [line] * s
    if len(factors) == 1:
        return factors[0]
    PolyRing(field, ())  # the field the presentation, built when first read, is over
    return ToricVariety(
        presentation=lambda: _power_presentation(surface.presentation if k else None, k, s, field),
        factors=factors,
        name=f"S^{k} x A^{s}",
    )


class TorusDivisor:
    """Integer combination of the ray divisors, in stored (lex) ray order."""

    __slots__ = ("variety", "coeffs")

    def __init__(self, variety: ToricVariety, coeffs):
        coeffs = _int_tuple(coeffs, len(variety.rays))
        self.variety = variety
        self.coeffs = coeffs

    def _check(self, other):
        if self.variety is not other.variety:
            raise VarietyMismatch("divisors on different varieties")

    def __add__(self, other):
        self._check(other)
        return TorusDivisor(self.variety, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return TorusDivisor(self.variety, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TorusDivisor(self.variety, tuple(-a for a in self.coeffs))

    def __mul__(self, n):
        (n,) = _int_tuple((n,))
        return TorusDivisor(self.variety, tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, TorusDivisor)
            and self.variety is other.variety
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.variety), self.coeffs))

    def __repr__(self):
        return f"TorusDivisor({list(self.coeffs)})"

    def divisor_class(self) -> "DivisorClass":
        return self.variety.class_group().project(self)

    def to_json(self):
        return {"coeffs": list(self.coeffs)}


class DivisorClass:
    """Element of Cl in normalized coordinates: free vector + torsion residues."""

    __slots__ = ("variety", "free", "torsion")

    def __init__(self, variety: ToricVariety, free, torsion=()):
        cg = variety.class_group()
        torsion = _int_tuple(torsion, len(cg.torsion))
        self.variety = variety
        self.free = _int_tuple(free, cg.free_rank)
        self.torsion = tuple(r % m for r, m in zip(torsion, cg.torsion))

    def _check(self, other):
        if self.variety is not other.variety:
            raise VarietyMismatch("classes on different varieties")

    def __add__(self, other):
        self._check(other)
        return DivisorClass(
            self.variety,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self):
        return DivisorClass(
            self.variety,
            tuple(-a for a in self.free),
            tuple(-a for a in self.torsion),
        )

    def __sub__(self, other):
        return self + (-other)

    def dual(self) -> "DivisorClass":
        return canonical_class(self.variety) - self

    def is_zero(self):
        return not any(self.free) and not any(self.torsion)

    def __eq__(self, other):
        return (
            isinstance(other, DivisorClass)
            and self.variety is other.variety
            and self.free == other.free
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((id(self.variety), self.free, self.torsion))

    def __repr__(self):
        if self.torsion:
            return f"DivisorClass(free={list(self.free)}, torsion={list(self.torsion)})"
        return f"DivisorClass({list(self.free)})"

    def to_json(self):
        return {"free": list(self.free), "torsion": list(self.torsion)}


class _AtomicClassData:
    """SNF cokernel data of the ray-pairing matrix of one atomic variety."""

    __slots__ = ("nrays", "u", "u_inv", "free_positions", "torsion_positions", "moduli")

    def __init__(self, variety: ToricVariety):
        rays = variety.rays
        self.nrays = len(rays)
        pairing = IntMatrix(rays)  # row rho = u_rho, so pairing @ m = div(chi^m)
        snf = smith_normal_form(pairing)
        factors = [f for f in snf.invariant_factors if f != 0]
        r = len(factors)
        u_rows = [list(row) for row in snf.u.entries]
        self.free_positions = tuple(range(r, self.nrays))
        self.torsion_positions = tuple(i for i in range(r) if factors[i] > 1)
        self.moduli = tuple(factors[i] for i in self.torsion_positions)

        # orient free generators so the canonical class is non-negative
        canonical = [-1] * self.nrays
        for pos in self.free_positions:
            val = _dot(u_rows[pos], canonical)
            flip = val < 0
            if val == 0:
                lead = next((x for x in u_rows[pos] if x != 0), 1)
                flip = lead < 0
            if flip:
                u_rows[pos] = [-x for x in u_rows[pos]]
        self.u = IntMatrix(u_rows)
        self.u_inv = None  # only `representative` reads it, so it is inverted on first use

    def coords(self, coeffs):
        b = self.u @ tuple(coeffs)
        free = tuple(b[pos] for pos in self.free_positions)
        torsion = tuple(b[pos] % m for pos, m in zip(self.torsion_positions, self.moduli))
        return free, torsion

    def representative(self, free, torsion):
        b = [0] * self.nrays
        for pos, val in zip(self.free_positions, free):
            b[pos] = val
        for pos, val in zip(self.torsion_positions, torsion):
            b[pos] = val
        if self.u_inv is None:
            self.u_inv = invert_unimodular(self.u)
        return self.u_inv @ tuple(b)


class ClassGroup:
    """Cl(X) with projection and section, concatenated over product factors."""

    __slots__ = ("variety", "blocks", "free_rank", "torsion")

    def __init__(self, variety: ToricVariety):
        self.variety = variety
        if variety.is_product():
            self.blocks = tuple(b for f in variety.factors for b in f.class_group().blocks)
        else:
            self.blocks = (_AtomicClassData(variety),)
        self.free_rank = sum(len(b.free_positions) for b in self.blocks)
        self.torsion = tuple(m for b in self.blocks for m in b.moduli)

    def __repr__(self):
        return f"ClassGroup(free_rank={self.free_rank}, torsion={list(self.torsion)})"

    def project(self, d: TorusDivisor) -> DivisorClass:
        if d.variety is not self.variety:
            raise VarietyMismatch("divisor lives on a different variety")
        free = []
        torsion = []
        for block, part in zip(self.blocks, self.variety.split_divisor(d)):
            f, t = block.coords(part.coeffs)
            free.extend(f)
            torsion.extend(t)
        return DivisorClass(self.variety, tuple(free), tuple(torsion))

    def representative(self, cls: DivisorClass) -> TorusDivisor:
        if cls.variety is not self.variety:
            raise VarietyMismatch("class lives on a different variety")
        factor_coeffs = []
        fi = ti = 0
        for block in self.blocks:
            nf = len(block.free_positions)
            nt = len(block.moduli)
            factor_coeffs.append(
                list(block.representative(cls.free[fi : fi + nf], cls.torsion[ti : ti + nt]))
            )
            fi += nf
            ti += nt
        return TorusDivisor(self.variety, self.variety.join_coeffs(factor_coeffs))

    def presentation(self):
        return self.free_rank, self.torsion


def class_group(v: ToricVariety) -> ClassGroup:
    return v.class_group()


def div_of_character(v: ToricVariety, m) -> TorusDivisor:
    m = _int_tuple(m, v.cone.ambient_dim)
    return TorusDivisor(v, tuple(_dot(m, u) for u in v.rays))


def divisor_from_ray_coeffs(v: ToricVariety, ray_coeffs) -> TorusDivisor:
    """A divisor from {ray: coeff} or (ray, coeff) pairs; unmentioned rays get 0."""
    coeffs = [0] * len(v.rays)
    for ray, c in ray_coeffs.items() if hasattr(ray_coeffs, "items") else ray_coeffs:
        coeffs[v.rays.index(_int_tuple(ray))] = c
    return TorusDivisor(v, coeffs)


def canonical_divisor(v: ToricVariety) -> TorusDivisor:
    return TorusDivisor(v, (-1,) * len(v.rays))


def canonical_class(v: ToricVariety) -> DivisorClass:
    return canonical_divisor(v).divisor_class()


def class_arithmetic(a: DivisorClass, b, op: str) -> DivisorClass:
    if op == "add":
        return a + b
    if op == "negate_then_add_canonical":
        return canonical_class(a.variety) - a
    raise ValueError(f"unknown class operation {op!r}")


def half_canonical(v: ToricVariety) -> DivisorClass:
    """The class c with 2c = canonical, when it exists uniquely."""
    cg = v.class_group()
    c = canonical_class(v)
    free = []
    for x in c.free:
        if x % 2:
            raise NoSolution(f"free canonical coordinate {x} is odd, no half class")
        free.append(x // 2)
    count = 1
    torsion = []
    for residue, mod in zip(c.torsion, cg.torsion):
        if mod % 2 == 0:
            if residue % 2:
                raise NoSolution(f"canonical residue {residue} mod {mod} is odd")
            torsion.append(residue // 2)
            count *= 2
        else:
            torsion.append((residue * pow(2, -1, mod)) % mod)
    if count > 1:
        raise NonUnique(f"{count} classes square to the canonical class", count)
    return DivisorClass(v, tuple(free), tuple(torsion))


class DivisorialModule:
    """O(D) as a lattice region plus its minimal monomial generators."""

    __slots__ = ("divisor", "generators")

    def __init__(self, divisor: TorusDivisor, generators):
        self.divisor = divisor
        self.generators = tuple(_int_tuple(g) for g in generators)

    def contains(self, m) -> bool:
        v = self.divisor.variety
        m = _int_tuple(m, v.cone.ambient_dim)
        return all(_dot(m, u) + a >= 0 for u, a in zip(v.rays, self.divisor.coeffs))

    def __repr__(self):
        return f"DivisorialModule(generators={list(self.generators)})"

    def to_json(self):
        return {
            "coeffs": list(self.divisor.coeffs),
            "generators": [list(g) for g in self.generators],
        }


def _region_cone(rays, coeffs):
    """(rows, rays) of the cone {(m, t) : <m, u> + a t >= 0, t >= 0} over the region.

    Its rays are (r, 0) for each ray r of the dual cone, then (q·v, q) for
    each vertex v of the region by q > 0. Pulling the dual rays first gave
    far smaller parallelepipeds on seeded regions (3.9 million points
    against 32 million at the worst), and `_parallelepiped` solves for the
    vertex coefficients, last in each simplex, first, so its height cut
    acts early.
    """
    rows = [u + (a,) for u, a in zip(rays, coeffs)] + [(0,) * len(rays[0]) + (1,)]
    return rows, sorted(_double_description(rows, len(rows[0]))[1], key=lambda r: r[-1])


def _atomic_module_generators(v: ToricVariety, d: TorusDivisor):
    """The minimal points of the region, from the height-1 points of its cone.

    A height-1 point of the region's cone is p + sum(n_i g_i) over a simplex
    of its pulling triangulation, p in the parallelepiped. Either p has
    height 1, or one g_i is (v, 1) for an integral vertex v and the rest lies
    in the semigroup. So the integral vertices and the height-1
    parallelepiped points, keyed by their slack <m, u> + a, go through
    `_minimal`. The triangulation and the sieve each count their work
    against the lattice budget and raise BudgetExceeded past it.
    """
    rows, hom = _region_cone(v.rays, d.coeffs)
    heights = [r[-1] for r in hom]
    points = [r for r in hom if r[-1] == 1] + _simplicial_points(hom, rows, len(rows[0]), heights)
    return sorted(_minimal((tuple(_dot(u, p) for u in rows[:-1]), p[:-1]) for p in points))


def module_generators(v: ToricVariety, d: TorusDivisor) -> DivisorialModule:
    """Minimal monomial generators of O(D) over the semigroup ring."""
    if d.variety is not v:
        raise VarietyMismatch("divisor lives on a different variety")
    if v.is_product():
        parts = v.split_divisor(d)
        factor_gens = [module_generators(f, df).generators for f, df in zip(v.factors, parts)]
        # the factor blocks are contiguous and in factor order, so a generator concatenates
        return DivisorialModule(d, sorted(sum(combo, ()) for combo in iproduct(*factor_gens)))
    return DivisorialModule(d, _atomic_module_generators(v, d))


def multiplicity(v: ToricVariety) -> int:
    """Minimal generator count of the half-canonical module, over the factors.

    A factor shared by several positions is counted once and raised to its
    multiplicity.
    """
    total = 1
    for f in dict.fromkeys(v.factors):
        rep = f.class_group().representative(half_canonical(f))
        total *= len(module_generators(f, rep).generators) ** v.factors.count(f)
    return total


def steinberg_multiplicity(k, s, field=101) -> int:
    """Multiplicity of the (k, s) product; the empty product is the field."""
    k, s = _int_tuple((k, s))
    if k < 0 or s < 0:
        raise ValueError("need k >= 0 and s >= 0")
    if k + s == 0:
        return 1
    return multiplicity(steinberg_product_variety(k, s, field))


def trace_surjectivity_witness(v: ToricVariety, d: TorusDivisor, other=None, target=None):
    """Monomial witness that O(d) * O(other) equals a character times O(target).

    Returns (True, m) when the product of the two generator sets generates
    exactly chi^m * O(target); otherwise (False, None). `other` defaults to
    d and `target` to the canonical divisor.
    """
    if other is None:
        other = d
    if target is None:
        target = canonical_divisor(v)
    gens_a = module_generators(v, d).generators
    gens_b = gens_a if other == d else module_generators(v, other).generators
    sums = {_add(a, b) for a in gens_a for b in gens_b}
    product_gens = sorted(_minimal((tuple(_dot(p, u) for u in v.rays), p) for p in sums))
    target_gens = list(module_generators(v, target).generators)
    if len(product_gens) != len(target_gens):
        return False, None
    shift = _sub(product_gens[0], target_gens[0])
    if all(_add(t, shift) == p for t, p in zip(target_gens, product_gens)):
        return True, shift
    return False, None


def _steinberg_parameter_sequence(presentation):
    """Images of (x, yz^2, y - xz^2) in the presentation ring."""
    x = presentation.monomial_for((1, 0, 0))
    yz2 = presentation.monomial_for((0, 1, 2))
    y = presentation.monomial_for((0, 1, 0))
    xz2 = presentation.monomial_for((1, 0, 2))
    return [x, yz2, y - xz2]


def module_is_maximal_cohen_macaulay(v: ToricVariety, gens, sequence=None) -> bool:
    """Certify depth = dim for the module generated by lattice points `gens`.

    The generators are translated into the semigroup, lifted to monomials
    of the presentation ring, and the parameter sequence is certified to be
    regular on the module by exact Hilbert-series bookkeeping.
    """
    pres = v.presentation
    if pres is None:
        raise ValueError("variety has no ring presentation")
    if sequence is None:
        if list(pres.map.phi.columns()) != list(PHI_COLUMNS):
            raise ValueError("no default parameter sequence for this presentation")
        sequence = _steinberg_parameter_sequence(pres)
    interior = tuple(
        sum(h[i] for h in v.semigroup.hilbert_generators)
        for i in range(v.cone.ambient_dim)
    )
    shift = 0
    for u in v.rays:
        pu = _dot(interior, u)
        for g in gens:
            need = -_dot(g, u)
            if need > 0:
                shift = max(shift, -(-need // pu))
    translated = [_add(g, tuple(shift * x for x in interior)) for g in gens]
    module_gens = [pres.monomial_for(m) for m in translated]
    return module_regular_sequence(pres.ideal, module_gens, sequence)


def _is_arc(subset, facets):
    """Whether the rays in the bit mask `subset` form one arc of the facet cycle.

    `facets` holds each facet's pair of rays as a bit mask. The facets
    inside a proper subset form a union of paths, one path exactly when
    there is one facet fewer than rays; then Γ is acyclic.
    """
    return sum(f & subset == f for f in facets) == subset.bit_count() - 1


def _local_cohomology_witness(v: ToricVariety, d: TorusDivisor):
    """A degree m where H^2 of O(D) is nonzero, which refutes that O(D) is MCM, or None.

    By the Ishida complex (Bruns & Herzog, Cohen-Macaulay Rings, 6.2;
    Stanley, Invent. Math. 68, 1982), local cohomology H^i of O(D) in
    degree m is the reduced homology H_(d-1-i) of Γ_m, the faces of the
    cone whose rays all satisfy <m, u> + a >= 0. On a 3-dimensional cone
    the rays and facets form a cycle, so for a nonempty proper set S of
    satisfied rays Γ_m is acyclic exactly when S is an arc, and otherwise
    H_0 != 0. For each other S the region {<m, u_i> + a_i >= 0 for i in S,
    <= -1 otherwise} is searched for a lattice point, among its integral
    vertices and the height-1 points of its cone's parallelepipeds, as for
    module generators. The answer is None when O(D) is MCM, and also off
    dimension 3 or when a search would exceed the lattice budget.
    """
    if v.cone.ambient_dim != 3:
        return None
    rays = v.rays
    facets = [
        sum(1 << i for i, u in enumerate(rays) if _dot(n, u) == 0) for n in v.dual_cone.rays()
    ]
    for subset in range(1, (1 << len(rays)) - 1):
        if _is_arc(subset, facets):
            continue
        inside = [subset >> i & 1 for i in range(len(rays))]
        signed = [u if keep else tuple(-x for x in u) for u, keep in zip(rays, inside)]
        coeffs = [a if keep else -a - 1 for a, keep in zip(d.coeffs, inside)]
        rows, hom = _region_cone(signed, coeffs)
        heights = [r[-1] for r in hom]
        if not any(heights):
            continue
        vertex = next((r for r in hom if r[-1] == 1), None)
        if vertex is not None:
            return vertex[:-1]
        try:
            points = _simplicial_points(hom, rows, rank(IntMatrix(hom)), heights)
        except BudgetExceeded:
            return None
        if points:
            return points[0][:-1]
    return None


def enumerate_mcm_rank_one_candidates(
    v: ToricVariety, gen_bound=4, scan_window=10, band=5, sequence=None
):
    """Scan classes k in [-w-band, w+band] for small Cohen-Macaulay modules.

    Returns (class, generator count) for every class whose module has at
    most gen_bound minimal generators AND whose parameter sequence is
    certified regular on it. A class with a local-cohomology witness degree
    (`_local_cohomology_witness`) is refuted by it, and only the classes
    without one go to the regular-sequence certificate, so every class
    returned is still certified. The extra band beyond the window guards
    the claim that nothing new appears just outside the scanned range.
    """
    cg = v.class_group()
    if cg.free_rank != 1 or cg.torsion:
        raise ValueError("scan expects an infinite cyclic class group")
    results = []
    for k in range(-scan_window - band, scan_window + band + 1):
        cls = DivisorClass(v, (k,))
        rep = cg.representative(cls)
        gens = module_generators(v, rep).generators
        if len(gens) > gen_bound or _local_cohomology_witness(v, rep) is not None:
            continue
        if module_is_maximal_cohen_macaulay(v, gens, sequence=sequence):
            results.append((cls, len(gens)))
    return results
