"""Torus-invariant divisors and divisor class groups on affine toric varieties.

A variety is a full-dimensional strongly convex cone with its parts: rays,
dual cone and semigroup, class group and (optionally) a ring presentation.
Each part is a cached property, built on its first read, an atomic
variety's from its cone and a product's only from the same part of its
factors, and each is derived in one place: the rays and the ray split are
read off one sorted ray order. Divisors are integer coefficient vectors
over the lex-ordered rays. Class groups come from the Smith normal form of
the ray-pairing matrix; product varieties use concatenated per-factor
coordinates so that factor classes stay visible.

Divisorial modules O(D) are handled through their lattice regions
{m : <m, u_rho> + a_rho >= 0} = conv(V) + sigma^dual, V the region's
vertices. Their minimal generators are `cone._region_generators`: the
integral vertices and height-1 parallelepiped points of the cone over the
region, drawn from `cone._lattice_points`, the one lattice route, which
Hilbert bases use too, keyed by their packed slacks over the region's rows
and sieved by `cone._minimal` before any point is rebuilt. A change of
lattice algorithm (ROADMAP item 2) lands there, not here.

Ring presentations are built when first read, and their ideals when those
are, so class groups, module generators, multiplicities and the MCM scan
compute no Groebner basis; only the Cohen-Macaulay certificate
(`module_is_maximal_cohen_macaulay`), which works in the presentation ring,
does, and it is the second route the scan is tested against. The MCM scan
decides each class by a local-cohomology witness alone: on a 3-dimensional
cone a lattice point whose satisfied rays are not one arc of the facet
cycle is a degree where local cohomology below the top does not vanish
(`_local_cohomology_witness`), found in a region of the same form as a
divisor's, and a class without one is MCM. The classes it scans are proved
from the cone (`ToricVariety._scan_bounds`): past them every class has a
witness, so no window is chosen. The witness search and that proof read
one table of the non-arc ray subsets and their signed rays
(`ToricVariety._non_arcs`) and one class generator r, class k being k·r,
so the two cannot drift apart. Only the classes without a witness have
their generators enumerated. The scan charges its class count to
`divisor.scan` before the first class.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, islice, product as iproduct

from .cone import (
    Cone, Semigroup, _dot, _embedded, _grading, _minimal_points, _placed, _product, _region_cone,
    _region_generators, _region_points, _tight,
)
from .errors import SCAN, NonUnique, NoSolution, VarietyMismatch
from .polyring import PolyRing, module_regular_sequence
from .toric import (
    PHI_COLUMNS,
    _odd_prime,
    _power_presentation,
    _product_sizes,
    steinberg_ring_mod_l,
)
from .zlinalg import IntMatrix, _add, _int_tuple, _sub, invert_unimodular, smith_normal_form

class ToricVariety:
    """Normal affine toric variety: a pointed full-dimensional cone and its parts.

    Each part (`cone`, `rays`, `_ray_split`, `dual_cone`, `semigroup`,
    `presentation`, the class group) is a cached property, built on its
    first read and kept: an atomic variety's from its cone, a product's
    only from the same part of its factors. A callable `presentation` is
    called on its first read. Each datum has one source: `_ray_order` for
    the rays and the ray split, and, for the MCM scan, `_non_arcs` for the
    witness regions and `_class_generator` for the class representatives.
    """

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
        self._presentation = presentation
        if cone is not None:
            if self.is_product() and cone.rays() != self.rays:
                raise ValueError("the cone's rays are not the embedded factor rays")
            self.cone = cone

    @cached_property
    def cone(self):
        """A product's cone, composed from its factors'; an atomic variety's is given."""
        return _product([f.cone for f in self.factors])

    @cached_property
    def _ray_order(self):
        """(ray, factor position, index among the factor's rays) of each ray, in lex ray order.

        A product's rays are its factors' rays placed into their blocks, and
        this one sort gives both `rays` and `_ray_split`.
        """
        dims = [f.cone.ambient_dim for f in self.factors]
        return sorted(
            (u, pos, i)
            for pos, (f, at) in enumerate(zip(self.factors, accumulate(dims, initial=0)))
            for i, u in enumerate(_placed(f.cone.rays(), at, sum(dims)))
        )

    @cached_property
    def rays(self):
        return tuple(u for u, _, _ in self._ray_order)

    @cached_property
    def _ray_split(self):
        """(factor position, index among the factor's rays) of each ray."""
        return tuple((pos, i) for _, pos, i in self._ray_order)

    @cached_property
    def dual_cone(self):
        """The dual cone; a product's cone holds its composed dual, so nothing is enumerated."""
        return self.cone.dual()

    @cached_property
    def _non_arcs(self):
        """(signs, signed rays) of each ray subset that is not one arc of the facet cycle.

        The signs are 1 in the subset and -1 out, and the signed rays are
        s_i u_i, the rows of the subset's witness region. Only a 3-dimensional
        cone has a facet cycle, so another dimension is a ValueError, raised
        here for the witness search and the scan bounds alike.
        """
        dim = self.cone.ambient_dim
        if dim != 3:
            raise ValueError(f"the MCM scan needs a 3-dimensional cone, got dimension {dim}")
        rays = self.rays
        facets = _tight(self.dual_cone.rays(), rays)
        subsets = [s for s in range(1, (1 << len(rays)) - 1) if not _is_arc(s, facets)]
        signs = [tuple(1 if s >> i & 1 else -1 for i in range(len(rays))) for s in subsets]
        return [(t, [tuple(s * x for x in u) for u, s in zip(rays, t)]) for t in signs]

    @cached_property
    def _class_generator(self):
        """The representative r of class 1 when Cl = Z; the scan represents class k by k·r."""
        return self.class_group().representative(DivisorClass(self, (1,)))

    @cached_property
    def _scan_bounds(self):
        """(lo, hi): every class k <= lo and every k >= hi has a local-cohomology witness.

        Proved once per variety: the scan and the range it reports both read it.
        The representative of class k is k·r (`_class_generator`), so the
        witness region of a non-arc subset S with signs s is
        P_S(k) = {m : A_S m >= b_S + k c_S}, with the signed rays s_i u_i of
        `_non_arcs` as rows, b_i = (1 - s_i) / 2 and c_i = -s_i r_i. P_S(k)
        holds the unit cube m0 + [0, 1]^3, and so the lattice point ⌈m0⌉,
        exactly when A_S m0 + neg(A_S) >= b_S + k c_S, where neg sums each
        row's negative entries. The cone `_region_cone` builds over that
        system in (m0, k) gives the k for which such an m0 exists: a ray with
        t = 0 and k != 0 says they run without end in the sign of k, and the
        rays with t > 0 end them at the least or greatest k/t.

        No branch is needed for a missing bound. A full 3-dimensional cone with
        Cl = Z has exactly 4 rays, since the free rank is rays - dim, so the
        non-arc subsets are the two diagonals {0, 2} and {1, 3} of the facet
        cycle. The one relation l0 u0 + l2 u2 = l1 u1 + l3 u3, l > 0, pairs with
        r to a nonzero class s: weighting the rows of P_S by l shows that one
        diagonal's region has points only for k s > 0 and the other's only for
        k s < 0, and by Gordan's theorem each region has interior points for
        k of its sign, so it holds a unit cube for large |k|. Both bounds exist.
        Another dimension is refused by `_non_arcs`, read first.
        """
        table = self._non_arcs
        r = self._class_generator.coeffs
        below, above = [], []
        for signs, signed in table:
            normals = [u + (s * a,) for u, a, s in zip(signed, r, signs)]
            coeffs = [sum(min(x, 0) for x in u) + (s - 1) // 2 for u, s in zip(signed, signs)]
            ends = [ray[3:] for ray in _region_cone(normals, coeffs)[1]]
            if any(k > 0 and not t for k, t in ends):
                above.append(min(-(-k // t) for k, t in ends if t))
            if any(k < 0 and not t for k, t in ends):
                below.append(max(k // t for k, t in ends if t))
        return max(below), min(above)

    @cached_property
    def semigroup(self):
        if not self.is_product():
            return self.dual_cone.hilbert_basis()
        dims = [f.cone.ambient_dim for f in self.factors]
        return Semigroup(
            sum(dims), _embedded(dims, [f.semigroup.hilbert_generators for f in self.factors])
        )

    @cached_property
    def presentation(self):
        p = self._presentation
        return p() if callable(p) else p

    @cached_property
    def _class_group(self):
        return ClassGroup(self)

    @cached_property
    def _class_data(self):
        """The Smith-form class data of an atomic variety: a block of each class group it is in."""
        return _AtomicClassData(self)

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
        for (pos, fray), c in zip(self._ray_split, d.coeffs):
            parts[pos][fray] = c
        return [TorusDivisor(f, tuple(c)) for f, c in zip(self.factors, parts)]

    def join_coeffs(self, factor_coeff_lists):
        """Inverse of split_divisor, back to the stored ray order."""
        return tuple(factor_coeff_lists[pos][fray] for pos, fray in self._ray_split)

    def semigroup_contains(self, v) -> bool:
        return self.dual_cone.contains(v)


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
    PolyRing(field, ())  # the field the presentation, built when first read, is over
    if len(factors) == 1:
        return factors[0]
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

    @cached_property
    def u_inv(self):
        """The inverse of `u`; only `representative` reads it, so it is inverted on first use."""
        return invert_unimodular(self.u)

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
        return self.u_inv @ tuple(b)


class ClassGroup:
    """Cl(X) with projection and section, concatenated over product factors."""

    __slots__ = ("variety", "blocks", "free_rank", "torsion")

    def __init__(self, variety: ToricVariety):
        self.variety = variety
        self.blocks = tuple(f._class_data for f in variety.factors)
        self.free_rank = sum(len(b.free_positions) for b in self.blocks)
        self.torsion = tuple(m for b in self.blocks for m in b.moduli)

    def __repr__(self):
        return f"ClassGroup(free_rank={self.free_rank}, torsion={list(self.torsion)})"

    def project(self, d: TorusDivisor) -> DivisorClass:
        if d.variety is not self.variety:
            raise VarietyMismatch("divisor lives on a different variety")
        parts = self.variety.split_divisor(d)
        free, torsion = zip(*(b.coords(p.coeffs) for b, p in zip(self.blocks, parts)))
        return DivisorClass(self.variety, tuple(chain(*free)), tuple(chain(*torsion)))

    def representative(self, cls: DivisorClass) -> TorusDivisor:
        if cls.variety is not self.variety:
            raise VarietyMismatch("class lives on a different variety")
        free, torsion = iter(cls.free), iter(cls.torsion)
        factor_coeffs = [
            b.representative(islice(free, len(b.free_positions)), islice(torsion, len(b.moduli)))
            for b in self.blocks
        ]
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


def module_generators(v: ToricVariety, d: TorusDivisor) -> DivisorialModule:
    """Minimal monomial generators of O(D) over the semigroup ring."""
    if d.variety is not v:
        raise VarietyMismatch("divisor lives on a different variety")
    if v.is_product():
        parts = v.split_divisor(d)
        factor_gens = [module_generators(f, df).generators for f, df in zip(v.factors, parts)]
        # the factor blocks are contiguous and in factor order, so a generator concatenates
        return DivisorialModule(d, sorted(sum(combo, ()) for combo in iproduct(*factor_gens)))
    return DivisorialModule(d, _region_generators(v.rays, d.coeffs))


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
    product_gens = _minimal_points({_add(a, b) for a in gens_a for b in gens_b}, v.rays)
    target_gens = list(module_generators(v, target).generators)
    if len(product_gens) != len(target_gens):
        return False, None
    shift = _sub(product_gens[0], target_gens[0])
    if all(_add(t, shift) == p for t, p in zip(target_gens, product_gens)):
        return True, shift
    return False, None


def module_is_maximal_cohen_macaulay(v: ToricVariety, gens) -> bool:
    """Certify depth = dim for the module generated by lattice points `gens`.

    The generators are translated into the semigroup along the sum of the
    cone's dual generators (`cone._grading`), a point inside the dual cone,
    lifted to monomials of the presentation ring, and the parameter
    sequence (x, yz^2, y - xz^2) is certified to be regular on the module by
    exact Hilbert-series bookkeeping. Only the surface's presentation, whose
    map has the columns `PHI_COLUMNS`, has that sequence.
    """
    pres = v.presentation
    if pres is None:
        raise ValueError("variety has no ring presentation")
    if list(pres.map.phi.columns()) != list(PHI_COLUMNS):
        raise ValueError("no default parameter sequence for this presentation")
    interior = _grading(v.cone)
    shift = 0
    for u in v.rays:
        pu = _dot(interior, u)
        for g in gens:
            need = -_dot(g, u)
            if need > 0:
                shift = max(shift, -(-need // pu))
    translated = [_add(g, tuple(shift * x for x in interior)) for g in gens]
    module_gens = [pres.monomial_for(m) for m in translated]
    x, y = pres.monomial_for((1, 0, 0)), pres.monomial_for((0, 1, 0))
    sequence = [x, pres.monomial_for((0, 1, 2)), y - pres.monomial_for((1, 0, 2))]
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
    H_0 != 0. For each other S, whose signed rays `v._non_arcs` lists once
    per variety, the region {<m, u_i> + a_i >= 0 for i in S, <= -1
    otherwise} is searched for its first lattice point, drawn from
    `_region_points` by the route module generators take, and only that
    point is rebuilt from its coefficients. The answer is None exactly
    when O(D) is MCM. Another dimension is refused with `_non_arcs`'
    ValueError, and a search past `cone.triangulation` or `cone.sieve`
    raises BudgetExceeded.
    """
    for signs, signed in v._non_arcs:
        coeffs = [s * a + (s - 1) // 2 for a, s in zip(d.coeffs, signs)]
        m = next(_region_points(signed, coeffs), None)
        if m is not None:
            return m
    return None


def enumerate_mcm_rank_one_candidates(v: ToricVariety):
    """Every MCM class of a 3-dimensional variety with Cl = Z, with its generator count.

    Returns (class, minimal generator count) for every class strictly
    between the bounds `v._scan_bounds` proves from the cone that has no
    local-cohomology witness (`_local_cohomology_witness`). Class k is
    represented by k·r, r the `_class_generator` the bounds are proved
    with. In dimension 3 the witness decides MCM exactly, and every class
    outside the bounds has one, so these are all the MCM classes; only
    their generators are enumerated. Another class group or dimension is a
    ValueError, and a scan of more classes than `divisor.scan` allows raises
    BudgetExceeded before the first.
    """
    cg = v.class_group()
    if cg.free_rank != 1 or cg.torsion:
        raise ValueError("scan expects an infinite cyclic class group")
    lo, hi = v._scan_bounds
    SCAN.charge(hi - lo - 1)
    r = v._class_generator
    results = []
    for k in range(lo + 1, hi):
        rep = k * r
        if _local_cohomology_witness(v, rep) is None:
            results.append((DivisorClass(v, (k,)), len(module_generators(v, rep).generators)))
    return results
