"""Rational polyhedral cones with exact arithmetic.

A cone is stored by primitive integer generators. The double description
method (`_double_description`) is the one polyhedral enumeration: it gives
the facets of atomic cones and the vertices of divisor regions, and rays
follow from facet incidences. Product cones never enumerate: they compose
their dual and rays from the factors'. The dual of a pointed cone takes its
own dual generators from that cone's rays. A cone's dimension and
pointedness are computed once and cached: the double description gives
the dimension as d minus the dual's lineality, a product adds its
factors', and the dual of a full-dimensional cone is pointed with its
generators as rays. Only a cone none of these reached ranks its
generators.

Lattice points are held in slack coordinates: over a region
{p : <n, p> + a >= 0}, p has the slack vector (<n, p> + a). p lies in the
region when its slack is >= 0, its grade is the slack sum, and p - q lies in
the cone exactly when slack(q) <= slack(p), as in monomial divisibility.
`_minimal` is the one sieve on such keys. Its candidates come from a pulling
triangulation (`_pulling`) of a pointed cone and each simplex's half-open
parallelepiped (`_parallelepiped`), as in the primal
algorithm of Normaliz (Bruns & Ichim, J. Algebra 2010): Hilbert bases use
the cone itself, divisorial modules the cone over their region. The work is
counted as it is done, against the one budget `_LATTICE_BUDGET`: the
enumeration charges 1 per simplex and each parallelepiped level's partial
nodes, the sieve 1 per dominance test, each in its own count. `charge`
raises `BudgetExceeded`, naming the counter, on a count that would pass it.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd, prod
from operator import le, mul

from .errors import NotPointed, NotStronglyConvex, charge
from .zlinalg import IntMatrix, _echelon, _int_tuple, kernel_basis, lattice_member, rank

_LATTICE_BUDGET = 10**6
_TRIANGULATION = (
    "triangulation counted {count} simplices and parallelepiped nodes, over its budget of {budget}"
)
_SIEVE = "minimal sieve ran {count} dominance tests, over its budget of {budget}"


def _primitive(vec):
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g else None


def _dot(a, b):
    return sum(map(mul, a, b))


def _grading(cone):
    """The sum of the cone's dual generators, positive on a pointed cone minus 0."""
    duals = cone.dual_generators()
    return tuple(sum(n[i] for n in duals) for i in range(cone.ambient_dim))


def _pulling(face, facet_masks, dim):
    """Yield the simplices, as ray bit masks, of the pulling triangulation of a face.

    A face is the bit mask of its rays and has dimension `dim`. A face with
    as many rays as its dimension is a simplex. Otherwise its lowest ray is
    coned over the facets of the face that miss it, which are the maximal
    proper intersections face & mask.
    """
    if face.bit_count() == dim:
        yield face
        return
    low = face & -face
    subs = {face & m for m in facet_masks} - {face}
    for sub in subs:
        if not sub & low and not any(sub != other and sub & other == sub for other in subs):
            for simplex in _pulling(sub, facet_masks, dim - 1):
                yield low | simplex


def _parallelepiped(gens, heights=None, spent=0):
    """(points, spent) for the lattice points sum(l_i g_i), l in [0, 1)^r, of independent gens.

    With H the Hermite form `_echelon` gives of G^T, so T @ G^T == H for a
    unimodular T that is not needed, the point c·G / N, c in [0, N)^r, is in
    Z^d exactly when H @ c == 0 mod N, where N = prod h_ii counts the points.
    H is upper triangular, so c is solved for from its last coordinate to
    its first, each from one congruence h_ii c_i == -sum_{k>i} h_ik c_k
    (mod N), whose solutions in [0, N) are a range. With `heights` q only
    the points with sum(c_i q_i) = N, those at height 1, are given: a
    partial sum above N is cut, and so is one below N once no positive
    height is left. Each level adds its partial nodes to `spent`, the
    caller's count, and a level that would take it past the budget raises
    BudgetExceeded before its nodes are built.
    """
    r = len(gens)
    columns = list(zip(*gens))
    h = _echelon(columns, r)[0]
    n = prod(h[i][i] for i in range(r))
    q = heights or (0,) * r
    partial = [((), 0)]  # (c_i, .., c_{r-1}), sum of their c_k q_k
    for i in reversed(range(r)):
        g = gcd(h[i][i], n)
        step = n // g
        inv = pow(h[i][i] // g, -1, step)
        row, qi, room = h[i][i + 1 :], q[i], _LATTICE_BUDGET - spent
        last = heights is not None and not any(q[:i])  # the height is final after this level
        grown = []
        for tail, height in partial:
            b = -_dot(row, tail)
            if b % g:
                continue
            cs = range(b // g * inv % step, n, step)
            if qi:
                cs = range(cs.start, min(n, (n - height) // qi + 1), step)
            if last:
                cs = cs[-1:] if qi else cs
                if not cs or height + cs[-1] * qi != n:
                    continue
            size = max(0, (cs.stop - cs.start + step - 1) // step)  # len(cs) may pass a C ssize_t
            if len(grown) + size > room:
                charge(spent + len(grown) + size, _LATTICE_BUDGET, _TRIANGULATION)
            grown += [((c,) + tail, height + c * qi) for c in cs]
        spent += len(grown)
        partial = grown
    return [tuple(_dot(c, col) // n for col in columns) for c, _ in partial], spent


def _simplicial_points(rays, normals, dim, heights=None):
    """The parallelepiped points over a pulling triangulation of the pointed cone on `rays`.

    The facet masks are the rays tight on each normal; a normal tight on
    every ray (a lineality direction of the dual) is never a proper face.
    `heights`, one per ray, keeps the points at height 1. The work is
    counted as it is done, 1 per simplex and each parallelepiped level's
    nodes, and BudgetExceeded is raised once the count would pass
    `_LATTICE_BUDGET`.
    """
    masks = [sum(1 << i for i, r in enumerate(rays) if _dot(u, r) == 0) for u in normals]
    points, spent = [], 0
    for simplex in _pulling((1 << len(rays)) - 1, masks, dim):
        chosen = [i for i in range(len(rays)) if simplex >> i & 1]
        sub_heights = None if heights is None else [heights[i] for i in chosen]
        spent = charge(spent + 1, _LATTICE_BUDGET, _TRIANGULATION)
        found, spent = _parallelepiped([rays[i] for i in chosen], sub_heights, spent)
        points += found
    return points


def _minimal(items):
    """Values of the (key, value) pairs whose key is >= no other key, by key sum.

    For slack keys that keeps the points no other point can be taken from,
    for exponent keys the monomials no other one divides. A key can only be
    >= keys of smaller sum, and testing the kept ones suffices, since a
    dropped key is >= a kept one. A repeated key keeps its first value.
    Each candidate is charged one dominance test per kept key, and
    BudgetExceeded is raised once the tests would pass `_LATTICE_BUDGET`.
    """
    kept, tests = [], 0
    for key, value in sorted(items, key=lambda kv: sum(kv[0])):
        tests = charge(tests + len(kept), _LATTICE_BUDGET, _SIEVE)
        if not any(all(map(le, k, key)) for k, _ in kept):
            kept.append((key, value))
    return [value for _, value in kept]


def _eliminate(a, k, v):
    """The primitive vector <a, k> v - <a, v> k, which lies on the hyperplane <a, x> = 0."""
    s, t = _dot(a, k), _dot(a, v)
    return _primitive([s * x - t * y for x, y in zip(v, k)])


def _double_description(rows, d):
    """(lineality basis, primitive extreme rays) of {x : <a, x> >= 0 for every a in rows}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) cuts Z^d
    by one row a at a time. A lineality vector k with <a, k> != 0 becomes a
    ray with <a, k> > 0, and everything else is projected along k onto a^perp.
    Otherwise rays with <a, r> >= 0 stay, and each adjacent pair of opposite
    sign adds its combination on a^perp. Two rays are adjacent when no third
    ray is tight on every row both are tight on; a cheaper test runs first,
    since adjacent rays share at least d - dim(lineality) - 2 tight rows.
    """
    lineality = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = []  # (ray, bit mask of the rows it is tight on)
    for i, a in enumerate(rows):
        bit = 1 << i
        k = next((k for k in lineality if _dot(a, k)), None)
        if k is not None:
            lineality.remove(k)
            k = k if _dot(a, k) > 0 else tuple(-x for x in k)
            lineality = [_eliminate(a, k, v) for v in lineality]
            rays = [(_eliminate(a, k, r), z | bit) for r, z in rays] + [(k, bit - 1)]
            continue
        sides = [(r, z, _dot(a, r)) for r, z in rays]
        kept = [(r, z | bit if t == 0 else z) for r, z, t in sides if t >= 0]
        need = d - len(lineality) - 2
        neg = [(n, zn) for n, zn, t in sides if t < 0]
        for (p, zp), (n, zn) in iproduct([(p, zp) for p, zp, t in sides if t > 0], neg):
            common = zp & zn
            if common.bit_count() >= need and sum(z & common == common for _, z in rays) == 2:
                kept.append((_eliminate(a, p, n), common | bit))
        rays = kept
    return lineality, [r for r, _ in rays]


class Semigroup:
    """A finitely generated subsemigroup of Z^d, held by its Hilbert basis."""

    __slots__ = ("ambient_dim", "hilbert_generators")

    def __init__(self, ambient_dim, hilbert_generators):
        (self.ambient_dim,) = _int_tuple((ambient_dim,))
        self.hilbert_generators = tuple(_int_tuple(g, self.ambient_dim) for g in hilbert_generators)

    def __eq__(self, other):
        return (
            isinstance(other, Semigroup)
            and self.ambient_dim == other.ambient_dim
            and set(self.hilbert_generators) == set(other.hilbert_generators)
        )

    def __repr__(self):
        return f"Semigroup(dim={self.ambient_dim}, generators={list(self.hilbert_generators)})"

    def to_json(self):
        return {"dim": self.ambient_dim, "hilbert_basis": [list(g) for g in self.hilbert_generators]}


class Cone:
    """Cone(S) = all nonnegative real combinations of the generators."""

    __slots__ = ("ambient_dim", "generators", "_dual_gens", "_rays", "_dim", "_pointed")

    def __init__(self, ambient_dim, generators):
        (self.ambient_dim,) = _int_tuple((ambient_dim,))
        prims = set()
        for g in generators:
            p = _primitive(_int_tuple(g, self.ambient_dim))
            if p is not None:
                prims.add(p)
        self.generators = tuple(sorted(prims))
        self._dual_gens = self._rays = self._dim = self._pointed = None

    @classmethod
    def _trusted(cls, ambient_dim, generators):
        """A cone on generators the library built: sorted distinct primitive int tuples."""
        cone = cls(ambient_dim, ())
        cone.generators = generators
        return cone

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_json(cls, data):
        return cls(data["dim"], data["generators"])

    def to_json(self):
        return {"dim": self.ambient_dim, "generators": [list(g) for g in self.generators]}

    def __repr__(self):
        return f"Cone(dim={self.ambient_dim}, generators={list(self.generators)})"

    # -- core geometry ---------------------------------------------------------

    def dual_generators(self):
        """Generators of the dual cone {m : <m, g> >= 0 for all g}.

        Facet normals are the rays `_double_description` finds over the
        generators. On a lower-dimensional cone a normal is defined only modulo
        the dual's lineality L, so the first kernel column of the facet's
        generators outside L stands for it; L adds +/- each Hermite basis row.
        """
        if self._dual_gens is not None:
            return self._dual_gens
        d = self.ambient_dim
        gens = self.generators
        lineality, normals = _double_description(gens, d)
        self._dim = d - len(lineality)  # the dual's lineality is the orthogonal of the span
        if lineality:
            lin = kernel_basis(IntMatrix(gens, cols=d)).transpose()  # rows in Hermite form
            facets = []
            for n in normals:
                ker = kernel_basis(IntMatrix([g for g in gens if _dot(n, g) == 0], cols=d))
                col = _primitive(next(c for c in ker.columns() if not lattice_member(lin, c)))
                side = next(_dot(col, g) for g in gens if _dot(n, g))
                facets.append(col if side > 0 else tuple(-x for x in col))
            normals = facets + [v for row in lin.entries for v in (row, tuple(-x for x in row))]
        self._dual_gens = tuple(sorted(normals))
        return self._dual_gens

    def dual(self) -> "Cone":
        """The dual cone; on a strongly convex cone its own dual is composed, not enumerated.

        The dual of a pointed cone is full-dimensional, and its facet normals
        are the primitive rays of the cone. The dual of a full-dimensional
        cone is pointed, and its generators, the dual's extreme rays, are its
        rays.
        """
        d = self.ambient_dim
        duals = self.dual_generators()
        if self.dim() == d:
            dual = Cone._trusted(d, duals)
            dual._pointed, dual._rays = True, duals
        else:
            dual = Cone(d, duals)
        if self.is_strongly_convex():
            dual._dual_gens, dual._dim = tuple(sorted(self.rays())), d
        return dual

    def contains(self, vec) -> bool:
        vec = _int_tuple(vec, self.ambient_dim)
        return all(_dot(n, vec) >= 0 for n in self.dual_generators())

    def __eq__(self, other):
        if not isinstance(other, Cone) or self.ambient_dim != other.ambient_dim:
            return False
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    __hash__ = None

    def dim(self) -> int:
        """The rank of the generators, cached; duals, products and double description set it."""
        if self._dim is None:
            self._dim = rank(IntMatrix._trusted(self.generators, self.ambient_dim))
        return self._dim

    def is_strongly_convex(self) -> bool:
        """No line lies in the cone: each generator pairs nonzero with some dual generator."""
        if self._pointed is None:
            duals = self.dual_generators()
            self._pointed = all(any(_dot(n, g) for n in duals) for g in self.generators)
        return self._pointed

    def rays(self):
        """Primitive generators of the edges, in lexicographic order.

        A generator spans an edge exactly when no other generator is tight
        on every dual generator it is tight on.
        """
        if self._rays is not None:
            return self._rays
        if not self.is_strongly_convex():
            raise NotStronglyConvex("rays are only unique for strongly convex cones")
        duals = self.dual_generators()
        gens = self.generators
        tight = [sum(1 << i for i, n in enumerate(duals) if _dot(n, g) == 0) for g in gens]
        self._rays = tuple(g for g, z in zip(gens, tight) if sum(w & z == z for w in tight) == 1)
        return self._rays

    def product(self, other: "Cone") -> "Cone":
        """The cone self x other, `_product` of the two: its dual and rays are theirs, embedded."""
        return _product((self, other))

    def hilbert_basis(self) -> Semigroup:
        """Minimal generating set of cone ∩ Z^d as a semigroup.

        Every irreducible element of a simplicial cone is one of its rays or
        a point of its half-open parallelepiped, so the rays and the
        parallelepiped points of a pulling triangulation, keyed by their
        slack over the dual generators, go through the `_minimal` sieve
        (Bruns & Ichim, J. Algebra 2010). Both count their work against
        `_LATTICE_BUDGET` and raise BudgetExceeded past it.
        """
        if not self.is_strongly_convex():
            raise NotPointed("Hilbert basis requires a cone with no line")
        d = self.ambient_dim
        rays = self.rays()
        if not rays:
            return Semigroup(d, [])
        duals = self.dual_generators()
        points = list(rays) + _simplicial_points(rays, duals, self.dim())
        keyed = ((tuple(_dot(u, p) for u in duals), p) for p in points if any(p))
        return Semigroup(d, sorted(_minimal(keyed)))


def _placed(vectors, at, d):
    """Each vector padded with zeros into Z^d, its block starting at coordinate `at`."""
    return [(0,) * at + v + (0,) * (d - at - len(v)) for v in vectors]


def _embedded(dims, blocks):
    """The vectors of every block, placed into its place in Z^sum(dims), sorted."""
    d, at, out = sum(dims), 0, []
    for dim, block in zip(dims, blocks):
        out += _placed(block, at, d)
        at += dim
    return tuple(sorted(out))


def _product(cones):
    """The product of `cones`, composed from the factors in one pass.

    The dual of a product is the product of the duals, and the rays of a
    product of pointed cones are the embedded factor rays, so neither is
    enumerated again. The generators, dual generators and rays are each
    embedded and sorted once, O(k^2) entries over k factors.
    """
    dims = [c.ambient_dim for c in cones]
    cone = Cone._trusted(sum(dims), _embedded(dims, [c.generators for c in cones]))
    cone._dual_gens = _embedded(dims, [c.dual_generators() for c in cones])
    cone._dim = sum(c.dim() for c in cones)
    cone._pointed = all(c.is_strongly_convex() for c in cones)
    if cone._pointed:
        cone._rays = _embedded(dims, [c.rays() for c in cones])
    return cone


# -- functional aliases ----------------------------------------------------


def dual_cone(c: Cone) -> Cone:
    return c.dual()


def rays(c: Cone):
    """Indexed primitive ray generators, in the stored lexicographic order."""
    return list(enumerate(c.rays()))


def is_strongly_convex(c: Cone) -> bool:
    return c.is_strongly_convex()


def product(c1: Cone, c2: Cone) -> Cone:
    return c1.product(c2)


def hilbert_basis(c: Cone) -> Semigroup:
    return c.hilbert_basis()
