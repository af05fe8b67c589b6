"""Rational polyhedral cones with exact arithmetic.

A cone is stored by primitive integer generators. Dual cones of atomic
cones come from facet enumeration over generator subsets, which is exact
and fast at the ambient dimensions this library targets (<= ~11). Product
cones never enumerate: they compose their dual and rays from the factors'.

Lattice points are enumerated in one place, `_box_points`: the box around
conv(V) + [0, 1]·rays, cut at a grade bound. Every minimal generator of
the module conv(V) + cone(rays) lies in it, since a point with a
coefficient >= 1 on some ray can drop that ray. With V = {0} it is the
zonotope bound that Hilbert bases use, plus an irreducibility sieve;
divisorial modules use it with V the vertices of their region. A box of
more than `_BOX_BUDGET` points raises `BudgetExceeded` before anything is
scanned.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct
from math import ceil, floor, gcd, prod

from .errors import BudgetExceeded, NotPointed, NotStronglyConvex
from .zlinalg import IntMatrix, hermite_normal_form, kernel_basis, lattice_member, rank

_BOX_BUDGET = 10**6


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        return None
    return tuple(x // g for x in vec)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _grading(cone):
    """The sum of the cone's dual generators, positive on a pointed cone minus 0."""
    duals = cone.dual_generators()
    return tuple(sum(n[i] for n in duals) for i in range(cone.ambient_dim))


def _box_points(vertices, rays, weight):
    """(grade, point) for the lattice points of the box around conv(vertices) + [0, 1]·rays.

    Points are yielded in lexicographic order, and only those whose grade
    is at most ceil(max vertex grade) + the sum of the ray grades. Raises
    BudgetExceeded, before scanning, if the box has more than _BOX_BUDGET
    points.
    """
    d = len(weight)
    lo = [floor(min(v[i] for v in vertices)) + sum(min(0, r[i]) for r in rays) for i in range(d)]
    hi = [ceil(max(v[i] for v in vertices)) + sum(max(0, r[i]) for r in rays) for i in range(d)]
    size = prod(h - l + 1 for l, h in zip(lo, hi))
    if size > _BOX_BUDGET:
        raise BudgetExceeded(
            f"lattice box of {size} points exceeds the budget of {_BOX_BUDGET}", _BOX_BUDGET
        )
    bound = ceil(max(_dot(weight, v) for v in vertices)) + sum(_dot(weight, r) for r in rays)
    graded = ((_dot(weight, p), p) for p in iproduct(*(range(l, h + 1) for l, h in zip(lo, hi))))
    return ((g, p) for g, p in graded if g <= bound)


class Semigroup:
    """A finitely generated subsemigroup of Z^d, held by its Hilbert basis."""

    __slots__ = ("ambient_dim", "hilbert_generators")

    def __init__(self, ambient_dim, hilbert_generators):
        self.ambient_dim = int(ambient_dim)
        self.hilbert_generators = tuple(tuple(int(x) for x in g) for g in hilbert_generators)

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

    __slots__ = ("ambient_dim", "generators", "_dual_gens", "_rays")

    def __init__(self, ambient_dim, generators):
        self.ambient_dim = int(ambient_dim)
        prims = set()
        for g in generators:
            if len(g) != self.ambient_dim:
                raise ValueError("generator has wrong length")
            p = _primitive([int(x) for x in g])
            if p is not None:
                prims.add(p)
        self.generators = tuple(sorted(prims))
        self._dual_gens = None
        self._rays = None

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

        Facet normals are found among the kernels of (rank-1)-sized
        generator subsets; the orthogonal complement of the span
        contributes the lineality of the dual.
        """
        if self._dual_gens is not None:
            return self._dual_gens
        d = self.ambient_dim
        gens = self.generators
        out = set()
        if not gens:
            for i in range(d):
                e = tuple(int(i == j) for j in range(d))
                out.add(e)
                out.add(tuple(-x for x in e))
            self._dual_gens = tuple(sorted(out))
            return self._dual_gens

        mat = IntMatrix(gens)
        lin = kernel_basis(mat)  # orthogonal complement of the span
        r = d - lin.cols
        lin_cols = [lin.column(j) for j in range(lin.cols)]
        lin_hnf = hermite_normal_form(IntMatrix(lin_cols)) if lin_cols else IntMatrix([], cols=d)
        for col in lin_cols:
            p = _primitive(col)
            out.add(p)
            out.add(tuple(-x for x in p))

        if r >= 1:
            for subset in combinations(range(len(gens)), r - 1):
                sub = IntMatrix([gens[i] for i in subset], cols=d)
                ker = kernel_basis(sub)
                if ker.cols != d - r + 1:
                    continue  # subset does not span a potential facet
                candidate = None
                for j in range(ker.cols):
                    col = ker.column(j)
                    if lin_cols and lattice_member(lin_hnf, col):
                        continue
                    candidate = col
                    break
                if candidate is None:
                    continue
                pairings = [_dot(candidate, g) for g in gens]
                if all(x >= 0 for x in pairings):
                    out.add(_primitive(candidate))
                elif all(x <= 0 for x in pairings):
                    out.add(_primitive([-x for x in candidate]))
        self._dual_gens = tuple(sorted(out))
        return self._dual_gens

    def dual(self) -> "Cone":
        return Cone(self.ambient_dim, self.dual_generators())

    def contains(self, vec) -> bool:
        vec = tuple(int(x) for x in vec)
        return all(_dot(n, vec) >= 0 for n in self.dual_generators())

    def __eq__(self, other):
        if not isinstance(other, Cone) or self.ambient_dim != other.ambient_dim:
            return False
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    __hash__ = None

    def dim(self) -> int:
        if not self.generators:
            return 0
        return rank(IntMatrix(self.generators))

    def is_strongly_convex(self) -> bool:
        duals = self.dual_generators()
        if not duals:
            return self.ambient_dim == 0
        return rank(IntMatrix(duals)) == self.ambient_dim

    def rays(self):
        """Primitive generators of the edges, in lexicographic order."""
        if self._rays is not None:
            return self._rays
        if not self.is_strongly_convex():
            raise NotStronglyConvex("rays are only unique for strongly convex cones")
        d = self.ambient_dim
        duals = self.dual_generators()
        found = []
        for g in self.generators:
            orth = [n for n in duals if _dot(n, g) == 0]
            if orth and rank(IntMatrix(orth)) == d - 1:
                found.append(g)
            elif d == 1:
                found.append(g)
        self._rays = tuple(sorted(found))
        return self._rays

    def product(self, other: "Cone") -> "Cone":
        """The cone self x other, with its dual and rays taken from the factors.

        The dual of a product is the product of the duals, and the rays of a
        product of pointed cones are the embedded factor rays, so neither is
        enumerated again on the product.
        """
        d1, d2 = self.ambient_dim, other.ambient_dim

        def embed(first, second):
            return [tuple(g) + (0,) * d2 for g in first] + [(0,) * d1 + tuple(h) for h in second]

        cone = Cone(d1 + d2, embed(self.generators, other.generators))
        cone._dual_gens = tuple(sorted(embed(self.dual_generators(), other.dual_generators())))
        if self.is_strongly_convex() and other.is_strongly_convex():
            cone._rays = tuple(sorted(embed(self.rays(), other.rays())))
        return cone

    def hilbert_basis(self) -> Semigroup:
        """Minimal generating set of cone ∩ Z^d as a semigroup.

        Uses the standard zonotope bound: every irreducible element is a
        [0, 1]-combination of the extreme rays, so candidates come from
        `_box_points` around the origin and are sieved by subtracting
        accepted elements.
        """
        if not self.is_strongly_convex():
            raise NotPointed("Hilbert basis requires a cone with no line")
        d = self.ambient_dim
        rays = self.rays()
        if not rays:
            return Semigroup(d, [])
        candidates = sorted(
            (g, point)
            for g, point in _box_points([(0,) * d], rays, _grading(self))
            if g > 0 and self.contains(point)
        )

        basis = []
        for g, point in candidates:
            reducible = False
            for b in basis:
                diff = tuple(x - y for x, y in zip(point, b))
                if self.contains(diff):
                    reducible = True
                    break
            if not reducible:
                basis.append(point)
        return Semigroup(d, sorted(basis))


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
